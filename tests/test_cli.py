"""End-to-end command-line tests against golden output files.

Outputs are compared byte-for-byte. Regenerate with:
    OBSORDER_REGEN_GOLDEN=1 python3 -m pytest tests/test_cli.py
The verify subcommand reports wall time; that field is normalised to 0
before comparison.
"""

import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from obsorder.cli import build_parser, main
from obsorder.io import dumps, matrix_to_dict
from obsorder.tolerances import DEFAULT_TOLERANCES

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("OBSORDER_REGEN_GOLDEN") == "1"

IDENTITY_ORACLE = shlex.join([sys.executable, "-m", "obsorder.demo_oracles.identity"])
AFFINE_ORACLE = shlex.join([sys.executable, "-m", "obsorder.demo_oracles.affine"])
CUBE_ORACLE = shlex.join([sys.executable, "-m", "obsorder.demo_oracles.cube"])


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name, text):
    path = GOLDEN / name
    if REGEN:
        path.write_text(text)
        return
    assert text == path.read_text(), f"output differs from golden file {name}"


def write_matrix(path, m):
    path.write_text(dumps(matrix_to_dict(np.asarray(m, dtype=np.complex128))) + "\n")


@pytest.fixture
def files(tmp_path):
    write_matrix(tmp_path / "zero2.json", np.zeros((2, 2)))
    write_matrix(tmp_path / "eye2.json", np.eye(2))
    write_matrix(tmp_path / "diag10.json", np.diag([1.0, 0.0]))
    write_matrix(tmp_path / "diag01.json", np.diag([0.0, 1.0]))
    write_matrix(tmp_path / "diag41.json", np.diag([4.0, 1.0]))
    write_matrix(tmp_path / "eye4.json", np.eye(4))
    write_matrix(tmp_path / "indef.json", np.diag([1.0, -1.0]))
    (tmp_path / "phi_diag12.json").write_text(
        dumps(
            {
                "T": matrix_to_dict(np.diag([1.0 + 0j, 2.0])),
                "conjugate": False,
                "X": matrix_to_dict(np.zeros((2, 2), dtype=np.complex128)),
            }
        )
        + "\n"
    )
    (tmp_path / "phi_scaled.json").write_text(
        dumps(
            {
                "T": matrix_to_dict(np.sqrt(2.0) * np.eye(2, dtype=np.complex128)),
                "conjugate": False,
                "X": matrix_to_dict(np.eye(2, dtype=np.complex128)),
            }
        )
        + "\n"
    )
    return tmp_path


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["order", "A.json", "B.json", "--out-dir", "x"],
            ["lambda-max", "B.json", "[[1,0],[0,0]]", "--out-dir", "x"],
            ["reconstruct", "--oracle", "o", "--dim", "2", "--out-dir", "x"],
            ["preserver", "phi.json", "--kind", "orthogonality", "--out-dir", "x"],
            ["verify", "thm1", "--out-dir", "x"],
            ["order", "A.json", "B.json", "--seed", "1"],
            ["lambda-max", "B.json", "[[1,0],[0,0]]", "--seed", "1"],
            ["rank-order", "A.json", "--n", "1", "--seed", "1"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_unread_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


class TestOrder:
    def test_leq(self, files, capsys):
        code, out, _ = run_cli(["order", str(files / "zero2.json"), str(files / "eye2.json")], capsys)
        assert code == 0
        check_golden("order_leq.json", out)

    def test_incomparable(self, files, capsys):
        code, out, _ = run_cli(
            ["order", str(files / "diag10.json"), str(files / "diag01.json")], capsys
        )
        assert code == 1
        check_golden("order_incomparable.json", out)
        payload = json.loads(out)
        assert payload["relation"] == "INCOMPARABLE"
        assert len(payload["witnesses"]) == 2

    def test_stdin(self, files, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO((files / "zero2.json").read_text()))
        code, out, _ = run_cli(["order", "-", str(files / "eye2.json")], capsys)
        assert code == 0
        check_golden("order_leq.json", out)

    def test_missing_file(self, files, capsys):
        code, _, err = run_cli(["order", str(files / "nope.json"), str(files / "eye2.json")], capsys)
        assert code == 2
        assert "error:" in err


class TestLambdaMax:
    def test_feasible(self, files, capsys):
        code, out, _ = run_cli(["lambda-max", str(files / "diag41.json"), "[[1,0],[0,0]]"], capsys)
        assert code == 0
        check_golden("lambda_max.json", out)
        assert json.loads(out)["lambda"] == pytest.approx(4.0, rel=1e-9)

    def test_infeasible_is_null(self, files, capsys):
        code, out, _ = run_cli(["lambda-max", str(files / "diag10.json"), "[[0,0],[1,0]]"], capsys)
        assert code == 0
        check_golden("lambda_max_null.json", out)
        assert json.loads(out)["lambda"] is None

    def test_rejects_indefinite(self, files, capsys):
        code, _, err = run_cli(["lambda-max", str(files / "indef.json"), "[[1,0],[0,0]]"], capsys)
        assert code == 2 and "error:" in err

    def test_rejects_non_unit(self, files, capsys):
        code, _, err = run_cli(["lambda-max", str(files / "eye2.json"), "[[2,0],[0,0]]"], capsys)
        assert code == 2 and "error:" in err


class TestRankOrder:
    def test_witness_files(self, files, capsys):
        out_dir = files / "out"
        code, out, _ = run_cli(
            ["rank-order", str(files / "eye4.json"), "--n", "1", "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank_gt_np1"] is True
        # paths are machine-local, so golden-compare only the witness metadata
        assert payload["witness"]["n"] == 1
        assert payload["witness"]["rank_E"] == 1
        assert payload["witness"]["rank_F"] == 3
        e = json.loads((out_dir / "E.json").read_text())
        f = json.loads((out_dir / "F.json").read_text())
        check_golden("rank_order_E.json", dumps(e) + "\n")
        check_golden("rank_order_F.json", dumps(f) + "\n")

    def test_boundary(self, files, capsys):
        code, out, _ = run_cli(["rank-order", str(files / "eye2.json"), "--n", "1"], capsys)
        assert code == 0
        check_golden("rank_order_boundary.json", out)
        assert json.loads(out) == {"rank_gt_np1": False}

    def test_rejects_indefinite(self, files, capsys):
        code, _, err = run_cli(["rank-order", str(files / "indef.json"), "--n", "1"], capsys)
        assert code == 2 and "error:" in err


class TestReconstruct:
    def test_identity(self, capsys):
        code, out, _ = run_cli(
            ["reconstruct", "--oracle", IDENTITY_ORACLE, "--dim", "3", "--seed", "0"], capsys
        )
        assert code == 0
        check_golden("reconstruct_identity.json", out)

    def test_affine(self, capsys):
        code, out, _ = run_cli(
            ["reconstruct", "--oracle", AFFINE_ORACLE, "--dim", "2", "--seed", "0"], capsys
        )
        assert code == 0
        check_golden("reconstruct_affine.json", out)
        payload = json.loads(out)
        assert payload["conjugate"] is False
        t = np.array([[c[0] + 1j * c[1] for c in row] for row in payload["T"]["entries"]])
        np.testing.assert_allclose(t, np.sqrt(2.0) * np.eye(2), atol=1e-10)

    def test_cube_rejected(self, capsys):
        code, _, err = run_cli(["reconstruct", "--oracle", CUBE_ORACLE, "--dim", "2"], capsys)
        assert code == 3 and "error:" in err

    def test_dead_oracle_is_transport(self, capsys):
        dead = shlex.join([sys.executable, "-c", "import sys; sys.exit(0)"])
        code, _, err = run_cli(["reconstruct", "--oracle", dead, "--dim", "2"], capsys)
        assert code == 4 and "error:" in err

    def test_silent_oracle_is_transport(self, capsys, monkeypatch):
        monkeypatch.setattr("obsorder.oracle.RESPONSE_TIMEOUT_S", 0.5)
        silent = shlex.join([sys.executable, "-c",
                             "import sys, time; sys.stdin.readline(); time.sleep(60)"])
        code, _, err = run_cli(["reconstruct", "--oracle", silent, "--dim", "2"], capsys)
        assert code == 4 and "no response within 0.5 s" in err

    def test_endless_reply_line_is_transport(self, capsys):
        endless = shlex.join([sys.executable, "-c",
                              "import sys; sys.stdin.readline(); "
                              "[sys.stdout.write('1' * 65536) for _ in range(64)]; "
                              "sys.stdout.flush()"])
        code, _, err = run_cli(["reconstruct", "--oracle", endless, "--dim", "2"], capsys)
        assert code == 4 and "longer than" in err

    def test_empty_oracle_command(self, capsys):
        code, _, err = run_cli(["reconstruct", "--oracle", "", "--dim", "2"], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("dim", ["0", "65"])
    def test_dim_checked_before_spawn(self, dim, capsys):
        # a spawn would fail (exit 4), so exit 2 shows that the check comes first
        code, _, err = run_cli(["reconstruct", "--oracle", "/nonexistent", "--dim", dim], capsys)
        assert code == 2 and "error:" in err


class TestPreserver:
    def test_affine_scalar_preserves(self, files, capsys):
        code, out, _ = run_cli(
            ["preserver", str(files / "phi_scaled.json"), "--kind", "commutativity"], capsys
        )
        assert code == 0
        check_golden("preserver_scaled.json", out)
        payload = json.loads(out)
        assert payload["preserves"] is True
        assert payload["canonical_form"]["lambda"] == pytest.approx(2.0)
        assert payload["canonical_form"]["mu"] == pytest.approx(1.0)

    def test_diag_breaks_orthogonality(self, files, capsys):
        code, out, _ = run_cli(
            ["preserver", str(files / "phi_diag12.json"), "--kind", "orthogonality"], capsys
        )
        assert code == 1
        check_golden("preserver_diag_orth.json", out)
        payload = json.loads(out)
        assert payload["preserves"] is False
        assert payload["counterexample"]["holds_before"] != payload["counterexample"]["holds_after"]

    def test_bad_kind(self, files, capsys):
        with pytest.raises(SystemExit):
            main(["preserver", str(files / "phi_scaled.json"), "--kind", "nope"])
        capsys.readouterr()

    def test_malformed_phi(self, files, capsys):
        bad = files / "bad.json"
        bad.write_text("{\"T\": 3}\n")
        code, _, err = run_cli(["preserver", str(bad), "--kind", "commutativity"], capsys)
        assert code == 2 and "error:" in err


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "lemma-rng", "--dims", "2,3", "--trials", "3", "--seed", "0"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        payload["elapsed_ms"] = 0
        check_golden("verify_lemma_rng.json", dumps(payload) + "\n")

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["verify", "nosuch"], capsys)
        assert code == 2 and "error:" in err

    def test_bad_dims(self, capsys):
        code, _, err = run_cli(["verify", "thm1", "--dims", "2,x"], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [["--dims", ""], ["--trials", "0"]], ids=["no_dims", "no_trials"])
    def test_nothing_to_run(self, argv, capsys):
        code, out, err = run_cli(["verify", "thm1", *argv], capsys)
        assert code == 2 and "error:" in err and out == ""


class TestRepeatedCalls:
    """``main`` keeps one parser per process; every call must behave as a
    call with a parser of its own."""

    def _outcome(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit 2
            code = exc.code
        out = capsys.readouterr().out
        if argv[0] == "verify" and code != 2:
            payload = json.loads(out)
            payload["elapsed_ms"] = 0
            out = dumps(payload)
        return code, out

    def test_calls_match_calls_with_a_fresh_parser(self, files, capsys):
        # with --tol-psd 0.5, diag(0.3, 0) and 0 are equal; by default they are not
        (files / "small.json").write_text(dumps(matrix_to_dict(np.diag([0.3, 0.0]) + 0j)) + "\n")
        calls = [
            ["order", "--tol-psd", "0.5", str(files / "small.json"), str(files / "zero2.json")],
            ["order", str(files / "small.json"), str(files / "zero2.json")],
            ["verify", "cor4", "--dims", "2,3", "--trials", "2", "--seed", "4"],
            ["verify", "thm1", "--out-dir", "x"],
            ["verify", "nosuch"],
            ["verify", "thm2", "--dims", "2,3", "--trials", "2", "--seed", "4"],
        ]
        parser = build_parser()
        shared = [self._outcome(argv, capsys) for argv in calls]
        assert build_parser() is parser
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self._outcome(argv, capsys))
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 0, 2, 2, 0]
        assert json.loads(shared[0][1])["relation"] == "EQUAL"
        assert json.loads(shared[1][1])["relation"] == "GEQ"
        assert build_parser().parse_args(calls[2]).tol_psd == DEFAULT_TOLERANCES.tol_psd
