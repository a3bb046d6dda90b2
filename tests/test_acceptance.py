"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion prints a single `[acceptance] ... PASS|FAIL` line on the
real standard output (bypassing capture) and then asserts, so a plain
`pytest -v` run shows the scoreboard inline.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from obsorder import (
    OrderAutomorphism,
    RelationKind,
    apply,
    commute,
    compare,
    complementary,
    from_automorphism,
    invert,
    leq,
    max_lambda,
    orthogonal,
    preserves_relation,
    rank_gt_np1_witness,
    rank_numeric,
    rank_one,
    reconstruct,
)
from obsorder.automorphism import gauge_distance
from obsorder.cli import main as cli_main
from obsorder.generators import (
    random_automorphism,
    random_hermitian,
    random_invertible,
    random_psd,
    random_unit,
    random_unitary,
)
from obsorder.harness import bisection_max_lambda, local_scalar
from obsorder.hermitian import PsdMatrix
from obsorder.io import dumps, matrix_to_dict
from obsorder.order_rank import check_rank_witness

from test_cli import AFFINE_ORACLE, CUBE_ORACLE, GOLDEN, IDENTITY_ORACLE, write_matrix


def quadratic_form(a, x) -> float:
    """<Ax, x> for Hermitian A, the witness gap's reference."""
    return float(np.real(np.vdot(x, np.asarray(a) @ x)))


_CAP = None


@pytest.fixture(autouse=True)
def _uncaptured(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    line = f"[acceptance] criterion {num:2d} {name}: {verdict}{suffix}"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_order_predicate_soundness():
    rng = np.random.default_rng(101)
    bad = []
    for d in range(2, 7):
        for _ in range(1000):
            a = random_hermitian(rng, d)
            p = random_psd(rng, d, int(rng.integers(1, d + 1)), (0.1, 1.0))
            if not leq(a, a + p):
                bad.append(f"constructed <= pair rejected at d={d}")
                break
        for _ in range(1000):
            a = random_hermitian(rng, d)
            h = random_hermitian(rng, d)
            evals = np.linalg.eigvalsh(h)
            diff = h - 0.5 * (evals[0] + evals[-1]) * np.eye(d)  # indefinite by shift
            if leq(a, a + diff):
                bad.append(f"indefinite difference accepted at d={d}")
                break
            r = compare(a, a + diff)
            w = r.witness_ab
            if w is None:
                bad.append(f"missing refutation witness at d={d}")
                break
            gap = quadratic_form(a, w.x) - quadratic_form(a + diff, w.x)
            if gap <= 0:
                bad.append(f"witness gap not positive at d={d}")
                break
    _report(1, "order predicate soundness", not bad, "; ".join(bad))


def test_criterion_02_range_inclusion_equivalence():
    rng = np.random.default_rng(202)
    disagreements = 0
    for d in range(2, 7):
        for _ in range(300):
            k = int(rng.integers(1, d + 1))
            b = random_psd(rng, d, k, (0.5, 2.0))
            if rng.integers(0, 2) and k < d:
                x = random_unit(rng, d)
            else:
                evals, evecs = np.linalg.eigh(b)
                cols = evecs[:, evals > 1e-8]
                c = rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1])
                x = cols @ c
                x /= np.linalg.norm(x)
            a = PsdMatrix.from_hermitian(rank_one(x, x))
            from obsorder import range_dominates

            got = range_dominates(a, PsdMatrix.from_hermitian(b))
            oracle = bisection_max_lambda(x, b) is not None
            if got != oracle:
                disagreements += 1
    _report(2, "range inclusion criterion vs bisection oracle", disagreements == 0,
            f"{disagreements} disagreements")


def test_criterion_03_extremal_lambda():
    rng = np.random.default_rng(303)
    bad = []
    for i in range(300):
        d = 2 + i % 5
        k = int(rng.integers(1, d + 1))
        b = random_psd(rng, d, k, (0.5, 2.0))
        evals, evecs = np.linalg.eigh(b)
        cols = evecs[:, evals > 1e-8]
        c = rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1])
        x = cols @ c
        x /= np.linalg.norm(x)
        lam = max_lambda(x, PsdMatrix.from_hermitian(b))
        if lam is None:
            bad.append("feasible instance reported infeasible")
            continue
        norm_b = float(np.linalg.norm(b, 2))
        residual = b - lam * rank_one(x, x)
        lo = float(np.linalg.eigvalsh(residual)[0])
        if not (-1e-9 * max(1.0, norm_b) <= lo <= 1e-6 * norm_b):
            bad.append(f"residual min eigenvalue {lo:.2e} out of band")
        bumped = b - (1.0 + 1e-6) * lam * rank_one(x, x)
        if float(np.linalg.eigvalsh(bumped)[0]) >= -1e-12 * max(1.0, norm_b):
            bad.append("bumped multiple still feasible")
    _report(3, "extremal rank-one multiple below a PSD matrix", not bad,
            "; ".join(sorted(set(bad))))


def test_criterion_04_order_rank_witnesses():
    rng = np.random.default_rng(404)
    bad = []
    for d in range(3, 7):
        for _ in range(300):
            r = int(rng.integers(1, d + 1))
            a = PsdMatrix.from_hermitian(random_psd(rng, d, r, (0.5, 2.0)))
            for n in range(1, d - 1):
                w = rank_gt_np1_witness(a, n)
                if (w is not None) != (r > n + 1):
                    bad.append(f"existence mismatch d={d} r={r} n={n}")
                elif w is not None and not check_rank_witness(a, w):
                    bad.append(f"witness invariants failed d={d} r={r} n={n}")
    _report(4, "order-theoretic rank witnesses", not bad, "; ".join(bad[:3]))


def test_criterion_05_congruence_preserves_order():
    rng = np.random.default_rng(505)
    violations = 0
    for i in range(500):
        d = 2 + i % 4
        phi = random_automorphism(rng, d)
        inv = invert(phi)
        for _ in range(10):
            a = random_hermitian(rng, d)
            b = a + random_psd(rng, d, int(rng.integers(1, d + 1)), (0.1, 1.0))
            if not leq(apply(phi, a), apply(phi, b)):
                violations += 1
            if not leq(apply(inv, a), apply(inv, b)):
                violations += 1
        for _ in range(10):
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            if leq(a, b) != leq(apply(phi, a).mat, apply(phi, b).mat):
                violations += 1
    _report(5, "congruence maps preserve order both ways", violations == 0,
            f"{violations} violations")


def test_criterion_06_reconstruction_round_trip():
    rng = np.random.default_rng(606)
    failures = []
    total = 0
    for d in range(2, 6):
        for trial in range(200):
            total += 1
            seed = int(rng.integers(2**31))
            phi = random_automorphism(rng, d)
            report = reconstruct(from_automorphism(phi), seed=seed)
            rec = report.recovered
            ok = (
                gauge_distance(rec.T, phi.T) <= 1e-6
                and float(np.max(np.abs(rec.X.mat - phi.X.mat))) <= 1e-8
                and (rec.conjugate == phi.conjugate or report.conjugate_degenerate)
            )
            if not ok:
                failures.append({"dim": d, "trial": trial, "seed": seed})
    rate = 1.0 - len(failures) / total
    _report(6, "reconstruction round-trip", rate >= 0.99,
            f"success rate {rate:.4f}, replayable failures: {failures[:5]}")


def test_criterion_07_unitary_scalar_classifier():
    rng = np.random.default_rng(707)
    bad = []
    for i in range(200):
        d = 2 + i % 4
        u = random_unitary(rng, d)
        lam = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(-1.0, 1.0))
        conj = bool(rng.integers(0, 2))
        phi = OrderAutomorphism.create(np.sqrt(lam) * u, conjugate=conj, x=mu * np.eye(d))
        cls = preserves_relation(phi, RelationKind.COMMUTATIVITY, seed=i)
        if not cls.preserves:
            bad.append(f"positive instance rejected (d={d}, i={i})")
            continue
        form = cls.canonical_form
        if (
            abs(form.lam - lam) > 1e-6 * lam
            or abs(form.mu - mu) > 1e-6 * max(1.0, abs(mu))
            or form.antiunitary != conj
            or np.linalg.norm(form.U.conj().T @ form.U - np.eye(d), 2) > 1e-8
        ):
            bad.append(f"canonical form wrong (d={d}, i={i})")
            continue
        a = random_hermitian(rng, d)
        expect = form.lam * form.U @ (a.conj() if conj else a) @ form.U.conj().T + form.mu * np.eye(d)
        if np.linalg.norm(apply(phi, a).mat - expect, 2) > 1e-8 * max(1.0, np.linalg.norm(expect, 2)):
            bad.append(f"canonical form does not reproduce the map (d={d}, i={i})")
    for i in range(200):
        d = 2 + i % 4
        if i % 2 == 0:
            t = random_invertible(rng, d)
            if local_scalar(t.conj().T @ t) is not None:
                t = t @ np.diag(np.linspace(1.0, 2.0, d))
            x = float(rng.uniform(-1.0, 1.0)) * np.eye(d)
        else:
            t = random_unitary(rng, d)
            x = random_hermitian(rng, d)
            if local_scalar(x) is not None:
                x = x + np.diag(np.linspace(0.0, 1.0, d))
        phi = OrderAutomorphism.create(t, x=x)
        cls = preserves_relation(phi, RelationKind.COMMUTATIVITY, seed=i)
        if cls.preserves:
            bad.append(f"negative instance accepted (d={d}, i={i})")
            continue
        ce = cls.counterexample
        before = commute(ce.a, ce.b)
        after = commute(apply(phi, ce.a).mat, apply(phi, ce.b).mat)
        if before != ce.holds_before or after != ce.holds_after or before == after:
            bad.append(f"counterexample failed re-verification (d={d}, i={i})")
    _report(7, "commutativity preserver classifier", not bad, "; ".join(bad[:3]))


def test_criterion_08_complementarity_scalar_test():
    rng = np.random.default_rng(808)
    bad = []
    for d in (2, 3, 4):
        for _ in range(100):
            c = float(rng.uniform(-2.0, 2.0))
            if not complementary(c * np.eye(d), random_hermitian(rng, d)):
                bad.append(f"scalar rejected at d={d}")
    for i in range(100):
        d = 2 + i % 3
        a = random_hermitian(rng, d)
        if local_scalar(a) is not None:
            a = a + np.diag(np.linspace(0.0, 1.0, d))
        _, vecs = np.linalg.eigh(a)
        j = int(rng.integers(0, d))
        partner = rank_one(vecs[:, j], vecs[:, j])  # shares a spectral direction
        if complementary(a, partner):
            bad.append(f"violating partner not flagged (d={d}, i={i})")
    _report(8, "complementary to everything iff scalar", not bad, "; ".join(bad[:3]))


def test_criterion_09_orthogonality_preserver_classifier():
    rng = np.random.default_rng(909)
    bad = []
    for i in range(2000):
        d = 2 + i % 4
        if i % 3 == 0:
            phi = OrderAutomorphism.create(
                float(rng.uniform(0.5, 2.0)) * random_unitary(rng, d),
                conjugate=bool(rng.integers(0, 2)),
            )
        else:
            phi = random_automorphism(rng, d)
        s = phi.T.conj().T @ phi.T
        analytic = local_scalar(s) is not None and float(
            np.max(np.abs(np.linalg.eigvalsh(phi.X.mat)))
        ) <= 1e-9 * max(1.0, float(np.abs(np.linalg.eigvalsh(s)).max()))
        cls = preserves_relation(phi, RelationKind.ORTHOGONALITY, seed=i)
        if cls.preserves != analytic:
            bad.append(f"verdict/analytic mismatch (d={d}, i={i})")
            continue
        if not cls.preserves:
            ce = cls.counterexample
            before = orthogonal(ce.a, ce.b)
            after = orthogonal(apply(phi, ce.a).mat, apply(phi, ce.b).mat)
            if before != ce.holds_before or after != ce.holds_after or before == after:
                bad.append(f"counterexample failed re-verification (d={d}, i={i})")
    _report(9, "orthogonality preserver classifier", not bad, "; ".join(bad[:3]))


def _run_cli_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_contract(tmp_path: Path):
    write_matrix(tmp_path / "zero2.json", np.zeros((2, 2)))
    write_matrix(tmp_path / "eye2.json", np.eye(2))
    write_matrix(tmp_path / "diag10.json", np.diag([1.0, 0.0]))
    write_matrix(tmp_path / "diag01.json", np.diag([0.0, 1.0]))
    write_matrix(tmp_path / "diag41.json", np.diag([4.0, 1.0]))
    (tmp_path / "phi.json").write_text(
        dumps(
            {
                "T": matrix_to_dict(np.sqrt(2.0) * np.eye(2, dtype=np.complex128)),
                "conjugate": False,
                "X": matrix_to_dict(np.eye(2, dtype=np.complex128)),
            }
        )
        + "\n"
    )
    bad = []

    def expect(name, argv, golden, code_want, normalize=None):
        code, out = _run_cli_capture(argv)
        if code != code_want:
            bad.append(f"{name}: exit {code} != {code_want}")
            return
        if normalize is not None:
            out = normalize(out)
        if out != (GOLDEN / golden).read_text():
            bad.append(f"{name}: output differs from {golden}")

    expect("order", ["order", str(tmp_path / "zero2.json"), str(tmp_path / "eye2.json")],
           "order_leq.json", 0)
    expect("order-incomparable",
           ["order", str(tmp_path / "diag10.json"), str(tmp_path / "diag01.json")],
           "order_incomparable.json", 1)
    expect("lambda-max", ["lambda-max", str(tmp_path / "diag41.json"), "[[1,0],[0,0]]"],
           "lambda_max.json", 0)
    expect("rank-order", ["rank-order", str(tmp_path / "eye2.json"), "--n", "1"],
           "rank_order_boundary.json", 0)
    expect("reconstruct-identity",
           ["reconstruct", "--oracle", IDENTITY_ORACLE, "--dim", "3", "--seed", "0"],
           "reconstruct_identity.json", 0)
    expect("reconstruct-affine",
           ["reconstruct", "--oracle", AFFINE_ORACLE, "--dim", "2", "--seed", "0"],
           "reconstruct_affine.json", 0)
    code, _ = _run_cli_capture(["reconstruct", "--oracle", CUBE_ORACLE, "--dim", "2"])
    if code != 3:
        bad.append(f"reconstruct-cube: exit {code} != 3")
    expect("preserver", ["preserver", str(tmp_path / "phi.json"), "--kind", "commutativity"],
           "preserver_scaled.json", 0)

    def drop_elapsed(out):
        payload = json.loads(out)
        payload["elapsed_ms"] = 0
        return dumps(payload) + "\n"

    expect("verify", ["verify", "lemma-rng", "--dims", "2,3", "--trials", "3", "--seed", "0"],
           "verify_lemma_rng.json", 0, normalize=drop_elapsed)
    _report(10, "command-line contract (golden files)", not bad, "; ".join(bad))
