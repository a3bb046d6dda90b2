import base64
import json
import sys
import types

import numpy as np
import pytest

from obsorder import (
    OracleHandle,
    OracleNotAutomorphicError,
    OrderAutomorphism,
    SubprocessOracle,
    TransportFailureError,
    ValidationError,
    apply,
    check_order_automorphism,
    compose,
    from_automorphism,
    identity_automorphism,
    invert,
    leq,
    reconstruct,
)
from obsorder import oracle as oracle_module
from obsorder.harness import _gauge_distance
from obsorder.io import complex_matrix_from_dict, hermitian_from_dict, matrix_to_c128le
from conftest import random_hermitian, random_invertible, random_psd


def random_automorphism(rng, d, conjugate=None):
    t = random_invertible(rng, d)
    if conjugate is None:
        conjugate = bool(rng.integers(0, 2))
    return OrderAutomorphism.create(t, conjugate=conjugate, x=random_hermitian(rng, d))


class TestConstruction:
    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            OrderAutomorphism.create(np.diag([1.0, 0.0]))

    def test_x_defaults_to_zero(self):
        phi = OrderAutomorphism.create(np.eye(3))
        np.testing.assert_array_equal(phi.X.mat, np.zeros((3, 3)))


class TestApply:
    def test_identity(self, rng):
        a = random_hermitian(rng, 3)
        np.testing.assert_allclose(apply(identity_automorphism(3), a).mat, a, atol=1e-14)

    def test_affine_scalar(self):
        phi = OrderAutomorphism.create(np.sqrt(2.0) * np.eye(2), x=np.eye(2))
        np.testing.assert_allclose(apply(phi, np.eye(2)).mat, 3.0 * np.eye(2), atol=1e-12)

    def test_preserves_order(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            phi = random_automorphism(rng, d)
            a = random_hermitian(rng, d)
            b = a + random_psd(rng, d)
            assert leq(apply(phi, a), apply(phi, b))

    def test_conjugate_branch(self, rng):
        phi = OrderAutomorphism.create(np.eye(2), conjugate=True)
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        np.testing.assert_allclose(apply(phi, a).mat, a.conj(), atol=1e-14)


    def test_single_symmetrization_is_bit_identical(self, rng):
        # apply symmetrizes T A T* + X once; a second (M + M*)/2 pass, which
        # it used to make, must not change a single bit
        for d in (2, 7, 64):
            phi = random_automorphism(rng, d, conjugate=bool(d % 2))
            a = random_hermitian(rng, d)
            arr = a.conj() if phi.conjugate else a
            out = phi.T @ arr @ phi.T.conj().T + phi.X.mat
            once = (out + out.conj().T) / 2.0
            twice = (once + once.conj().T) / 2.0
            got = apply(phi, a).mat
            np.testing.assert_array_equal(got, once)
            np.testing.assert_array_equal(got, twice)


class TestComposeInvert:
    def test_identity_composition(self):
        e = identity_automorphism(3)
        c = compose(e, e)
        np.testing.assert_allclose(c.T, np.eye(3))
        assert not c.conjugate

    def test_conjugate_flag_xor(self, rng):
        phi = random_automorphism(rng, 3, conjugate=True)
        assert not compose(phi, phi).conjugate
        assert compose(phi, random_automorphism(rng, 3, conjugate=False)).conjugate

    def test_composition_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            f = random_automorphism(rng, d)
            g = random_automorphism(rng, d)
            fg = compose(f, g)
            for _ in range(5):
                a = random_hermitian(rng, d)
                lhs = apply(fg, a).mat
                rhs = apply(f, apply(g, a)).mat
                assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(1.0, np.linalg.norm(rhs, 2))

    def test_invert_scalar(self):
        phi = OrderAutomorphism.create(2.0 * np.eye(2))
        np.testing.assert_allclose(invert(phi).T, 0.5 * np.eye(2), atol=1e-14)

    def test_round_trip(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            phi = random_automorphism(rng, d)
            both = compose(phi, invert(phi))
            for _ in range(5):
                a = random_hermitian(rng, d)
                out = apply(both, a).mat
                assert np.linalg.norm(out - a, 2) <= 1e-9 * max(1.0, np.linalg.norm(a, 2))


class TestReconstruct:
    def test_identity_oracle(self):
        report = reconstruct(from_automorphism(identity_automorphism(3)))
        np.testing.assert_allclose(report.recovered.T, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(report.recovered.X.mat, np.zeros((3, 3)), atol=1e-12)
        assert not report.recovered.conjugate

    def test_affine_oracle(self):
        handle = OracleHandle(lambda a: 2.0 * a + np.eye(2), 2)
        report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(report.recovered.X.mat, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_round_trip_random(self, rng, d):
        for _ in range(20):
            phi = random_automorphism(rng, d)
            report = reconstruct(from_automorphism(phi), seed=int(rng.integers(2**31)))
            assert _gauge_distance(report.recovered.T, phi.T) <= 1e-6
            assert np.max(np.abs(report.recovered.X.mat - phi.X.mat)) <= 1e-8
            assert report.recovered.conjugate == phi.conjugate or report.conjugate_degenerate
            assert report.max_residual <= 1e-6

    def test_gauge_invariance(self, rng):
        phi = random_automorphism(rng, 3)
        theta = np.exp(1j * 0.7)
        phased = OrderAutomorphism.create(theta * phi.T, conjugate=phi.conjugate, x=phi.X)
        r1 = reconstruct(from_automorphism(phi), seed=5)
        r2 = reconstruct(from_automorphism(phased), seed=5)
        np.testing.assert_allclose(r1.recovered.T, r2.recovered.T, atol=1e-9)
        assert r1.recovered.conjugate == r2.recovered.conjugate

    def test_probe_economy(self, rng):
        for d in (2, 3, 5):
            phi = random_automorphism(rng, d)
            handle = from_automorphism(phi)
            report = reconstruct(handle)
            assert report.probes_used <= d + (d - 1) + 1 + 1 + 20
            assert handle.calls == report.probes_used

    def test_rejects_non_automorphic_cube(self):
        handle = OracleHandle(lambda a: a @ a @ a, 3)
        with pytest.raises(OracleNotAutomorphicError):
            reconstruct(handle)

    def test_rejects_rank_breaking_map(self):
        handle = OracleHandle(lambda a: np.trace(a).real * np.eye(2) / 2, 2)
        with pytest.raises(OracleNotAutomorphicError):
            reconstruct(handle)

    def test_psi_additivity_consequence(self, rng):
        # images of PSD probes under psi = phi - phi(0) add up
        phi = random_automorphism(rng, 4)
        x = phi.X.mat
        for _ in range(20):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4)
            lhs = apply(phi, a + b).mat - x
            rhs = (apply(phi, a).mat - x) + (apply(phi, b).mat - x)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * max(1.0, np.linalg.norm(lhs, 2))


class TestOrderCheck:
    def test_identity_clean(self):
        report = check_order_automorphism(from_automorphism(identity_automorphism(3)), trials=200)
        assert report.passed

    def test_negation_flagged(self):
        handle = OracleHandle(lambda a: -a, 3)
        report = check_order_automorphism(handle, trials=50)
        assert not report.passed

    def test_random_automorphism_clean(self, rng):
        phi = random_automorphism(rng, 3)
        report = check_order_automorphism(from_automorphism(phi), trials=200, seed=3)
        assert report.passed


class TestSubprocessOracle:
    def test_identity_child(self):
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.identity"]
        with SubprocessOracle(cmd, 3) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.eye(3), atol=1e-10)

    def test_affine_child(self):
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.affine"]
        with SubprocessOracle(cmd, 2) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(report.recovered.X.mat, np.eye(2), atol=1e-12)

    def test_cube_child_not_automorphic(self):
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.cube"]
        with SubprocessOracle(cmd, 2) as handle:
            with pytest.raises(OracleNotAutomorphicError):
                reconstruct(handle)

    def test_dead_child_is_transport_failure(self):
        cmd = [sys.executable, "-c", "import sys; sys.exit(0)"]
        with SubprocessOracle(cmd, 2) as handle:
            with pytest.raises(TransportFailureError):
                handle.query(np.zeros((2, 2)))

    def test_out_of_order_id_is_protocol_error(self):
        script = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    req['id'] += 1\n"
            "    sys.stdout.write(json.dumps(req) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with SubprocessOracle([sys.executable, "-c", script], 2) as handle:
            with pytest.raises(TransportFailureError):
                handle.query(np.zeros((2, 2)))

    def test_decimal_only_child(self):
        # plain-json child serving A -> 2A + I; a c128le request has no
        # 'entries', so it would kill the child
        script = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    rows = req['matrix']['entries']\n"
            "    out = [[[2 * re + (i == j), 2 * im] for j, (re, im) in enumerate(row)]\n"
            "           for i, row in enumerate(rows)]\n"
            "    resp = {'id': req['id'], 'matrix': {'dim': len(rows), 'entries': out}}\n"
            "    sys.stdout.write(json.dumps(resp) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with SubprocessOracle([sys.executable, "-c", script], 2) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(report.recovered.X.mat, np.eye(2), atol=1e-12)

    def test_demo_child_switches_to_c128le(self, monkeypatch):
        sent = []

        def dumps(obj):
            sent.append(obj)
            return json.dumps(obj)

        monkeypatch.setattr(oracle_module, "json", types.SimpleNamespace(
            dumps=dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError))
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.affine"]
        with SubprocessOracle(cmd, 3) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(3), atol=1e-10)
        first, rest = sent[0], sent[1:]
        assert "entries" in first["matrix"] and first["accept"] == ["c128le"]
        assert rest and all("c128le" in f["matrix"] and "accept" not in f for f in rest)

    def test_non_object_response_is_protocol_error(self):
        script = "import sys; sys.stdin.readline(); print('[1]', flush=True); sys.stdin.readline()"
        with SubprocessOracle([sys.executable, "-c", script], 2) as handle:
            with pytest.raises(TransportFailureError, match="not a JSON object"):
                handle.query(np.zeros((2, 2)))

    def test_exit_status_is_reported(self):
        cmd = [sys.executable, "-c", "import sys; sys.stdin.readline(); sys.exit(3)"]
        with SubprocessOracle(cmd, 2) as handle:
            with pytest.raises(TransportFailureError, match="exit status 3"):
                handle.query(np.zeros((2, 2)))


class TestC128le:
    def test_round_trip_bit_exact(self, rng):
        special = np.array([[-0.0 + 5e-324j, 1e300 - 1e300j],
                            [-1e300 + 0.0j, -5e-324 - 0.0j]])
        for m in [special, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))]:
            back = complex_matrix_from_dict(matrix_to_c128le(m))
            assert back.tobytes() == m.tobytes()

    def test_payload_size(self):
        obj = matrix_to_c128le(np.eye(64))
        assert obj["dim"] == 64 and len(base64.b64decode(obj["c128le"])) == 16 * 64 * 64

    def test_hermitian_round_trip(self, rng):
        h = random_hermitian(rng, 4)
        np.testing.assert_array_equal(hermitian_from_dict(matrix_to_c128le(h)).mat, h)

    @staticmethod
    def _payload(values) -> str:
        return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode()

    @pytest.mark.parametrize("case", [
        "bad_base64", "bad_padding", "short", "long", "dim_zero", "dim_65", "nan", "inf",
        "asymmetric", "not_a_string", "both_forms",
    ])
    def test_rejected(self, case):
        eye = self._payload(np.eye(2))
        nan = np.eye(2, dtype=np.complex128)
        nan.view(np.uint64)[0, 0] = 0x7FF8000000000001  # a NaN bit pattern in A[0, 0].real
        obj = {
            "bad_base64": {"dim": 2, "c128le": eye[:8] + "*" + eye[8:]},
            "bad_padding": {"dim": 2, "c128le": eye.rstrip("=") + "="},
            "short": {"dim": 2, "c128le": self._payload(np.ones(3))},
            "long": {"dim": 2, "c128le": self._payload(np.ones(5))},
            "dim_zero": {"dim": 0, "c128le": ""},
            "dim_65": {"dim": 65, "c128le": self._payload(np.eye(65))},
            "nan": {"dim": 2, "c128le": self._payload(nan)},
            "inf": {"dim": 2, "c128le": self._payload([[np.inf, 0], [0, 1]])},
            "asymmetric": {"dim": 2, "c128le": self._payload([[1, 1], [0, 1]])},
            "not_a_string": {"dim": 2, "c128le": [1, 2]},
            "both_forms": {"dim": 2, "c128le": eye, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        }[case]
        with pytest.raises(ValidationError):
            hermitian_from_dict(obj)
        if case != "asymmetric":
            with pytest.raises(ValidationError):
                complex_matrix_from_dict(obj)
