import base64
import io
import json
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from obsorder import (
    HermitianMatrix,
    OracleHandle,
    OracleNotAutomorphicError,
    OrderAutomorphism,
    Relation,
    SubprocessOracle,
    TransportFailureError,
    ValidationError,
    apply,
    check_order_automorphism,
    compose,
    from_automorphism,
    invert,
    leq,
    reconstruct,
)
from obsorder import automorphism as automorphism_module
from obsorder import loewner
from obsorder import oracle as oracle_module
from obsorder.automorphism import (
    VALIDATION_PROBES,
    _basis_columns,
    _conjugation_probe,
    _fit,
    _pencil_columns,
    gauge_distance,
)
from obsorder.cli import main
from obsorder.demo_oracles import serve
from obsorder.generators import (
    random_hermitian,
    random_hermitians,
    random_invertible,
    random_psd,
    random_uniform,
    random_unitary,
)
from obsorder.hermitian import _hermitian_stack, herm_array, rank_one, symmetrize
from obsorder.io import (
    complex_matrix_from_dict,
    hermitian_from_dict,
    matrix_frame_from_dict,
    matrix_to_dict,
    read_stack,
    stack_frame,
    stack_shape,
    vector_from_list,
)
from obsorder.tolerances import DEFAULT_TOLERANCES


def random_automorphism(rng, d, conjugate=None):
    t = random_invertible(rng, d)
    if conjugate is None:
        conjugate = bool(rng.integers(0, 2))
    return OrderAutomorphism.create(t, conjugate=conjugate, x=random_hermitian(rng, d))


class TestConstruction:
    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            OrderAutomorphism.create(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "t", [np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0]), np.zeros((0, 0))],
        ids=["inf", "nan", "empty"],
    )
    def test_rejects_invalid_t(self, t):
        with pytest.raises(ValidationError):
            OrderAutomorphism.create(t)

    def test_callers_t_stays_writable(self):
        t = np.eye(2, dtype=complex)
        phi = OrderAutomorphism.create(t)
        t[0, 0] = 2.0
        assert phi.T[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            phi.T[0, 0] = 3.0

    def test_x_defaults_to_zero(self):
        phi = OrderAutomorphism.create(np.eye(3))
        np.testing.assert_array_equal(phi.X.mat, np.zeros((3, 3)))


class TestApply:
    def test_identity(self, rng):
        a = random_hermitian(rng, 3)
        np.testing.assert_allclose(apply(OrderAutomorphism.create(np.eye(3)), a).mat, a, atol=1e-14)

    def test_affine_scalar(self):
        phi = OrderAutomorphism.create(np.sqrt(2.0) * np.eye(2), x=np.eye(2))
        np.testing.assert_allclose(apply(phi, np.eye(2)).mat, 3.0 * np.eye(2), atol=1e-12)

    def test_preserves_order(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            phi = random_automorphism(rng, d)
            a = random_hermitian(rng, d)
            b = a + random_psd(rng, d, d)
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

    def test_entries_above_half_the_float_range(self):
        # T A T* + X overflows nowhere, and neither does its (M + M*)/2
        m = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.0]])
        np.testing.assert_array_equal(apply(OrderAutomorphism.create(np.eye(2)), m).mat, m)

    def test_product_asymmetric_from_rounding(self, rng):
        # X cancels T A T* up to its rounding, which from_array would reject
        # as asymmetry; apply takes the Hermitian part of the product
        t, a = 1e4 * random_invertible(rng, 3), random_hermitian(rng, 3)
        phi = OrderAutomorphism.create(t, x=-symmetrize(t @ a @ t.conj().T))
        product = phi.T @ a @ phi.T.conj().T + phi.X.mat
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix.from_array(product)
        np.testing.assert_array_equal(apply(phi, a).mat, symmetrize(product))

    def test_overflowing_product_rejected(self):
        phi = OrderAutomorphism.create(1e200 * np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValidationError, match="finite"
        ):
            apply(phi, np.eye(2))

    def test_wraps_a_raw_operand_once(self, rng, from_array_args):
        phi = random_automorphism(rng, 3)
        a = random_hermitian(rng, 3)
        from_array_args.clear()
        image = apply(phi, a)
        assert len(from_array_args) == 1 and from_array_args[0] is a
        from_array_args.clear()
        apply(phi, image)
        assert from_array_args == []


class TestComposeInvert:
    def test_identity_composition(self):
        e = OrderAutomorphism.create(np.eye(3))
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


class RecordingOracle(OracleHandle):
    """The in-process oracle of ``phi``, keeping every probe and image."""

    def __init__(self, phi):
        super().__init__(self._record, phi.dim)
        self._phi = phi
        self.probes, self.images = [], []

    def _record(self, a):
        image = apply(self._phi, a).mat
        self.probes.append(np.array(a))
        self.images.append(image)
        return image


class TestReconstruct:
    def test_identity_oracle(self):
        report = reconstruct(from_automorphism(OrderAutomorphism.create(np.eye(3))))
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
            assert gauge_distance(report.recovered.T, phi.T) <= 1e-6
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
        # the pencil read at every d >= 2
        for d in (2, 3, 5, 64):
            phi = random_automorphism(rng, d)
            handle = from_automorphism(phi)
            report = reconstruct(handle)
            assert report.probes_used == handle.calls == 25

    def test_first_probes_are_zero_identity_and_d(self, rng):
        handle = RecordingOracle(random_automorphism(rng, 2))
        reconstruct(handle)
        assert [a.tolist() for a in handle.probes[:3]] == [
            np.zeros((2, 2)).tolist(), np.eye(2).tolist(), np.diag([1.0, 2.0]).tolist()]

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
    def test_validation_blocks_match_the_probe_loop(self, rng, d, conjugate):
        # the probes sent are the per-probe draws, and max_residual is the
        # per-probe loop's, bit for bit, whatever the block size at this d
        phi = random_automorphism(rng, d, conjugate)
        handle = RecordingOracle(phi)
        report = reconstruct(handle, seed=9)
        assert report.recovered.conjugate == conjugate
        draws = np.random.default_rng(9)
        checks = [random_hermitian(draws, d) for _ in range(VALIDATION_PROBES)]
        # zero, I, D, all-ones, conjugation
        sent = handle.probes[5:5 + VALIDATION_PROBES]
        assert [a.tobytes() for a in sent] == [a.tobytes() for a in checks]
        t, x = report.recovered.T, handle.images[0]
        residuals = []
        for a, got in zip(checks, handle.images[5:]):
            want = symmetrize(t @ (a.conj() if conjugate else a) @ t.conj().T + x)
            denom = max(1.0, float(np.max(np.abs(got))))
            residuals.append(float(np.max(np.abs(got - want))) / denom)
        assert report.max_residual == max(residuals)

    @pytest.mark.parametrize("d", [2, 32, 64])
    def test_validation_probes_are_the_per_block_draws(self, rng, d):
        # one draw of all the probes, split into blocks, sends the bytes of
        # one draw per block of frame_capacity(d) probes
        handle = RecordingOracle(random_automorphism(rng, d))
        reconstruct(handle, seed=5)
        draws = np.random.default_rng(5)
        size = oracle_module.frame_capacity(d)
        blocks = [random_hermitians(draws, min(size, VALIDATION_PROBES - k), d)
                  for k in range(0, VALIDATION_PROBES, size)]
        sent = handle.probes[5:5 + VALIDATION_PROBES]
        assert b"".join(a.tobytes() for a in sent) == b"".join(b.tobytes() for b in blocks)

    def test_validation_probe_draw_peak(self):
        # reconstruct at d = 64 holds the 20 validation probes (1.3 MB) and
        # their images. Drawn into one stack in place, the probes peak the
        # call at 4.0 MB of allocations in blocks of one probe, and at 4.7 MB
        # in blocks of 4; with the uniform draw and three complex stacks
        # alive at once the peak was 6.7 MB in blocks of one. Sent as
        # wrappers, unchecked, wrapped as the oracle takes them and freed
        # once answered, with the draw made in blocks, the call peaks at
        # 4.61 MB; holding the plan's wrappers until the fit read 4.84 MB
        phi = random_automorphism(np.random.default_rng(3), 64)
        handle = from_automorphism(phi)
        reconstruct(handle, seed=5)  # imports and first-call set-up
        tracemalloc.start()
        try:
            reconstruct(handle, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0e6

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_pencil_and_basis_reads_agree(self, rng, d, conjugate):
        # the two reads of T's columns, each through the all-ones phase fix
        # of _fit, on the images of one well-conditioned map
        phi = random_automorphism(rng, d, conjugate)
        x = phi.X.mat

        def image(m):
            return apply(phi, m).mat

        pencil = _pencil_columns(image(np.eye(d)) - x, image(np.diag(np.arange(1.0, d + 1))) - x)
        basis = _basis_columns(iter([image(rank_one(e, e)) for e in np.eye(d)]), x)
        v = np.ones(d) / np.sqrt(d)
        checks = random_hermitians(rng, 4, d)
        tail = [image(rank_one(v, v)), image(_conjugation_probe(d)), *map(image, checks)]
        fitted = [_fit(cols, x, iter(tail), [checks], DEFAULT_TOLERANCES)[0]
                  for cols in (pencil, basis)]
        assert all(f.conjugate is conjugate for f in fitted)
        assert gauge_distance(fitted[0].T, fitted[1].T) <= 1e-6

    @pytest.mark.parametrize("d, slot", [(32, 0), (32, 3), (32, 4), (32, 19), (2, 0), (2, 19)])
    def test_wrong_validation_image_at_a_block_edge(self, rng, d, slot):
        # blocks of 4 at d = 32, one block of 20 at d = 2
        phi = random_automorphism(rng, d)
        draws = np.random.default_rng(0)
        target = [random_hermitian(draws, d) for _ in range(VALIDATION_PROBES)][slot]

        def fn(a):
            image = apply(phi, a).mat
            if np.array_equal(a, target):
                image = image + 1e-2 * max(1.0, np.max(np.abs(image))) * np.eye(d)
            return image

        handle = OracleHandle(fn, d)
        with pytest.raises(OracleNotAutomorphicError, match="validation residual .* exceeds"):
            reconstruct(handle)
        # the whole first stream, then the basis projectors
        assert handle.calls == 25 + d

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_finite_validation_residual_is_rejected(self, d):
        # T K(A) T* overflows on the second block's probe, while every image
        # is finite: the NaN or inf residual fails the fit, as an
        # OracleNotAutomorphicError, which is what sends reconstruct to the
        # basis read. No oracle reaches this: images of probes with entries
        # at most 1 are as large as psi(I), which must be finite.
        t = 100.0 * np.eye(d, dtype=np.complex128)
        x = np.zeros((d, d), dtype=np.complex128)
        v = np.ones(d) / np.sqrt(d)
        pw = np.zeros((d, d), dtype=np.complex128)
        pw[:2, :2] = [[0.5, -0.5j], [0.5j, 0.5]]
        good, huge = np.eye(d)[None], np.full((1, d, d), 1e307)
        images = iter([t @ np.outer(v, v) @ t, t @ pw @ t, t @ good[0] @ t, np.zeros((d, d))])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            OracleNotAutomorphicError, match="validation residual (nan|inf) exceeds"
        ):
            _fit(t, x, images, [good, huge], DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("d", [2, 8])
    def test_ill_conditioned_map_falls_back_to_the_basis_read(self, rng, d):
        # cond(psi(I)) = cond(T)^2 = 1e10 is above the pencil's cap
        t = (random_unitary(rng, d) * np.geomspace(1.0, 1e-5, d)) @ random_unitary(rng, d)
        phi = OrderAutomorphism.create(t, x=random_hermitian(rng, d))
        report = reconstruct(from_automorphism(phi))
        assert report.probes_used == d + 25
        assert gauge_distance(report.recovered.T, t) <= 1e-6

    def test_pencil_columns_and_certificates(self, rng):
        d = 4
        t = random_invertible(rng, d)
        p, q = t @ t.conj().T, t @ np.diag(np.arange(1.0, d + 1)) @ t.conj().T
        cols = _pencil_columns(p, q)
        # each column is t's up to a unit phase
        phase = np.sum(t.conj() * cols, axis=0)
        np.testing.assert_allclose(cols, t * (phase / np.abs(phase)), atol=1e-9 * np.abs(t).max())
        with pytest.raises(OracleNotAutomorphicError, match="eigenvalues off"):
            _pencil_columns(p, q + 1e-3 * np.eye(d))
        thin = t * np.array([1.0, 1.0, 1.0, 1e-5])  # cond(TT*) ~ 1e10 or more
        with pytest.raises(OracleNotAutomorphicError, match="well-conditioned"):
            _pencil_columns(thin @ thin.conj().T, q)

    @pytest.mark.parametrize("fault", ["eigenvalues", "eigenvectors"])
    def test_wrong_image_of_d_is_recovered_by_the_basis_read(self, rng, fault):
        # phi everywhere except psi(D). A shift moves the pencil's eigenvalues
        # off 1, ..., d. A rotation R of e3, e4 keeps them, the column weights
        # (R* 1 = e^{-i s} 1 on that block) and the conjugation probe on e1,
        # e2, so only the validation residual sees it. Either way the basis
        # read, which never asks for D, recovers phi.
        d = 4
        phi = random_automorphism(rng, d)
        diag = np.diag(np.arange(1.0, d + 1))
        r = np.eye(d, dtype=np.complex128)
        r[2:, 2:] = [[np.cos(1e-3), 1j * np.sin(1e-3)], [1j * np.sin(1e-3), np.cos(1e-3)]]
        wrong = {"eigenvalues": apply(phi, diag).mat + 1e-3 * np.eye(d),
                 "eigenvectors": apply(phi, r @ diag @ r.conj().T).mat}[fault]

        def fn(a):
            return wrong if np.array_equal(a, diag) else apply(phi, a).mat

        report = reconstruct(OracleHandle(fn, d))
        assert report.probes_used == d + 25
        assert gauge_distance(report.recovered.T, phi.T) <= 1e-6
        assert report.max_residual <= 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_all_ones_image_of_wrong_weights(self, d):
        # the identity, except that the all-ones probe comes back as ww* with
        # |w_j| not all equal: no phase fix can make the columns sum to w, so
        # the pencil's column weights fail, and so do the fallback's
        v = np.ones(d) / np.sqrt(d)
        w = np.ones(d) / np.sqrt(d)
        w[1] *= 2.0

        def fn(a):
            return np.outer(w, w) if np.array_equal(a, np.outer(v, v)) else a

        handle = OracleHandle(fn, d)
        with pytest.raises(OracleNotAutomorphicError, match="all-ones probe"):
            reconstruct(handle)
        # the whole first stream, then the d basis projectors
        assert handle.calls == 25 + d

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_dependent_basis_images(self, d):
        # every basis projector maps to e1 e1*, so psi(I) = d e1 e1* is
        # singular: the pencil falls back, and the basis read finds the
        # dependent columns
        e1 = np.diag(np.eye(d)[0])
        handle = OracleHandle(lambda a: np.trace(a).real * e1, d)
        with pytest.raises(OracleNotAutomorphicError, match="linearly dependent"):
            reconstruct(handle)
        assert handle.calls == 25 + d

    def test_verify_thm2_at_large_dims(self, capsys):
        # the pencil read against thm2's 1e-6 gauge bound at d = 32 and 64
        assert main(["verify", "thm2", "--dims", "32,64", "--trials", "3"]) == 0
        capsys.readouterr()

    def test_verify_thm2_illcond_at_large_dims(self, capsys):
        # cond(T) up to 1e6 against the all-ones certificate at d = 32 and 64
        assert main(["verify", "thm2-illcond", "--dims", "32,64", "--trials", "2"]) == 0
        capsys.readouterr()

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
            a = random_psd(rng, 4, 4)
            b = random_psd(rng, 4, 4)
            lhs = apply(phi, a + b).mat - x
            rhs = (apply(phi, a).mat - x) + (apply(phi, b).mat - x)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * max(1.0, np.linalg.norm(lhs, 2))


def _eigh_relation(a, b, tol=DEFAULT_TOLERANCES):
    """compare's relation as it stood before the certificates: both ends of
    one eigh(B - A) through the spectral verdicts."""
    a, b = herm_array(a), herm_array(b)
    evals = np.linalg.eigh(b - a)[0]
    frob = loewner._frobenius_scale(a, b)
    ab, ba = loewner._psd_verdicts((float(evals[0]), -float(evals[-1])), a, b, frob, tol)
    if ab:
        return Relation.EQUAL if ba else Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _prior_check(oracle, trials, seed, tol=DEFAULT_TOLERANCES):
    """check_order_automorphism's violations by its loop as it stood before
    the certificates, copied: one pair at a time, each probe one query."""
    d = oracle.dim
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(trials):
        a = random_hermitian(rng, d)
        if k % 2 == 0:
            g = random_uniform(rng, d)
            b = a + g @ g.conj().T
        else:
            b = random_hermitian(rng, d)
        before = _eigh_relation(a, b, tol)
        after = _eigh_relation(oracle.query(a), oracle.query(b), tol)
        if before != after:
            violations.append({"trial": k, "before": before.value, "after": after.value})
    return violations


def _spectral_map(f, d) -> OracleHandle:
    """The oracle of A -> f(A), f applied to the eigenvalues."""
    def fn(a):
        evals, u = np.linalg.eigh(a)
        return (u * f(evals)) @ u.conj().T
    return OracleHandle(fn, d)


# genuine maps, the order reversal, and s arctan(A / s), monotone but not
# matrix monotone on all of the reals, at s = 1 and s = 10
ORDER_CHECK_MAPS = {
    "genuine": lambda phi, d: from_automorphism(phi),
    "reversal": lambda phi, d: OracleHandle(np.negative, d),
    "arctan-1": lambda phi, d: _spectral_map(np.arctan, d),
    "arctan-10": lambda phi, d: _spectral_map(lambda x: 10.0 * np.arctan(x / 10.0), d),
}


class TestOrderCheck:
    def test_identity_clean(self):
        report = check_order_automorphism(from_automorphism(OrderAutomorphism.create(np.eye(3))), trials=200)
        assert report.passed

    def test_negation_flagged(self):
        handle = OracleHandle(lambda a: -a, 3)
        report = check_order_automorphism(handle, trials=50)
        assert not report.passed

    def test_random_automorphism_clean(self, rng):
        phi = random_automorphism(rng, 3)
        report = check_order_automorphism(from_automorphism(phi), trials=200, seed=3)
        assert report.passed

    @pytest.mark.parametrize("trials", [0, -4])
    def test_needs_a_trial(self, trials):
        # no trial would pass an order-reversing map
        with pytest.raises(ValidationError, match="at least one trial"):
            check_order_automorphism(OracleHandle(np.negative, 3), trials=trials)

    @pytest.mark.parametrize("name", sorted(ORDER_CHECK_MAPS))
    @pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
    def test_violations_are_the_pair_loops(self, rng, d, name):
        found = 0
        for seed in range(4):
            phi = random_automorphism(rng, d)
            make = ORDER_CHECK_MAPS[name]
            report = check_order_automorphism(make(phi, d), trials=12, seed=seed)
            assert report.violations == _prior_check(make(phi, d), 12, seed)
            found += len(report.violations)
        if name == "genuine":
            assert found == 0
        if name == "reversal":
            assert found > 0

    @pytest.mark.parametrize("fault", ["nan", "shape", "raise"])
    def test_failing_oracle_fails_as_before(self, fault):
        def make():
            count = [0]

            def fn(a):
                count[0] += 1
                if count[0] < 5:
                    return -a
                if fault == "nan":
                    return np.full_like(a, np.nan)
                if fault == "shape":
                    return np.zeros((3, 3))
                raise RuntimeError("oracle crashed on probe 5")

            return OracleHandle(fn, 2)

        outcomes = []
        for run in (lambda h: check_order_automorphism(h, trials=10, seed=1),
                    lambda h: _prior_check(h, 10, 1)):
            with pytest.raises(Exception) as info:
                run(make())
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1]

    def test_user_handle_takes_each_probe_as_it_is_drawn(self, monkeypatch):
        log = []

        def drawing(fn):
            def wrapper(rng, d):
                log.append("draw")
                return fn(rng, d)
            return wrapper

        for name in ("random_hermitian", "random_uniform"):
            monkeypatch.setattr(automorphism_module, name,
                                drawing(getattr(automorphism_module, name)))

        def fn(a):
            log.append("query")
            return -a

        check_order_automorphism(OracleHandle(fn, 2), trials=4)
        assert log == ["draw", "draw", "query", "query"] * 4


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

    def test_non_hermitian_probe_leaves_the_child_serving(self):
        # the probe is checked before it is sent, in single and stack frames
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.affine"]
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with SubprocessOracle(cmd, 2) as handle:
            with pytest.raises(ValidationError, match="not Hermitian"):
                handle.query(bad)
            np.testing.assert_array_equal(handle.query(np.eye(2)), 3.0 * np.eye(2))
            images = handle.query_many([np.eye(2), bad])
            np.testing.assert_array_equal(next(images), 3.0 * np.eye(2))
            with pytest.raises(ValidationError, match="not Hermitian"):
                next(images)
            np.testing.assert_array_equal(handle.query(np.zeros((2, 2))), np.eye(2))
            assert handle._proc.poll() is None

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, np.True_, "2", 0, 65])
    def test_bad_dim_is_rejected_before_any_child_starts(self, dim):
        # a launched child would fail as a TransportFailureError
        with pytest.raises(ValidationError, match="oracle dimension must be an integer"):
            OracleHandle(np.negative, dim)
        with pytest.raises(ValidationError, match="oracle dimension must be an integer"):
            SubprocessOracle(["/nonexistent/oracle"], dim)

    @pytest.mark.parametrize("dim", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_dim(self, dim):
        assert type(OracleHandle(np.negative, dim).dim) is int
        cmd = [sys.executable, "-m", "obsorder.demo_oracles.affine"]
        with SubprocessOracle(cmd, dim) as handle:
            np.testing.assert_array_equal(handle.query(np.eye(2)), 3.0 * np.eye(2))
            assert len(list(handle.query_many([np.eye(2)] * 3))) == 3

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
        # plain-json child serving A -> 2A + I that ignores 'accept'
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

    def test_demo_child_switches_to_raw_stacks(self, monkeypatch):
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
        assert "entries" in first["matrix"] and first["accept"] == ["raw-stack"]
        # the demo child offers raw stacks, so every later frame is binary
        assert rest and all(f["matrix"].keys() == {"dim", "count", "bytes"} and "accept" not in f
                            for f in rest)

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


def record_frames(monkeypatch) -> list:
    """Every request object the oracle transport serializes from now on."""
    sent = []

    def dumps(obj):
        sent.append(obj)
        return json.dumps(obj)

    monkeypatch.setattr(oracle_module, "json", types.SimpleNamespace(
        dumps=dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError))
    return sent


AFFINE_CHILD = [sys.executable, "-m", "obsorder.demo_oracles.affine"]

# A -> 2A + I in decimal, offering under "accept" what follows the program
# name, up to the dimension: nothing, or tokens other than "raw-stack"
DECIMAL_CHILD = (
    "import sys, json\n"
    "import numpy as np\n"
    "from obsorder.io import hermitian_from_dict, matrix_to_dict\n"
    "offer = sys.argv[1:-1]\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    a = hermitian_from_dict(req['matrix']).mat\n"
    "    resp = {'id': req['id'], 'matrix': matrix_to_dict(2 * a + np.eye(len(a)))}\n"
    "    if offer and 'accept' in req:\n"
    "        resp['accept'] = offer\n"
    "    print(json.dumps(resp), flush=True)\n"
)

# identity oracle that answers the first request correctly (offering
# "raw-stack" when sys.argv[2] is "stack") and then spoils the reply that
# carries probe 2 (or probe sys.argv[3], when given before the dimension)
# counted from the second request, in the way sys.argv[1] names; after a
# stack payload cut short it ends its output
BAD_REPLY_CHILD = (
    "import sys, json\n"
    "import numpy as np\n"
    "from obsorder.io import hermitian_from_dict, matrix_to_dict, read_stack,"
    " stack_frame, stack_shape\n"
    "mode, raw = sys.argv[1], sys.argv[2] == 'stack'\n"
    "target = int(sys.argv[3]) if len(sys.argv) > 4 else 2\n"
    "stdin, stdout = sys.stdin.buffer, sys.stdout.buffer\n"
    "seen = -1  # probes answered after the first request\n"
    "for line in stdin:\n"
    "    req = json.loads(line)\n"
    "    m, k = req['matrix'], req['id']\n"
    "    if 'count' in m:\n"
    "        n, d = stack_shape(m)\n"
    "        stack = read_stack(stdin.readinto, n, d)\n"
    "    else:\n"
    "        stack = np.array([hermitian_from_dict(m).mat])\n"
    "    slot, seen = target - seen, seen + len(stack)\n"
    "    fault = mode if 0 <= slot < len(stack) else None\n"
    "    if fault == 'non_hermitian':\n"
    "        stack[slot, 0, 1] += 1.0\n"
    "    if fault == 'slightly_asymmetric':  # caught by the decode check alone\n"
    "        stack[slot, 0, 1] += 1e-10\n"
    "    if fault == 'non_finite':\n"
    "        stack[slot, 0, 0] = np.nan\n"
    "    if fault == 'too_few':\n"
    "        stack = stack[:-1]\n"
    "    if fault == 'dim':  # images of the next dimension up\n"
    "        stack = np.zeros((len(stack), len(stack[0]) + 1, len(stack[0]) + 1))\n"
    "    if 'count' in m:\n"
    "        out, payload = stack_frame(stack)\n"
    "    else:\n"
    "        payload, out = b'', matrix_to_dict(stack[0])\n"
    "    resp = {'id': k + (fault == 'id'), 'matrix': out}\n"
    "    if fault == 'count':  # a count that does not match the payload\n"
    "        out['count'] = len(stack) + 1\n"
    "    if fault == 'bytes':  # a byte count that does not match the payload\n"
    "        out['bytes'] = len(payload) + 16\n"
    "    if fault == 'short' and payload:\n"
    "        payload = payload[:-8]\n"
    "    elif fault == 'short':  # a row short\n"
    "        out['entries'] = out['entries'][:-1]\n"
    "    if fault == 'grid':  # an entry that is not a number pair\n"
    "        out['entries'][0][0] = ['x', 0]\n"
    "    if fault == 'digit_string':  # [re, im] as a string of two digits\n"
    "        out['entries'][0][0] = '20'\n"
    "    if fault == 'int_past_float_range':\n"
    "        out['entries'][0][0] = [10 ** 400, 0]\n"
    "    if fault == 'dim_bool':\n"
    "        out['dim'] = True\n"
    "    if fault == 'no_matrix':\n"
    "        del resp['matrix']\n"
    "    if k == 0 and raw:\n"
    "        resp['accept'] = ['raw-stack']\n"
    "    stdout.write((json.dumps(resp) + '\\n').encode() + payload)\n"
    "    stdout.flush()\n"
    "    if fault == 'short' and payload:\n"
    "        break\n"
)

# A -> 2A offering raw stacks, that reads its stdin 4 KiB at a time with
# os.read; with sys.argv[1] == "stall" it takes the header line of the first
# stack frame (with the rest of that 4 KiB read) and then sleeps 60 s, or,
# with "stall-reply", answers that frame with its header and half its
# payload and then sleeps
SMALL_READS_CHILD = (
    "import json, os, sys, time\n"
    "from obsorder.io import hermitian_from_dict, matrix_to_dict, read_stack,"
    " stack_frame, stack_shape\n"
    "mode = sys.argv[1] if len(sys.argv) > 2 else ''\n"
    "stdout, pending = sys.stdout.buffer, b''\n"
    "def readinto(view):  # what a line read left over, else one 4 KiB read\n"
    "    global pending\n"
    "    pending = pending or os.read(0, 4096)\n"
    "    k = min(len(view), len(pending))\n"
    "    view[:k], pending = pending[:k], pending[k:]\n"
    "    return k\n"
    "def readline():\n"
    "    global pending\n"
    "    while b'\\n' not in pending:\n"
    "        chunk = os.read(0, 4096)\n"
    "        if not chunk:\n"
    "            sys.exit(0)\n"
    "        pending += chunk\n"
    "    line, _, pending = pending.partition(b'\\n')\n"
    "    return line\n"
    "while True:\n"
    "    req = json.loads(readline())\n"
    "    m = req['matrix']\n"
    "    if 'count' not in m:\n"
    "        out, payload = matrix_to_dict(2 * hermitian_from_dict(m).mat), b''\n"
    "    elif mode == 'stall':\n"
    "        time.sleep(60)\n"
    "    else:\n"
    "        out, payload = stack_frame(2 * read_stack(readinto, *stack_shape(m)))\n"
    "    resp = {'id': req['id'], 'matrix': out, 'accept': ['raw-stack']}\n"
    "    if payload and mode == 'stall-reply':\n"
    "        payload = payload[: len(payload) // 2]\n"
    "    stdout.write((json.dumps(resp) + '\\n').encode())\n"
    "    stdout.write(payload)\n"
    "    stdout.flush()\n"
    "    if payload and mode == 'stall-reply':\n"
    "        time.sleep(60)\n"
)

# every fault of a single JSON frame, and each of a stack frame: only a
# stack's header carries a byte count, and only a single frame a grid
BAD_REPLIES = [
    (mode, error, frames)
    for mode, error in [
        ("count", TransportFailureError),
        ("short", TransportFailureError),
        ("no_matrix", TransportFailureError),
        ("id", TransportFailureError),
        ("bytes", TransportFailureError),
        ("dim", TransportFailureError),
        ("grid", TransportFailureError),
        ("digit_string", TransportFailureError),
        ("int_past_float_range", TransportFailureError),
        ("dim_bool", TransportFailureError),
        ("non_hermitian", OracleNotAutomorphicError),
        ("slightly_asymmetric", OracleNotAutomorphicError),
        ("non_finite", OracleNotAutomorphicError),
    ]
    for frames in ["single", "stack"]
    if (mode, frames) not in {("bytes", "single"), ("grid", "stack"), ("digit_string", "stack"),
                              ("int_past_float_range", "stack")}
]


def serve_bytes(monkeypatch, fn, data: bytes) -> io.BytesIO:
    """Run ``serve(fn)`` on ``data`` as its stdin; returns its stdout bytes."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
    serve(fn)
    out = sys.stdout.buffer
    out.seek(0)
    return out


def stack_request(k: int, stack) -> bytes:
    header, payload = stack_frame(stack)
    return (json.dumps({"id": k, "matrix": header}) + "\n").encode() + payload


class TestStackFrames:
    def test_whole_plan_in_one_frame_after_negotiation(self, monkeypatch):
        sent = record_frames(monkeypatch)
        with SubprocessOracle(AFFINE_CHILD, 3) as handle:
            report = reconstruct(handle)
            assert handle.calls == report.probes_used == 25
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(3), atol=1e-10)
        assert len(sent) == 2
        first, stack = sent
        assert "entries" in first["matrix"] and first["accept"] == ["raw-stack"]
        assert stack["matrix"] == {"dim": 3, "count": 24, "bytes": 24 * 16 * 9}
        assert "accept" not in stack

    def test_dim_64_sends_four_matrices_per_frame(self, monkeypatch):
        # the negotiating decimal frame, then the other 24 probes of the plan
        # in 6 stack frames of 4
        sent = record_frames(monkeypatch)
        with SubprocessOracle(AFFINE_CHILD, 64) as handle:
            report = reconstruct(handle)
        assert report.probes_used == 25
        assert "entries" in sent[0]["matrix"]
        assert [f["matrix"]["count"] for f in sent[1:]] == [4] * 6

    def test_frames_follow_the_byte_budget(self, monkeypatch):
        sent = record_frames(monkeypatch)
        with SubprocessOracle(AFFINE_CHILD, 32) as handle:
            handle.query(np.zeros((32, 32)))
            images = list(handle.query_many(np.eye(32)[None] * np.arange(20.0)[:, None, None]))
        np.testing.assert_allclose(images[17], 34.0 * np.eye(32) + np.eye(32))
        assert [f["matrix"].get("count", 1) for f in sent[1:]] == [16, 4]

    def test_child_draining_a_frame_in_small_reads(self, monkeypatch, rng):
        # a frame of 4 d = 64 matrices is four times a 64 KiB pipe buffer:
        # the request goes out in pieces as the child takes it, 4 KiB at a
        # time, and the reply comes back in pieces too
        sent = record_frames(monkeypatch)
        probes = [random_hermitian(rng, 64) for _ in range(4)]
        with SubprocessOracle([sys.executable, "-c", SMALL_READS_CHILD], 64) as handle:
            handle.query(np.zeros((64, 64)))
            images = list(handle.query_many(probes))
        assert [f["matrix"].get("count", 1) for f in sent[1:]] == [4]
        for a, image in zip(probes, images):
            np.testing.assert_array_equal(image, 2.0 * a)

    # "c128le" named a base64 single-frame form, which is gone
    @pytest.mark.parametrize("offer", [[], ["c128le"]], ids=["nothing", "c128le"])
    def test_child_without_batch_gets_single_frames(self, monkeypatch, offer):
        sent = record_frames(monkeypatch)
        with SubprocessOracle([sys.executable, "-c", DECIMAL_CHILD, *offer], 3) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(3), atol=1e-10)
        np.testing.assert_allclose(report.recovered.X.mat, np.eye(3), atol=1e-12)
        assert len(sent) == report.probes_used == 25
        assert all(f["matrix"].keys() == {"dim", "entries"} and f["accept"] == ["raw-stack"]
                   for f in sent)

    def test_child_offering_only_batch_gets_single_frames(self, monkeypatch):
        # "batch" named the base64 stack form, which is gone
        sent = record_frames(monkeypatch)
        with SubprocessOracle([sys.executable, "-c", DECIMAL_CHILD, "c128le", "batch"],
                              3) as handle:
            report = reconstruct(handle)
        np.testing.assert_allclose(report.recovered.T, np.sqrt(2.0) * np.eye(3), atol=1e-10)
        assert len(sent) == report.probes_used == 25
        assert all(f["matrix"].keys() == {"dim", "entries"} and f["accept"] == ["raw-stack"]
                   for f in sent)

    @pytest.mark.parametrize("mode, error, frames", BAD_REPLIES)
    def test_bad_reply(self, mode, error, frames):
        # one rule for both frame kinds: a frame fault is a transport
        # failure, a bad matrix is not an automorphism
        probes = [np.eye(2) * k for k in range(4)]
        child = [sys.executable, "-c", BAD_REPLY_CHILD, mode, frames]
        with SubprocessOracle(child, 2) as handle:
            np.testing.assert_array_equal(handle.query(np.eye(2)), np.eye(2))
            images = handle.query_many(probes)
            # the probes before the bad one are answered, unless they share
            # its faulty frame
            if frames == "single" or error is OracleNotAutomorphicError:
                np.testing.assert_array_equal(next(images), probes[0])
                np.testing.assert_array_equal(next(images), probes[1])
            with pytest.raises(error):
                next(images)

    @pytest.mark.parametrize("frames", ["single", "stack"])
    @pytest.mark.parametrize("slot", [0, 3])
    @pytest.mark.parametrize("mode", ["non_hermitian", "slightly_asymmetric", "non_finite"])
    def test_bad_matrix_at_the_frame_edges(self, mode, slot, frames):
        # the images ahead of the bad one are yielded, then its error is
        # raised; the stream stays in step, so the child is kept
        probes = [np.eye(2) * k for k in range(4)]
        child = [sys.executable, "-c", BAD_REPLY_CHILD, mode, frames, str(slot)]
        with SubprocessOracle(child, 2) as handle:
            handle.query(np.eye(2))
            images = handle.query_many(probes)
            for a in probes[:slot]:
                np.testing.assert_array_equal(next(images), a)
            with pytest.raises(OracleNotAutomorphicError):
                next(images)
            np.testing.assert_array_equal(handle.query(2 * np.eye(2)), 2 * np.eye(2))
            assert handle._proc.poll() is None

    @pytest.mark.parametrize(
        "mode, frames",
        [(mode, frames) for mode, error, frames in BAD_REPLIES if error is TransportFailureError],
    )
    def test_frame_fault_kills_the_child(self, mode, frames):
        # the rest of the faulty reply must not be read as the next one
        child = [sys.executable, "-c", BAD_REPLY_CHILD, mode, frames]
        with SubprocessOracle(child, 2) as handle:
            handle.query(np.eye(2))
            with pytest.raises(TransportFailureError):
                list(handle.query_many([np.eye(2) * k for k in range(4)]))
            assert handle._proc.poll() is not None
            with pytest.raises(TransportFailureError, match=r"child exit status -?\d+"):
                handle.query(np.eye(2))

    def test_stack_reply_with_too_few_matrices(self):
        child = [sys.executable, "-c", BAD_REPLY_CHILD, "too_few", "stack"]
        with SubprocessOracle(child, 2) as handle:
            handle.query(np.eye(2))
            with pytest.raises(TransportFailureError, match="has 3 matrices, expected 4"):
                list(handle.query_many([np.eye(2) * k for k in range(4)]))

    # after the negotiating frame, d <= 8 puts the other 24 probes in one
    # frame, d = 32 in frames of 16 and 8, d = 64 in 6 frames of 4
    @pytest.mark.parametrize("d, seed", [(2, 3), (3, 7), (5, 11), (32, 13), (64, 17)])
    def test_matches_in_process_reconstruction(self, monkeypatch, d, seed):
        phi = OrderAutomorphism.create(np.sqrt(2.0) * np.eye(d), x=np.eye(d))
        sent = record_frames(monkeypatch)
        with SubprocessOracle(AFFINE_CHILD, d) as handle:
            piped = reconstruct(handle, seed=seed)
        per_frame = oracle_module.FRAME_BUDGET_BYTES // (16 * d * d)
        assert [f["matrix"]["count"] for f in sent[1:]] == [
            min(per_frame, 24 - k) for k in range(0, 24, per_frame)]
        local = reconstruct(from_automorphism(phi), seed=seed)
        assert piped.probes_used == local.probes_used
        assert piped.recovered.conjugate == local.recovered.conjugate
        np.testing.assert_allclose(piped.recovered.T, local.recovered.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(piped.recovered.X.mat, local.recovered.X.mat, rtol=0, atol=1e-12)
        assert piped.max_residual <= 1e-12 and local.max_residual <= 1e-12

    def test_serve_applies_fn_per_matrix(self, monkeypatch, rng):
        # a map that is wrong on a stack if broadcast: m.T reverses the stack axes
        t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        def fn(a):
            m = t @ a @ t.conj().T
            return (m + m.conj().T) / 2.0

        probes = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        first = {"id": 0, "matrix": matrix_to_dict(probes[0]), "accept": ["raw-stack"]}
        out = serve_bytes(monkeypatch, fn, (json.dumps(first) + "\n").encode()
                          + stack_request(1, probes))
        first, second = json.loads(out.readline()), json.loads(out.readline())
        assert first["accept"] == ["raw-stack"] and "accept" not in second
        np.testing.assert_array_equal(complex_matrix_from_dict(first["matrix"]), fn(probes[0]))
        assert second == {"id": 1, "matrix": {"dim": 3, "count": 4, "bytes": 4 * 16 * 9}}
        images = read_stack(out.readinto, 4, 3)
        for a, image in zip(probes, images):
            np.testing.assert_array_equal(image, fn(a))

    def test_serve_checks_each_stack_matrix(self, monkeypatch):
        stack = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ValidationError, match="not Hermitian"):
            serve_bytes(monkeypatch, lambda a: a, stack_request(0, stack))

    @pytest.mark.parametrize("slot", [0, 3])
    @pytest.mark.parametrize("entry, match", [(1.0, "not Hermitian"), (np.nan, "finite")])
    def test_serve_checks_the_stack_edges(self, monkeypatch, slot, entry, match):
        stack = np.stack([np.eye(2, dtype=complex)] * 4)
        stack[slot, 0, 1] = entry
        with pytest.raises(ValidationError, match=match):
            serve_bytes(monkeypatch, lambda a: a, stack_request(0, stack))

    def test_serve_rejects_payload_cut_short(self, monkeypatch):
        request = stack_request(0, np.stack([np.eye(2)] * 2))
        with pytest.raises(ValidationError, match="payload has 120 bytes, expected 128"):
            serve_bytes(monkeypatch, lambda a: a, request[:-8])


class TestResponseDeadline:
    def test_silent_child_is_killed(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 0.5)
        script = "import sys, time; sys.stdin.readline(); time.sleep(60)"
        start = time.monotonic()
        with SubprocessOracle([sys.executable, "-c", script], 2) as handle:
            expected = r"no response within 0\.5 s.*exit status -9"
            with pytest.raises(TransportFailureError, match=expected):
                handle.query(np.zeros((2, 2)))
            assert handle._proc.poll() is not None
        assert time.monotonic() - start < 5.0

    def test_child_that_stops_reading_is_killed(self, monkeypatch, rng):
        # a d = 64 frame is larger than the pipe buffer, so the write blocks
        monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 0.5)
        script = "import time; time.sleep(60)"
        a = random_hermitian(rng, 64)
        start = time.monotonic()
        with SubprocessOracle([sys.executable, "-c", script], 64) as handle:
            with pytest.raises(TransportFailureError, match="no response within"):
                handle.query(a)
            assert handle._proc.poll() is not None
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("mode", ["stall", "stall-reply"])
    def test_child_stalling_mid_frame_is_killed(self, monkeypatch, rng, mode):
        # a frame of 4 d = 64 matrices: the child stops taking the request,
        # or stops writing the reply, a quarter or half of the way through
        probes = [random_hermitian(rng, 64) for _ in range(4)]
        with SubprocessOracle([sys.executable, "-c", SMALL_READS_CHILD, mode], 64) as handle:
            handle.query(np.zeros((64, 64)))  # negotiated under the full deadline
            monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 0.5)
            start = time.monotonic()
            expected = r"no response within 0\.5 s.*exit status -9"
            with pytest.raises(TransportFailureError, match=expected):
                list(handle.query_many(probes))
            assert handle._proc.poll() is not None
            assert time.monotonic() - start < 5.0

    def test_partial_line_then_silence_is_killed(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 0.5)
        script = ("import sys, time; sys.stdin.readline(); "
                  "sys.stdout.write('{\"id\": 0'); sys.stdout.flush(); time.sleep(60)")
        with SubprocessOracle([sys.executable, "-c", script], 2) as handle:
            with pytest.raises(TransportFailureError, match="no response within"):
                handle.query(np.zeros((2, 2)))
            assert handle._proc.poll() is not None


# reads one request, then writes 4 MiB of one reply line with no newline
# and sleeps
ENDLESS_LINE_CHILD = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "for _ in range(64):\n"
    "    sys.stdout.write('1' * 65536)\n"
    "    sys.stdout.flush()\n"
    "time.sleep(60)\n"
)

# decimal-only oracle whose every reply is the longest decimal frame
# json.dumps writes: each entry a pair of 24-character floats
LONGEST_DECIMAL_CHILD = (
    "import sys, json\n"
    "tiny = -2.2250738585072014e-308\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    d = req['matrix']['dim']\n"
    "    entries = [[[tiny, tiny]] * d] * d\n"
    "    print(json.dumps({'id': req['id'], 'matrix': {'dim': d, 'entries': entries}}),"
    " flush=True)\n"
)


class TestReplyLineCap:
    def test_endless_line_is_a_frame_fault(self):
        # the cap, not the 60 s deadline, ends the read
        start = time.monotonic()
        with SubprocessOracle([sys.executable, "-c", ENDLESS_LINE_CHILD], 2) as handle:
            with pytest.raises(TransportFailureError, match="longer than 4352 bytes"):
                handle.query(np.zeros((2, 2)))
            assert handle._proc.poll() is not None
        assert time.monotonic() - start < 5.0

    def test_longest_decimal_frame_at_dim_64_is_read(self):
        d = 64
        entries = [[[-2.2250738585072014e-308] * 2] * d] * d
        line = json.dumps({"id": 0, "matrix": {"dim": d, "entries": entries}}) + "\n"
        assert len(line) > 54 * d * d
        with SubprocessOracle([sys.executable, "-c", LONGEST_DECIMAL_CHILD], d) as handle:
            for _ in range(2):
                image = handle.query(np.eye(d))
                assert image.shape == (d, d) and np.max(np.abs(image)) < 1e-307


# identity oracle offering raw stacks that writes each stack reply's header,
# sleeps, then writes its payload in two pieces, 0.3 s apart; with
# sys.argv[1] == "stall" it sleeps 60 s after the header instead
SLOW_PAYLOAD_CHILD = (
    "import sys, json, time\n"
    "from obsorder.io import hermitian_from_dict, matrix_to_dict\n"
    "pause = 60 if sys.argv[1] == 'stall' else 0.3\n"
    "stdin, stdout = sys.stdin.buffer, sys.stdout.buffer\n"
    "def send(data, wait):\n"
    "    stdout.write(data)\n"
    "    stdout.flush()\n"
    "    time.sleep(wait)\n"
    "req = json.loads(stdin.readline())\n"
    "out = matrix_to_dict(hermitian_from_dict(req['matrix']).mat)\n"
    "resp = {'id': req['id'], 'matrix': out, 'accept': ['raw-stack']}\n"
    "send((json.dumps(resp) + '\\n').encode(), 0)\n"
    "for line in stdin:\n"
    "    req = json.loads(line)\n"
    "    payload = stdin.read(req['matrix']['bytes'])\n"
    "    send((json.dumps(req) + '\\n').encode(), pause)\n"
    "    send(payload[: len(payload) // 2], 0.3)\n"
    "    send(payload[len(payload) // 2 :], 0)\n"
)


class TestPayloadDeadline:
    def test_slow_payload_in_time(self, monkeypatch, rng):
        probes = [random_hermitian(rng, 8) for _ in range(3)]
        with SubprocessOracle([sys.executable, "-c", SLOW_PAYLOAD_CHILD, "slow"], 8) as handle:
            handle.query(np.zeros((8, 8)))  # negotiated under the full deadline
            monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 2.0)
            start = time.monotonic()
            images = list(handle.query_many(probes))
            assert time.monotonic() - start >= 0.6
        for a, image in zip(probes, images):
            np.testing.assert_array_equal(image, a)

    def test_stalled_payload_is_killed(self, monkeypatch):
        with SubprocessOracle([sys.executable, "-c", SLOW_PAYLOAD_CHILD, "stall"], 8) as handle:
            handle.query(np.zeros((8, 8)))
            monkeypatch.setattr(oracle_module, "RESPONSE_TIMEOUT_S", 0.5)
            start = time.monotonic()
            expected = r"no response within 0\.5 s.*exit status -9"
            with pytest.raises(TransportFailureError, match=expected):
                handle.query(np.eye(8))
            assert handle._proc.poll() is not None
            assert time.monotonic() - start < 5.0


class TestInProcessChecks:
    def test_non_finite_image_is_rejected(self):
        handle = OracleHandle(lambda a: np.full((2, 2), np.nan), 2)
        expected = r"^oracle response is not a valid Hermitian matrix: matrix entries must be finite$"
        with pytest.raises(OracleNotAutomorphicError, match=expected):
            handle.query(np.eye(2))

    def test_slightly_asymmetric_image_is_rejected(self):
        # relative Frobenius asymmetry 1e-10: past ASYMMETRY_LIMIT, though
        # under a max-abs bound of 1e-9 * max(1, peak)
        m = np.eye(2)
        m[0, 1] = 1e-10
        handle = OracleHandle(lambda a: m, 2)
        with pytest.raises(OracleNotAutomorphicError,
                           match=r"not a valid Hermitian matrix: .* relative asymmetry 1\.000e-10$"):
            handle.query(np.eye(2))

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    @pytest.mark.parametrize("d", [2, 64])
    def test_naive_congruence_images_are_accepted(self, rng, d, scale):
        # T A T* formed without symmetrizing, cond(T) = 1e8: its rounding
        # asymmetry stays far under the one rule's limit
        t = (random_unitary(rng, d) * np.geomspace(1.0, 1e-8, d)) @ random_unitary(rng, d)
        handle = OracleHandle(lambda a: t @ a @ t.conj().T, d)
        probes = [scale * random_hermitian(rng, d) for _ in range(20)]
        for a, image in zip(probes, handle.query_many(probes), strict=True):
            np.testing.assert_array_equal(image, symmetrize(t @ a @ t.conj().T))
        assert handle.calls == len(probes)

    def test_probe_at_the_limit_takes_the_stack_verdict(self):
        # a matrix whose relative asymmetry from_array puts at or under
        # ASYMMETRY_LIMIT and _hermitian_stack, summing in another order,
        # over it (found by bisecting the asymmetry of random matrices); a
        # stack of one is checked by from_array, so it is sent second
        m = np.array([
            [-4.399928676094878 + 3.822548983921742e-13j, 0.7200180458178438 - 1.9930662022106065j,
             1.0304257979755644 + 0.17643812486863628j],
            [0.7200180458176995 + 1.993066202210377j, -4.928501775502254 + 7.708444370562138e-13j,
             0.10639831891136836 + 2.315210954770171j],
            [1.0304257979752645 - 0.1764381248736516j, 0.10639831890947123 - 2.315210954770887j,
             2.4730745162961982 - 1.569832961617525e-12j],
        ])
        HermitianMatrix.from_array(m)
        if _hermitian_stack(np.stack([np.eye(3), m]).astype(complex))[1] == 2:
            pytest.skip("the two sums agree on this platform")
        images = from_automorphism(OrderAutomorphism.create(np.eye(3))).query_many([np.eye(3), m])
        np.testing.assert_array_equal(next(images), np.eye(3))
        with pytest.raises(ValidationError, match="within rounding of 1e-12$"):
            next(images)

    def test_non_hermitian_image_is_rejected(self):
        handle = OracleHandle(lambda a: a + np.array([[0.0, 1e-6], [0.0, 0.0]]), 2)
        with pytest.raises(OracleNotAutomorphicError, match="not Hermitian"):
            list(handle.query_many([np.eye(2)]))

    def test_image_above_half_the_float_range(self):
        m = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.0]])
        handle = OracleHandle(lambda a: m, 2)
        np.testing.assert_array_equal(handle.query(np.eye(2)), m)

    def test_query_many_is_lazy(self):
        seen = []
        handle = OracleHandle(lambda a: seen.append(a) or a, 2)
        images = handle.query_many(np.eye(2) * k for k in range(3))
        assert seen == [] and handle.calls == 0
        next(images)
        assert len(seen) == 1 and handle.calls == 1


class TestWrappedProbes:
    """A ``HermitianMatrix`` wrapper passes ``query_many`` unchecked; a block
    with a raw probe is checked whole before any oracle sees it, and every
    answer is checked."""

    @staticmethod
    def count_checks(monkeypatch) -> list:
        """The size of each stack that query_many checks from now on."""
        sizes = []
        real = oracle_module._hermitian_stack

        def counting(stack):
            sizes.append(len(stack))
            return real(stack)

        monkeypatch.setattr(oracle_module, "_hermitian_stack", counting)
        return sizes

    def test_reconstruct_checks_the_answers_only(self, monkeypatch, rng):
        # 25 answers in blocks of frame_capacity(64) = 4; the probes, checked
        # too before they went out as arrays, took 7 checks more
        handle = from_automorphism(random_automorphism(rng, 64))
        sizes = self.count_checks(monkeypatch)
        reconstruct(handle, seed=5)
        assert sizes == [4] * 6 + [1]

    def test_basis_read_checks_the_answers_only(self, monkeypatch, rng):
        # the plan in one block, then the d basis projections in one more
        d = 2
        t = (random_unitary(rng, d) * np.geomspace(1.0, 1e-5, d)) @ random_unitary(rng, d)
        handle = from_automorphism(OrderAutomorphism.create(t, x=random_hermitian(rng, d)))
        sizes = self.count_checks(monkeypatch)
        assert reconstruct(handle).probes_used == d + 25
        assert sizes == [25, d]

    def test_order_check_checks_the_answers_only(self, monkeypatch, rng):
        handle = from_automorphism(random_automorphism(rng, 64))
        sizes = self.count_checks(monkeypatch)
        assert check_order_automorphism(handle, trials=2).passed
        assert sizes == [4]

    def test_mixed_block_is_checked_whole(self, monkeypatch, rng):
        handle = from_automorphism(random_automorphism(rng, 2))
        sizes = self.count_checks(monkeypatch)
        wrapped = HermitianMatrix.from_array(random_hermitian(rng, 2))
        assert len(list(handle.query_many([wrapped, random_hermitian(rng, 2)]))) == 2
        assert sizes == [2, 2]

    def test_asymmetric_raw_probe_next_to_a_wrapper_reaches_no_oracle(self, rng):
        handle = from_automorphism(random_automorphism(rng, 2))
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError) as want:
            HermitianMatrix.from_array(bad)
        wrapped = HermitianMatrix.from_array(random_hermitian(rng, 2))
        with pytest.raises(ValidationError) as got:
            list(handle.query_many([bad, wrapped]))
        assert str(got.value) == str(want.value)
        assert handle.calls == 0

    def test_wrapped_block_reaches_a_callable_read_only(self, rng):
        seen = []
        handle = OracleHandle(lambda a: seen.append(a) or a, 2)
        handle.query(HermitianMatrix.from_array(random_hermitian(rng, 2)))
        assert not seen[0].flags.writeable

    @pytest.mark.parametrize("d", [2, 64])
    def test_wrapped_and_raw_probes_get_the_same_images(self, rng, d):
        phi = random_automorphism(rng, d)
        probes = [random_hermitian(rng, d) for _ in range(6)]
        for make in (from_automorphism, per_matrix_oracle):
            raw = list(make(phi).query_many(probes))
            wrapped = list(make(phi).query_many(map(HermitianMatrix.from_array, probes)))
            assert [m.tobytes() for m in wrapped] == [m.tobytes() for m in raw]


def per_matrix_oracle(phi) -> OracleHandle:
    """The in-process oracle over ``apply`` one matrix at a time, as a user
    callable is answered: the reference for ``from_automorphism``."""
    return OracleHandle(lambda a: apply(phi, a).mat, phi.dim)


class TestStackedInProcessOracle:
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
    def test_reconstruction_bit_identical_to_per_matrix(self, d, conjugate):
        phi = random_automorphism(np.random.default_rng([d, conjugate]), d, conjugate)
        stacked, reference = from_automorphism(phi), per_matrix_oracle(phi)
        got = reconstruct(stacked, seed=d)
        want = reconstruct(reference, seed=d)
        assert got.recovered.T.tobytes() == want.recovered.T.tobytes()
        assert got.recovered.X.mat.tobytes() == want.recovered.X.mat.tobytes()
        assert got.recovered.conjugate == want.recovered.conjugate
        assert got.max_residual == want.max_residual
        assert got.probes_used == want.probes_used
        assert got.conjugate_degenerate == want.conjugate_degenerate
        assert stacked.calls == reference.calls == got.probes_used

    @pytest.mark.parametrize("d", [2, 32])
    def test_images_bit_identical_to_apply(self, d, rng):
        # d = 32 answers 4 probes per block
        phi = random_automorphism(rng, d)
        probes = [random_hermitian(rng, d) for _ in range(9)]
        handle = from_automorphism(phi)
        for a, image in zip(probes, handle.query_many(probes), strict=True):
            assert image.tobytes() == apply(phi, a).mat.tobytes()
        assert handle.query(probes[0]).tobytes() == apply(phi, probes[0]).mat.tobytes()
        assert handle.calls == 10

    # T entries near 1e200 send the image of a probe of unit norm past the
    # float range; the zero probe's image is X
    BAD_PROBES = {
        "non_hermitian": (1.0, np.array([[1.0, 2.0], [0.0, 1.0]])),
        "nan": (1.0, np.array([[np.nan, 0.0], [0.0, 1.0]])),
        "wrong_shape": (1.0, np.eye(3)),
        "overflow": (1e200, np.eye(2)),
    }

    @staticmethod
    def _error(fn):
        with pytest.raises(Exception) as exc:
            fn()
        return type(exc.value), str(exc.value)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("slot", [0, 2])
    @pytest.mark.parametrize("kind", sorted(BAD_PROBES))
    def test_rejection_parity(self, kind, slot, rng):
        scale, bad = self.BAD_PROBES[kind]
        phi = OrderAutomorphism.create(scale * random_invertible(rng, 2), x=random_hermitian(rng, 2))
        probes = [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        probes[slot] = bad
        reference = per_matrix_oracle(phi)
        want = self._error(lambda: reference.query(bad))
        assert self._error(lambda: from_automorphism(phi).query(bad)) == want

        stacked = from_automorphism(phi)
        images = stacked.query_many(probes)
        for a in probes[:slot]:
            assert next(images).tobytes() == reference.query(a).tobytes()
        assert self._error(lambda: next(images)) == want
        reference = per_matrix_oracle(phi)
        self._error(lambda: list(reference.query_many(probes)))
        assert stacked.calls == reference.calls


class TestWireForms:
    def test_round_trip_bit_exact(self, rng):
        special = np.array([[-0.0 + 5e-324j, 1e300 - 1e300j],
                            [-1e300 + 0.0j, -5e-324 - 0.0j]])
        for m in [special, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))]:
            back = complex_matrix_from_dict(json.loads(json.dumps(matrix_to_dict(m))))
            assert back.tobytes() == m.tobytes()

    def test_hermitian_round_trip(self, rng):
        h = random_hermitian(rng, 4)
        np.testing.assert_array_equal(hermitian_from_dict(matrix_to_dict(h)).mat, h)

    @pytest.mark.parametrize("case", [
        "short", "long", "dim_zero", "dim_65", "dim_str", "no_dim", "string_entries",
        "nan", "inf", "asymmetric", "c128le", "dim_bool", "digit_string", "string_entry",
        "bool_entry", "null_entry", "int_past_float_range",
    ])
    def test_rejected(self, case):
        eye = matrix_to_dict(np.eye(2))["entries"]
        obj = {
            "short": {"dim": 2, "entries": [eye[0], eye[1][:1]]},
            "long": {"dim": 2, "entries": [*eye, eye[1]]},
            "dim_zero": {"dim": 0, "entries": []},
            "dim_65": matrix_to_dict(np.eye(65)),
            "dim_str": {"dim": "2", "entries": eye},
            "no_dim": {"entries": eye},
            "string_entries": {"dim": 2, "entries": "ab"},
            "nan": matrix_to_dict([[np.nan, 0], [0, 1]]),
            "inf": matrix_to_dict([[np.inf, 0], [0, 1]]),
            "asymmetric": matrix_to_dict([[1, 1], [0, 1]]),
            # the base64 binary form, which neither reader takes
            "c128le": {"dim": 2, "c128le": base64.b64encode(
                np.eye(2, dtype="<c16").tobytes()).decode()},
            "dim_bool": {"dim": True, "entries": [[[1.0, 0.0]]]},
            # a two-character string is a pair, and float() reads each
            "digit_string": {"dim": 1, "entries": [["50"]]},
            "string_entry": {"dim": 1, "entries": [[["3", 0.0]]]},
            "bool_entry": {"dim": 1, "entries": [[[3.0, False]]]},
            "null_entry": {"dim": 1, "entries": [[[3.0, None]]]},
            "int_past_float_range": {"dim": 1, "entries": [[[10**400, 0]]]},
        }[case]
        match = "'entries'" if case == "c128le" else None
        with pytest.raises(ValidationError, match=match):
            hermitian_from_dict(obj)
        if case != "asymmetric":
            with pytest.raises(ValidationError, match=match):
                complex_matrix_from_dict(obj)

    def test_stack_round_trip_bit_exact(self, rng):
        stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        header, raw = stack_frame(stack)
        assert header == {"dim": 4, "count": 3, "bytes": 3 * 16 * 16} == {**header, "bytes": len(raw)}
        assert stack_shape(header) == (3, 4)
        assert read_stack(io.BytesIO(raw).readinto, 3, 4).tobytes() == stack.tobytes()
        with pytest.raises(ValidationError, match="payload has 752 bytes, expected 768"):
            read_stack(io.BytesIO(raw[:-16]).readinto, 3, 4)
        # bytes past the payload are the next frame's, and are left unread
        stream = io.BytesIO(bytes(raw) + b"next")
        assert read_stack(stream.readinto, 3, 4).tobytes() == stack.tobytes()
        assert stream.read() == b"next"

    @pytest.mark.parametrize("case", ["count_zero", "count_bool", "count_str", "short", "long",
                                      "no_count", "dim_65"])
    def test_stack_rejected(self, case):
        obj = {"dim": 2, "count": 3, "bytes": 3 * 16 * 4}
        assert stack_shape(obj) == (3, 2)
        # each bad count comes with the byte count of that many matrices
        if case == "count_zero":
            obj.update(count=0, bytes=0)
        elif case == "count_bool":
            obj.update(count=True, bytes=16 * 4)
        elif case == "count_str":
            obj["count"] = "3"
        elif case == "short":
            obj["bytes"] = 11 * 16
        elif case == "long":
            obj["bytes"] = 13 * 16
        elif case == "no_count":
            del obj["count"]
        elif case == "dim_65":
            obj.update(dim=65, bytes=3 * 16 * 65 * 65)
        with pytest.raises(ValidationError):
            stack_shape(obj)

    @pytest.mark.parametrize("entries", [5, [[1, 2], [3, 4]], [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]])
    def test_decimal_grid_of_non_numbers_rejected(self, entries):
        obj = {"dim": 2, "entries": entries}
        for read in (matrix_frame_from_dict, hermitian_from_dict):
            with pytest.raises(ValidationError):
                read(obj)

    @pytest.mark.parametrize("cell", [["1", 0], [True, 0], [0, None], [10**400, 0]])
    def test_vector_entries_must_be_numbers(self, cell):
        assert vector_from_list([[1, 0], [0.5, -2]]).tolist() == [1, 0.5 - 2j]
        with pytest.raises(ValidationError):
            vector_from_list([[1, 0], cell])

    @pytest.mark.parametrize("count", [1, 3])
    def test_single_readers_reject_stacks(self, count):
        obj = {**matrix_to_dict(np.eye(2)), "count": count}
        with pytest.raises(ValidationError, match="count"):
            hermitian_from_dict(obj)
        with pytest.raises(ValidationError, match="count"):
            complex_matrix_from_dict(obj)
