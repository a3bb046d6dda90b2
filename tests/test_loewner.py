import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obsorder import (
    DimensionMismatchError,
    InternalInconsistencyError,
    OrderAutomorphism,
    PsdMatrix,
    Relation,
    ValidationError,
    apply,
    compare,
    leq,
    max_lambda,
    range_dominates,
    rank_gt_np1_witness,
)
from obsorder import loewner
from obsorder.generators import (
    random_hermitian,
    random_invertible,
    random_psd,
    random_unit,
    random_unitary,
)
from obsorder.harness import bisection_max_lambda
from obsorder.hermitian import herm_array, psd_eigh
from obsorder.tolerances import DEFAULT_TOLERANCES, GATE_MARGIN, Tolerances, scaled


def quadratic_form(a, x) -> float:
    """<Ax, x> for Hermitian A, the witness gap's reference."""
    return float(np.real(np.vdot(x, np.asarray(a) @ x)))


class TestLeq:
    def test_zero_below_identity(self):
        assert leq(np.zeros((3, 3)), np.eye(3))

    def test_indefinite_difference(self):
        assert not leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_constructed_majorant(self, rng):
        for d in range(2, 7):
            a = random_hermitian(rng, d)
            assert leq(a, a + random_psd(rng, d, d))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            leq(np.eye(2), np.eye(3))

    def test_order_axioms_on_chains(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = random_hermitian(rng, d)
            p = random_psd(rng, d, d)
            q = random_psd(rng, d, d)
            assert leq(a, a)  # reflexive
            assert leq(a, a + p) and leq(a + p, a + p + q)
            assert leq(a, a + p + q)  # transitive along the chain
            # antisymmetry up to EQUAL
            if leq(a + p, a):
                assert compare(a, a + p).relation is Relation.EQUAL


class TestCompare:
    def test_equal(self, rng):
        a = random_hermitian(rng, 3)
        assert compare(a, a.copy()).relation is Relation.EQUAL

    def test_incomparable_witnesses(self):
        r = compare(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert r.relation is Relation.INCOMPARABLE
        np.testing.assert_allclose(np.abs(r.witness_ab.x), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(r.witness_ba.x), [0.0, 1.0], atol=1e-12)

    def test_leq_carries_no_witness(self):
        r = compare(np.diag([1.0, 1.0]), np.diag([2.0, 3.0]))
        assert r.relation is Relation.LEQ
        assert r.witness_ab is None and r.witness_ba is None

    def test_witness_soundness(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            r = compare(a, b)
            scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1.0)
            for w, (lo, hi) in ((r.witness_ab, (a, b)), (r.witness_ba, (b, a))):
                if w is None:
                    continue
                assert abs(np.linalg.norm(w.x) - 1.0) <= 1e-12
                gap = quadratic_form(lo, w.x) - quadratic_form(hi, w.x)
                assert gap == pytest.approx(w.gap, rel=1e-9)
                assert gap > 1e-9 * scale


class TestMaxLambda:
    def test_identity(self):
        lam = max_lambda(np.array([1.0, 0.0]), PsdMatrix.from_hermitian(np.eye(2)))
        assert lam == pytest.approx(1.0, rel=1e-9)

    def test_outside_range(self):
        lam = max_lambda(np.array([0.0, 1.0]), PsdMatrix.from_hermitian(np.diag([1.0, 0.0])))
        assert lam is None

    def test_against_bisection(self, rng):
        b = np.diag([4.0, 1.0])
        lam = max_lambda(np.array([1.0, 0.0]), PsdMatrix.from_hermitian(b))
        assert lam == pytest.approx(4.0, rel=1e-8)
        assert bisection_max_lambda(np.array([1.0, 0.0]), b) == pytest.approx(lam, rel=1e-8)

    def test_random_against_bisection(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            b = random_psd(rng, d, d)
            x = random_unit(rng, d)
            lam = max_lambda(x, PsdMatrix.from_hermitian(b))
            oracle = bisection_max_lambda(x, b)
            assert lam == pytest.approx(oracle, rel=1e-7)

    def test_extremality(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            b = random_psd(rng, d, d)
            x = random_unit(rng, d)
            lam = max_lambda(x, PsdMatrix.from_hermitian(b))
            lo = np.linalg.eigvalsh(b - lam * np.outer(x, x.conj()))[0]
            norm = np.linalg.norm(b, 2)
            assert -1e-9 * max(1.0, norm) <= lo <= 1e-6 * norm * 10

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            max_lambda(np.array([2.0, 0.0]), PsdMatrix.from_hermitian(np.eye(2)))

    def test_rejects_nan_x_as_non_unit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="unit vector"):
                max_lambda(np.array([np.nan, 0.0]), PsdMatrix.from_hermitian(np.eye(2)))


class TestRangeDominates:
    def test_inside(self):
        a = PsdMatrix.from_hermitian(np.diag([1.0, 0.0, 0.0]))
        b = PsdMatrix.from_hermitian(np.diag([1.0, 1.0, 0.0]))
        assert range_dominates(a, b)

    def test_outside(self):
        a = PsdMatrix.from_hermitian(np.diag([0.0, 0.0, 1.0]))
        b = PsdMatrix.from_hermitian(np.diag([1.0, 1.0, 0.0]))
        assert not range_dominates(a, b)

    def test_rank_precondition(self):
        with pytest.raises(ValidationError):
            range_dominates(
                PsdMatrix.from_hermitian(np.eye(2)), PsdMatrix.from_hermitian(np.eye(2))
            )

    def test_constructed_combination(self, rng):
        for _ in range(30):
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            b = g @ g.conj().T
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            x = g @ c
            x /= np.linalg.norm(x)
            a = np.outer(x, x.conj())
            assert range_dominates(
                PsdMatrix.from_hermitian(a), PsdMatrix.from_hermitian(b)
            )

    def test_matches_bisection_oracle(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d + 1))
            b = random_psd(rng, d, k)
            if rng.integers(0, 2) and k < d:
                x = random_unit(rng, d)
            else:
                evals, evecs = np.linalg.eigh(b)
                cols = evecs[:, evals > 1e-8]
                c = rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1])
                x = cols @ c
                x /= np.linalg.norm(x)
            a = np.outer(x, x.conj())
            got = range_dominates(PsdMatrix.from_hermitian(a), PsdMatrix.from_hermitian(b))
            assert got == (bisection_max_lambda(x, b) is not None)


def test_congruence_monotonicity(rng):
    for _ in range(100):
        d = int(rng.integers(2, 7))
        t = random_invertible(rng, d)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        fa = t @ a @ t.conj().T
        fb = t @ b @ t.conj().T
        assert leq(a, b) == leq(fa, fb)
        assert leq(b, a) == leq(fb, fa)


def _reference_relation(a, b):
    """The relation from three separate tests: |spec(A - B)| under the
    threshold, then leq each way."""
    scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1.0)
    if np.max(np.abs(np.linalg.eigvalsh(a - b))) <= DEFAULT_TOLERANCES.tol_psd * scale:
        return Relation.EQUAL
    ab, ba = leq(a, b), leq(b, a)
    if ab and ba:
        return Relation.EQUAL
    if ab:
        return Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _spectral(u, mu):
    return (u * mu) @ u.conj().T


class TestLeanCompare:
    """compare reads its verdict and both witnesses off one eigh(B - A)."""

    def _pairs(self, rng, d):
        a = random_hermitian(rng, d)
        u = random_unitary(rng, d)
        mu = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        p = random_psd(rng, d, 1)
        q = random_psd(rng, d, 1)
        yield a, random_hermitian(rng, d)
        yield a, a + random_psd(rng, d, d)
        yield a, a - random_psd(rng, d, d)
        yield a, a + _spectral(u, mu)
        yield a, a.copy()
        # near EQUAL: B - A far inside or far outside the threshold
        yield a, a + 1e-12 * random_hermitian(rng, d)
        yield a, a + 1e-12 * p - 1e-12 * q
        yield a, a + 1e-6 * p - 1e-12 * q
        yield a, a - 1e-6 * p + 1e-12 * q
        yield a, a + 1e-6 * p - 1e-6 * q

    def test_agrees_with_three_leq_reference(self, rng):
        seen = set()
        for d in (2, 3, 5, 8, 16, 33, 64):
            for a, b in self._pairs(rng, d):
                r = compare(a, b)
                assert r.relation is _reference_relation(a, b), (d, r.relation)
                seen.add(r.relation)
                scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1.0)
                needs_ab = r.relation in (Relation.GEQ, Relation.INCOMPARABLE)
                needs_ba = r.relation is Relation.INCOMPARABLE
                assert (r.witness_ab is not None) == needs_ab
                assert (r.witness_ba is not None) == needs_ba
                for w, (lo, hi) in ((r.witness_ab, (a, b)), (r.witness_ba, (b, a))):
                    if w is None:
                        continue
                    assert abs(np.linalg.norm(w.x) - 1.0) <= 1e-12
                    gap = quadratic_form(lo, w.x) - quadratic_form(hi, w.x)
                    assert gap == pytest.approx(w.gap, rel=1e-9, abs=1e-15 * scale)
                    assert gap > DEFAULT_TOLERANCES.tol_psd * scale
        assert seen == set(Relation)

    def test_order_automorphism_keeps_the_relation(self, rng):
        # Thm 1/2: phi(A) = T A T* + X (or with conj(A)) keeps every verdict.
        # B - A has every eigenvalue at least 0.5 away from zero and
        # cond(T) <= 10, so the verdict is far from the threshold both ways.
        cases = {
            Relation.LEQ: lambda mu: mu,
            Relation.GEQ: lambda mu: -mu,
            Relation.INCOMPARABLE: lambda mu: mu * np.where(np.arange(mu.size) % 2, -1.0, 1.0),
        }
        for d in (2, 3, 6, 16, 64):
            for _ in range(4):
                sv = rng.uniform(1.0, 10.0, d)
                sv[0], sv[-1] = 1.0, 10.0
                t = (random_unitary(rng, d) * sv) @ random_unitary(rng, d)
                phi = OrderAutomorphism.create(
                    t, conjugate=bool(rng.integers(0, 2)), x=random_hermitian(rng, d)
                )
                a = random_hermitian(rng, d)
                u = random_unitary(rng, d)
                for relation, signs in cases.items():
                    b = a + _spectral(u, signs(rng.uniform(0.5, 2.0, d)))
                    assert compare(a, b).relation is relation
                    assert compare(apply(phi, a), apply(phi, b)).relation is relation
                assert compare(apply(phi, a), apply(phi, a.copy())).relation is Relation.EQUAL

    def test_small_norm_thresholds_are_absolute(self):
        # Below norm 1 the threshold is tol_psd itself, not tol_psd * norm:
        # a pair of norm 1e-10 sits inside it and reads EQUAL, while the same
        # pair at norm 1 is INCOMPARABLE. This is the documented contract.
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert compare(a, b).relation is Relation.INCOMPARABLE
        assert compare(1e-10 * a, 1e-10 * b).relation is Relation.EQUAL
        assert leq(1e-10 * a, 1e-10 * b) and leq(1e-10 * b, 1e-10 * a)


def _rank_deficient_case(rng, d, rank, inside):
    """PSD B of the given rank (range spectrum in [0.5, 2]) and a unit x
    inside rng B, or with weight 0.3 in ker B."""
    u = random_unitary(rng, d)
    mu = np.zeros(d)
    mu[:rank] = rng.uniform(0.5, 2.0, rank)
    c = np.zeros(d, dtype=np.complex128)
    c[:rank] = random_unit(rng, rank)
    if not inside:
        c[:rank] *= np.sqrt(0.7)
        c[rank:] = random_unit(rng, d - rank) * np.sqrt(0.3)
    return _spectral(u, mu), u @ c


class TestLeanMaxLambda:
    def test_rank_deficient_against_bisection(self, rng):
        for d in (2, 5, 16, 64):
            for rank in sorted({1, max(1, d // 2), d - 1}):
                for inside in (True, False):
                    b, x = _rank_deficient_case(rng, d, rank, inside)
                    lam = max_lambda(x, b)
                    oracle = bisection_max_lambda(x, b)
                    if inside:
                        assert lam == pytest.approx(oracle, rel=1e-7), (d, rank)
                    else:
                        assert lam is None and oracle is None, (d, rank)
                    a = np.outer(x, x.conj())
                    assert range_dominates(a, b) is inside

    def test_tiny_norm_range_uses_the_rank_cut(self):
        # at ||B|| = 1e-10 the eigenvalue 1e-18 clears the PSD cut
        # (tol_psd * ||B|| = 1e-19) but its root 1e-9 fails the rank cut of
        # sqrt B, tol_rank * max(sqrt ||B||, 1) = 1e-8, so it lies outside rng B
        b = 1e-10 * np.diag([1.0, 1e-8])
        assert max_lambda(np.array([0.0, 1.0]), b) is None
        assert max_lambda(np.array([1.0, 0.0]), b) == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize(
        "factor, message", [(1.01, "infeasible"), (0.99, "not extremal")]
    )
    def test_certificate_catches_a_perturbed_closed_form(
        self, rng, monkeypatch, factor, message
    ):
        # lambda = 1 / weight, so scaling the weight by 1/factor scales the
        # closed form by factor; the order-predicate recheck (too large) and
        # the bumped-lambda sign test (too small) must each refuse it
        exact = loewner._range_weight

        def perturbed(*args):
            residual, weight = exact(*args)
            return residual, weight / factor

        monkeypatch.setattr(loewner, "_range_weight", perturbed)
        for d in (2, 8):
            b = random_psd(rng, d, d)
            x = random_unit(rng, d)
            with pytest.raises(InternalInconsistencyError, match=message):
                max_lambda(x, b)
            with pytest.raises(InternalInconsistencyError, match=message):
                range_dominates(np.outer(x, x.conj()), b)


class TestLapackCalls:
    """One decomposition per operand: the LAPACK calls each entry point makes."""

    def _gate_decided_pairs(self, rng, d):
        a = random_hermitian(rng, d)
        for b in (a.copy(), a + random_psd(rng, d, d), a - random_psd(rng, d, d), random_hermitian(rng, d)):
            yield a, b

    # EQUAL, LEQ, GEQ and INCOMPARABLE pairs at d = 16: a Cholesky factor
    # certifies each end that holds, a diagonal entry refutes each that
    # fails, and a refuted A <= B sends compare to its witness eigh
    def test_compare(self, rng, lapack_calls):
        want = [{"cholesky": 2}, {"cholesky": 1}, {"eigh": 1}, {"eigh": 1}]
        for (a, b), expected in zip(self._gate_decided_pairs(rng, 16), want):
            lapack_calls.clear()
            compare(a, b)
            assert lapack_calls == expected

    def test_leq(self, rng, lapack_calls):
        want = [{"cholesky": 1}, {"cholesky": 1}, {}, {}]
        for (a, b), expected in zip(self._gate_decided_pairs(rng, 16), want):
            lapack_calls.clear()
            leq(a, b)
            assert lapack_calls == expected

    def test_tiny_tol_psd_takes_no_cholesky(self, rng, lapack_calls):
        # at tol_psd = 1e-14 the rounding radius r reaches half the shift c,
        # so a factor could certify nothing: leq takes its eigvalsh
        a = random_hermitian(rng, 16)
        b = a + random_psd(rng, 16, 16)
        lapack_calls.clear()
        assert leq(a, b, Tolerances(tol_psd=1e-14))
        assert lapack_calls == {"eigvalsh": 1}

    @pytest.mark.parametrize("x, verdict", [(-5e-6, True), (-2e-5, False)])
    def test_in_band_pair_takes_the_exact_rule(self, rng, lapack_calls, x, verdict):
        # ||A|| = 1e4 at d = 16: the exact threshold is 1e-5 and the band
        # [-tol_psd * ||A||_F, -tol_psd) reaches below -1e-5, so lo = x needs
        # the two spectral norms either way, after a factor that fails
        a = _operand_off_e0(rng, 16, 1e4, rank_one=False)
        b = _with_corner(a, x)
        expected = (_exact_leq(a, b), _exact_relation(a, b))
        lapack_calls.clear()
        assert leq(a, b) is verdict is expected[0]
        assert lapack_calls == {"cholesky": 1, "eigvalsh": 3}
        lapack_calls.clear()
        assert compare(a, b).relation is expected[1]
        assert lapack_calls == {"cholesky": 1, "eigh": 1, "eigvalsh": 2}

    # in range: B's eigh, a Cholesky factor certifying lambda, and the
    # witness y = B^+ x refuting the bumped lambda; out of range: B's eigh
    def test_max_lambda(self, rng, lapack_calls):
        for inside, expected in ((True, {"eigh": 1, "cholesky": 1}), (False, {"eigh": 1})):
            b, x = _rank_deficient_case(rng, 16, 8, inside)
            lapack_calls.clear()
            max_lambda(x, b)
            assert lapack_calls == expected

    # max_lambda's calls: the residual of A's power step certifies A PSD and
    # of rank 1 without a spectrum
    def test_range_dominates(self, rng, lapack_calls):
        for inside, expected in (
            (True, {"eigh": 1, "cholesky": 1}),
            (False, {"eigh": 1}),
        ):
            b, x = _rank_deficient_case(rng, 16, 8, inside)
            lapack_calls.clear()
            range_dominates(np.outer(x, x.conj()), b)
            assert lapack_calls == expected

    # A's rank, the gauged eigh of A, and a Cholesky factor certifying each
    # of E and F
    def test_rank_gt_np1_witness(self, rng, lapack_calls):
        a = random_psd(rng, 16, 8)
        lapack_calls.clear()
        assert rank_gt_np1_witness(a, 3) is not None
        assert lapack_calls == {"eigvalsh": 1, "eigh": 1, "cholesky": 2}


def _exact_scale(a, b):
    """max(||A||, ||B||, 1) from two more spectra: the threshold scale of the
    rule the gate must reproduce."""
    na = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    nb = float(np.max(np.abs(np.linalg.eigvalsh(b))))
    return max(na, nb, 1.0)


def _exact_leq(a, b, tol=DEFAULT_TOLERANCES):
    """The ungated rule: lo(B - A) against tol_psd times the exact scale,
    three spectra per call."""
    a, b = herm_array(a), herm_array(b)
    lo = float(np.linalg.eigvalsh(b - a)[0])
    return lo >= -tol.tol_psd * _exact_scale(a, b)


def _exact_relation(a, b, tol=DEFAULT_TOLERANCES):
    """The ungated relation: both ends of one eigh(B - A) against the exact
    threshold."""
    a, b = herm_array(a), herm_array(b)
    thr = tol.tol_psd * _exact_scale(a, b)
    evals = np.linalg.eigh(b - a)[0]
    ab, ba = float(evals[0]) >= -thr, -float(evals[-1]) >= -thr
    if ab and ba:
        return Relation.EQUAL
    if ab:
        return Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _operand_off_e0(rng, d, norm, rank_one):
    """Hermitian A of spectral norm ``norm`` with row and column 0 zero:
    rank one, or of full rank on the other d - 1 coordinates."""
    a = np.zeros((d, d), dtype=np.complex128)
    if rank_one:
        v = random_unit(rng, d - 1)
        a[1:, 1:] = norm * np.outer(v, v.conj())
    else:
        g = random_hermitian(rng, d - 1)
        a[1:, 1:] = g * (norm / np.max(np.abs(np.linalg.eigvalsh(g))))
    return a


def _with_corner(a, x):
    """A + x e0 e0*: B - A is exactly diag(x, 0, ..., 0), so lo(B - A) = x
    to the bit and a placement against a threshold is exact."""
    b = a.copy()
    b[0, 0] = x
    return b


class TestNormGate:
    """leq and compare decide from lo(B - A) and the bounds tol_psd and
    tol_psd * max(||A||_F, ||B||_F, 1) of the threshold; the spectral norms
    come in only between them, and every verdict equals the exact rule's."""

    @pytest.fixture
    def band_visits(self, monkeypatch):
        visits = []
        exact = loewner._max_norm_scale

        def counting(a, b):
            visits.append(1)
            return exact(a, b)

        monkeypatch.setattr(loewner, "_max_norm_scale", counting)
        return visits

    def _check(self, a, b, band_visits, seen):
        before = len(band_visits)
        got = leq(a, b)
        assert got is _exact_leq(a, b)
        seen.add((len(band_visits) > before, got))
        # compare(B, A) puts the same x at the top end of its spectrum
        for p, q in ((a, b), (b, a)):
            assert compare(p, q).relation is _exact_relation(p, q)

    def test_agrees_with_the_exact_rule_at_the_bounds(self, rng, band_visits):
        tol = DEFAULT_TOLERANCES.tol_psd
        factors = (1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6)
        seen = set()
        cases = 0
        for d in (2, 8, 64):
            for norm in (1e-8, 1e-3, 1.0, 7.5, 1e3, 1e8):
                for rank_one in (True, False):
                    a = _operand_off_e0(rng, d, norm, rank_one)
                    spectral = max(float(np.max(np.abs(np.linalg.eigvalsh(a)))), 1.0)
                    frobenius = max(float(np.linalg.norm(a)), 1.0)
                    for bound in {tol, tol * spectral, tol * frobenius}:
                        for f in factors:
                            self._check(a, _with_corner(a, -f * bound), band_visits, seen)
                            cases += 1
        assert cases >= 300
        # every branch ran: gate-decided and in-band, each with both verdicts
        assert seen == {(False, True), (False, False), (True, True), (True, False)}

    def test_rank_one_operands_at_the_spectral_bound(self, rng, band_visits):
        # ||A|| = ||A||_F for rank one, so the computed Frobenius norm falls
        # below the computed spectral norm about as often as not; lo placed
        # exactly on the exact threshold must still read True
        seen = set()
        for d in (8, 64):
            for norm in np.geomspace(2.0, 1e8, 12):
                a = _operand_off_e0(rng, d, norm, rank_one=True)
                thr = DEFAULT_TOLERANCES.tol_psd * _exact_scale(a, a)
                for x in (-thr, np.nextafter(-thr, -np.inf)):
                    self._check(a, _with_corner(a, x), band_visits, seen)
        assert seen == {(True, True), (True, False)}

    def test_overflowing_frobenius_norm_decides_nothing(self, band_visits):
        # ||A||_F^2 = 1e320 overflows, so the False bound is -inf: the call
        # falls through to the exact rule (threshold 1e151) instead of
        # deciding from an infinite scale
        a = np.diag([0.0, 1e160, 1e160]).astype(np.complex128)
        for x, verdict in ((-5e150, True), (-2e151, False)):
            b = _with_corner(a, x)
            before = len(band_visits)
            assert leq(a, b) is verdict is _exact_leq(a, b)
            assert len(band_visits) == before + 1
            for p, q in ((a, b), (b, a)):
                assert compare(p, q).relation is _exact_relation(p, q)


def _prior_verdicts(ends, a, b, tol):
    """The PSD verdicts on spectral ends as they stood before the
    certificates, copied: the bounds tol_psd and tol_psd * frob on each end,
    and the spectral threshold between them."""
    frob = thr = None
    verdicts = []
    for m in ends:
        if m >= -tol.tol_psd:
            verdicts.append(True)
            continue
        if frob is None:
            fa = math.sqrt(np.vdot(a, a).real)
            fb = math.sqrt(np.vdot(b, b).real)
            frob = max(fa, fb, 1.0) * (1.0 + GATE_MARGIN)
        if m < -tol.tol_psd * frob:
            verdicts.append(False)
            continue
        if thr is None:
            ea, eb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
            na = max(abs(float(ea[0])), abs(float(ea[-1])))
            nb = max(abs(float(eb[0])), abs(float(eb[-1])))
            thr = tol.tol_psd * max(na, nb, 1.0)
        verdicts.append(m >= -thr)
    return verdicts


def _prior_leq(a, b, tol):
    """leq as it stood before the certificates: one eigvalsh(B - A)."""
    a, b = herm_array(a), herm_array(b)
    return _prior_verdicts((float(np.linalg.eigvalsh(b - a)[0]),), a, b, tol)[0]


def _prior_relation(a, b, tol):
    """compare's relation as it stood before the certificates: both ends of
    one eigh(B - A)."""
    a, b = herm_array(a), herm_array(b)
    evals = np.linalg.eigh(b - a)[0]
    ab, ba = _prior_verdicts((float(evals[0]), -float(evals[-1])), a, b, tol)
    if ab:
        return Relation.EQUAL if ba else Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _cuts(a, b, tol):
    """Where the verdicts turn, for the pair (a, b): tol_psd, the False
    bound tol_psd * frob, the refutation cut tol_psd * frob + r, the
    Cholesky shift c and the spectral threshold; and r itself."""
    d = len(a)
    frob = loewner._frobenius_scale(a, b)
    r = 8.0 * d * d * loewner._UNIT_ROUNDOFF * frob
    shift = 0.5 * tol.tol_psd * max(1.0, frob / math.sqrt(d)) * (1.0 - GATE_MARGIN)
    cuts = {
        "psd": tol.tol_psd,
        "frob": tol.tol_psd * frob,
        "refute": tol.tol_psd * frob + r,
        "shift": shift,
        "spectral": tol.tol_psd * _exact_scale(a, b),
    }
    return cuts, r


def _ulps(x, steps):
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


@st.composite
def _pairs_at_the_cuts(draw):
    """(A, B, tol) with B - A placed at one of ``_cuts``: a diagonal entry
    of B - A at -cut, give or take r and a few ulps, and either nothing
    else (lo is that entry) or a coupling to e1 that pulls lo below it
    (the entry alone is then at the refutation cut), or a full spectrum
    with lo at -cut."""
    d = draw(st.sampled_from([2, 11, 12, 16, 64]))
    tol = draw(st.sampled_from([DEFAULT_TOLERANCES, Tolerances(tol_psd=1e-14)]))
    norm = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _operand_off_e0(rng, d, norm, rank_one=draw(st.booleans()))
    cuts, r = _cuts(a, a, tol)
    x = -cuts[draw(st.sampled_from(sorted(cuts)))] + draw(st.sampled_from([-1.0, 0.0, 1.0])) * r
    x = _ulps(x, draw(st.integers(-3, 3)))
    shape = draw(st.sampled_from(["corner", "coupled", "spectrum"]))
    b = a.copy()
    if shape == "spectrum":
        mu = rng.uniform(0.5, 2.0, d) * max(abs(x), 1e-300)
        if draw(st.booleans()):
            mu[d // 2:] *= -1.0
        mu[0] = x
        u = random_unitary(rng, d)
        b = a + (u * mu) @ u.conj().T
    else:
        b[0, 0] = x
        if shape == "coupled":
            s = abs(x) * draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b[0, 1], b[1, 0] = s, np.conj(s)
    return a, b, tol


class TestCertificates:
    """leq and compare decide most pairs from a diagonal entry or a
    Cholesky factor of B - A (loewner._certified); each verdict must be the
    one the spectral rule gives on the same arrays."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_pairs_at_the_cuts())
    def test_verdicts_are_the_spectral_rules(self, case):
        a, b, tol = case
        for p, q in ((a, b), (b, a)):
            relation = _prior_relation(p, q, tol)
            assert leq(p, q, tol) is _prior_leq(p, q, tol)
            assert compare(p, q, tol).relation is relation
            assert loewner._relation(herm_array(p), herm_array(q), tol) is relation

    @pytest.mark.parametrize("d", [2, 16])
    def test_overflowing_operands_take_the_spectral_path(self, d):
        # the Frobenius scale is not finite: nothing is certified, and the
        # spectral rule decides on the pair divided by its peak. So
        # -big <= big holds although big - (-big) = 2e308 is no float, and
        # the witness refuting big <= -big has the gap 2e308, read as inf
        big = np.zeros((d, d), dtype=np.complex128)
        big[0, 0] = 1e308
        huge = 1e200 * np.eye(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert leq(-big, big) and not leq(big, -big)
            assert compare(-big, big).relation is Relation.LEQ
            r = compare(big, -big)
            assert r.relation is Relation.GEQ and r.witness_ba is None
            assert abs(abs(r.witness_ab.x[0]) - 1.0) <= 1e-15
            assert r.witness_ab.gap == math.inf
            assert leq(huge, huge) and compare(huge, huge).relation is Relation.EQUAL
        with np.errstate(all="ignore"):
            assert _prior_leq(huge, huge, DEFAULT_TOLERANCES)
            assert _prior_relation(huge, huge, DEFAULT_TOLERANCES) is Relation.EQUAL

    def test_relation_without_witnesses(self, rng):
        # the order check's relation: certified ends where they decide,
        # compare's eigh where either end is undecided
        for d in (2, 3, 16):
            for _ in range(20):
                a = random_hermitian(rng, d)
                for b in (a + random_psd(rng, d, d), a - random_psd(rng, d, d),
                          random_hermitian(rng, d), a.copy()):
                    b = herm_array(b)
                    got = loewner._relation(a, b, DEFAULT_TOLERANCES)
                    assert got is compare(a, b).relation

    def test_undecided_relation_takes_compares_eigh(self, monkeypatch):
        # diag(1, -1) rotated by 45 degrees has a zero diagonal, so no entry
        # refutes either end, and it is indefinite, so no factor certifies one
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        a = np.zeros((2, 2), dtype=np.complex128)
        seen = []
        spectral = loewner._spectral_ends

        def counting(*args):
            seen.append(1)
            return spectral(*args)

        monkeypatch.setattr(loewner, "_spectral_ends", counting)
        assert loewner._relation(a, m, DEFAULT_TOLERANCES) is Relation.INCOMPARABLE
        assert len(seen) == 1


def _prior_certified_max_lambda(x, b, evals, evecs, tol):
    """``loewner._certified_max_lambda`` as it stood before the witness
    vector, copied: the bumped lambda is refuted by one eigvalsh. Its
    feasibility recheck has since moved to x's projection onto the range,
    which the copy follows, so that it tests the witness vector alone."""
    norm = float(np.max(np.abs(evals)))
    root = np.sqrt(np.where(evals >= tol.tol_psd * norm, evals, 0.0))
    keep = root > tol.tol_rank * max(np.sqrt(norm), 1.0)
    c = evecs.conj().T @ x
    if float(np.linalg.norm(c[~keep])) > tol.tol_range:
        return None
    lam = 1.0 / float(np.sum(np.abs(c[keep] / root[keep]) ** 2))
    p = np.outer(x, x.conj())
    scale = max(norm, lam, 1.0)
    # feasibility is rechecked on x's projection onto the kept range of B,
    # for which lambda is the exact extremum, as in the library
    xr = evecs[:, keep] @ c[keep]
    if not leq(lam * np.outer(xr, xr.conj()), b, tol):
        raise InternalInconsistencyError(
            "closed-form lambda is infeasible under the order predicate"
        )
    bumped = (1.0 + 10.0 * tol.tol_psd) * lam
    if float(np.linalg.eigvalsh(b.mat - bumped * p)[0]) > 1e-13 * scale:
        raise InternalInconsistencyError(
            "closed-form lambda is not extremal: bumped value still feasible"
        )
    return lam


def _prior_max_lambda(x, b, tol=DEFAULT_TOLERANCES):
    """``max_lambda`` before the witness vector, for an x of norm near 1."""
    x = np.asarray(x, dtype=np.complex128)
    b, evals, evecs = psd_eigh(b, tol)
    return _prior_certified_max_lambda(x / float(np.linalg.norm(x)), b, evals, evecs, tol)


def _prior_range_dominates(a, b, tol=DEFAULT_TOLERANCES):
    """``range_dominates`` before it dropped A's eigh, copied: x is A's top
    eigenvector. Its cross-check of the range residual against lambda's
    feasibility read one residual twice, so it could not fire and is left
    out."""
    a, a_evals, a_evecs = psd_eigh(a, tol)
    b, b_evals, b_evecs = psd_eigh(b, tol)
    keep = np.abs(a_evals) > scaled(tol.tol_rank, float(np.max(np.abs(a_evals))))
    if np.count_nonzero(keep) != 1:
        raise ValidationError("range_dominates requires rank-1 A")
    x = a_evecs[:, int(np.argmax(keep))]
    lam = _prior_certified_max_lambda(x, b, b_evals, b_evecs, tol)
    return lam is not None


def _outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


@st.composite
def _range_cases(draw):
    """(x, B, A): PSD B = U diag(mu) U* of rank k with mu in [1e-3, 1e3]; a
    unit x with weight w off rng B, w = 0 or in [1e-10, 1e-6] (around
    tol_range); and A = s x x* + delta G with s in [1e-7, 1e3], G a PSD
    rank-two matrix of norm about 1, delta = 0 or in [1e-10, 1e-7] (around
    tol_rank) times s or not. Below s = 1 the rank cut is absolute, so an
    unscaled delta reaches lambda_2 / lambda_1 near 0.1 in a rank-1 A. G is
    orthogonal to x or not: if it is, x stays A's top eigenvector however
    large that ratio, and a direction read off A must not lean into G."""
    d = draw(st.sampled_from([2, 3, 8, 32, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, d))
    u = random_unitary(rng, d)
    mu = np.zeros(d)
    mu[:k] = 10.0 ** rng.uniform(-3.0, 3.0, k)
    c = np.zeros(d, dtype=np.complex128)
    c[:k] = random_unit(rng, k)
    if k < d and draw(st.booleans()):
        w = 10.0 ** draw(st.floats(-10.0, -6.0))
        c[:k] *= math.sqrt(1.0 - w * w)
        c[k:] = w * random_unit(rng, d - k)
    x = u @ c
    scale = 10.0 ** draw(st.floats(-7.0, 3.0))
    a = scale * np.outer(x, x.conj())
    if draw(st.booleans()):
        g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        if draw(st.booleans()):
            g -= np.outer(x, x.conj() @ g)
        delta = 10.0 ** draw(st.floats(-10.0, -7.0))
        if draw(st.booleans()):
            delta *= scale
        a = a + delta * (g @ g.conj().T) / d
    return x, (u * mu) @ u.conj().T, a


class TestSpectraInHand:
    """max_lambda refutes the bumped lambda by a witness vector, and
    range_dominates reads A's direction off one power step; both must answer
    exactly as the eigensolver paths they replaced."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_range_cases())
    def test_same_outcomes_as_before(self, case):
        x, b, a = case
        assert _outcome(max_lambda, x, b) == _outcome(_prior_max_lambda, x, b)
        assert _outcome(range_dominates, a, b) == _outcome(_prior_range_dominates, a, b)

    def test_power_step_reaches_the_top_eigenvector(self):
        # A = xx* + delta yy* with y orthogonal to x and delta = 9e-9 below
        # the rank cut, so x itself spans rng A and lies in rng B. The
        # column A[:, 0] leans off rng B by delta y_0 y_off / x_0, about
        # 2.8 delta > tol_range; after one power step the lean is of order
        # delta^2
        d = 64
        x = np.append(np.ones(d - 1), 0.0) / math.sqrt(d - 1)
        y = np.zeros(d)
        y[0], y[1], y[-1] = 0.5, -0.5, math.sqrt(0.5)
        a = np.outer(x, x) + 9e-9 * np.outer(y, y)
        b = np.diag(np.append(np.ones(d - 1), 0.0))
        assert range_dominates(a, b) is _prior_range_dominates(a, b) is True

    @pytest.mark.parametrize(
        "scale, delta, tol",
        [
            # below norm 1 the rank cut is the absolute tol_rank, so A with
            # lambda_2 / lambda_1 = 0.09 still counts as rank 1
            (1e-7, 9e-9, DEFAULT_TOLERANCES),
            # a wide user rank cut admits the same ratio at norm 1
            (1.0, 5e-4, Tolerances(tol_rank=1e-3)),
        ],
    )
    def test_eigh_when_the_power_step_would_lean_off_range(
        self, monkeypatch, scale, delta, tol
    ):
        # v spans rng A and lies in rng B = span(e0, e1); a power step from
        # A's largest column keeps a share of order (delta / scale)^2 of w,
        # whose e2 entry is off rng B, far above tol_range. A's eigh is taken
        # instead, and the verdict is the prior one
        v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        w = np.array([1.0, -1.0, math.sqrt(2.0)]) / 2.0
        a = scale * np.outer(v, v) + delta * np.outer(w, w)
        b = np.diag([1.0, 1.0, 0.0])
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert range_dominates(a, b, tol) is True
        assert len(calls) == 2
        assert _prior_range_dominates(a, b, tol) is True

    @pytest.mark.parametrize(
        "d, spread, eigvalsh_calls", [(3, 1.0, 0), (3, 1e-6, 0), (64, 1.0, 0), (64, 1e-6, 1)]
    )
    def test_witness_or_eigvalsh(self, rng, monkeypatch, d, spread, eigvalsh_calls):
        # the witness settles the bumped lambda unless its form, about
        # -1e-8 mu_min ||y||^2 here, lies above (1e-13 - r) ||y||^2: with
        # mu_min = 1e-6 that happens at d = 64, where r = 8 d^2 u (1 + lambda)
        # is about 7e-12, but not at d = 3, where r is about 2e-14
        mu = np.ones(d)
        mu[0], mu[-1] = spread, 0.0
        u = random_unitary(rng, d)
        b = PsdMatrix.from_hermitian((u * mu) @ u.conj().T)
        x = u @ np.append(random_unit(rng, d - 1), 0.0)
        calls = []
        original = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert max_lambda(x, b) == _prior_max_lambda(x, b)
        assert len(calls) == eigvalsh_calls + 1  # the prior copy's own


class TestLeanOffTheRange:
    """x may lean off rng B by up to tol_range, beyond what tol_psd absorbs
    in lambda x x* <= B; the feasibility recheck runs on x's projection onto
    the range, for which lambda is the exact extremum."""

    EPS = 5e-9

    def _case(self):
        x = np.array([math.sqrt(1.0 - self.EPS**2), self.EPS])
        return x, np.diag([1.0, 0.0])

    def test_max_lambda(self):
        x, b = self._case()
        assert max_lambda(x, b) == pytest.approx(1.0, rel=1e-12)

    def test_range_dominates(self):
        x, b = self._case()
        assert range_dominates(np.outer(x, x), b) is True

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("lean", [2e-9, 5e-9, 9.9e-9])
    def test_lean_between_the_tolerances(self, rng, d, lean):
        # B of rank d / 2 and norm up to 10, x leaning off its range by more
        # than tol_psd but less than tol_range
        u = random_unitary(rng, d)
        k = d // 2
        mu = np.zeros(d)
        mu[:k] = rng.uniform(0.1, 10.0, k)
        c = np.zeros(d, dtype=np.complex128)
        c[:k] = math.sqrt(1.0 - lean**2) * random_unit(rng, k)
        c[k:] = lean * random_unit(rng, d - k)
        b = (u * mu) @ u.conj().T
        x = u @ c
        lam = max_lambda(x, b)
        assert lam == pytest.approx(bisection_max_lambda(u[:, :k] @ c[:k], b), rel=1e-7)
        assert range_dominates(np.outer(x, x.conj()), b) is True


def _prior_rank_one_step(a, b, tol=DEFAULT_TOLERANCES):
    """``range_dominates`` before the power-step residual, copied: A's
    certificate, rank cut and rho from one eigvalsh. Returns the verdict
    and the x it passed to ``_certified_max_lambda``."""
    a, a_evals = loewner.psd_eigvalsh(a, tol)
    b, b_evals, b_evecs = psd_eigh(b, tol)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    norm = float(np.max(np.abs(a_evals)))
    keep = np.abs(a_evals) > scaled(tol.tol_rank, norm)
    if np.count_nonzero(keep) != 1:
        raise ValidationError("range_dominates requires rank-1 A")
    rest = a_evals[:-1] if keep[-1] else a_evals[1:]
    rho = float(np.max(np.abs(rest))) / norm if a.dim > 1 else 0.0
    if rho * rho * a.dim <= 1e-3 * tol.tol_range:
        diag = a.mat.diagonal().real
        j = int(np.argmax(diag))
        x = a.mat @ (a.mat[:, j] / diag[j]) / diag[j]
        x /= np.linalg.norm(x)
    else:
        _, evals, evecs = psd_eigh(a, tol)
        x = evecs[:, int(np.argmax(np.abs(evals)))]
    return loewner._certified_max_lambda(x, b, b_evals, b_evecs, tol) is not None, x


def _rank_one_step(monkeypatch, a, b, tol=DEFAULT_TOLERANCES):
    """``range_dominates`` and the x it passed to ``_certified_max_lambda``."""
    seen = []
    certified = loewner._certified_max_lambda

    def recording(x, *args):
        seen.append(x)
        return certified(x, *args)

    with monkeypatch.context() as m:
        m.setattr(loewner, "_certified_max_lambda", recording)
        verdict = range_dominates(a, b, tol)
    return verdict, seen[0]


# near-rank-one A = s (v v* + sign t w w*): t = 0, at the rank cut
# (t ~ tol_rank max(s, 1) / s), at the power step's gate
# (t^2 d ~ 1e-3 tol_range) and below the PSD threshold (sign -1,
# t ~ tol_psd max(s, 1) / s); f straddles each threshold
_PERTURBATIONS = [("exact", 1, None, 1.0)] + [
    (kind, sign, kind, f)
    for kind, sign in (("rank", 1), ("gate", 1), ("psd", -1))
    for f in (0.9, 1.1)
]


def _perturbation(kind: str, s: float, d: int, f: float, tol: Tolerances) -> float:
    if kind == "rank":
        return f * tol.tol_rank * max(s, 1.0) / s
    if kind == "gate":
        return math.sqrt(f * 1e-3 * tol.tol_range / d)
    return f * tol.tol_psd * max(s, 1.0) / s


class TestRankOneResidual:
    """range_dominates certifies A PSD and of rank 1 from the residual of its
    power step where it can; verdicts, x and errors are those of the
    eigvalsh path."""

    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("case", _PERTURBATIONS, ids=lambda c: f"{c[0]}-{c[3]}")
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_same_outcome_as_the_eigvalsh_path(self, monkeypatch, d, s, case, inside):
        name, sign, kind, f = case
        rng = np.random.default_rng([d, int(math.log10(s)) + 10, len(name), int(10 * f), inside])
        u = random_unitary(rng, d)
        k = max(1, d // 2)
        v = u[:, :k] @ random_unit(rng, k)
        if not inside:
            v = math.sqrt(0.5) * v + math.sqrt(0.5) * u[:, k:] @ random_unit(rng, d - k)
        w = random_unit(rng, d)
        w -= v * np.vdot(v, w)
        w /= np.linalg.norm(w)
        a = s * np.outer(v, v.conj())
        if kind is not None:
            a = a + sign * s * _perturbation(kind, s, d, f, DEFAULT_TOLERANCES) * np.outer(w, w.conj())
        mu = np.zeros(d)
        mu[:k] = rng.uniform(0.5, 2.0, k)
        b = (u * mu) @ u.conj().T
        self._assert_same(monkeypatch, a, b)

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((3, 3)),
            np.diag([1.0, -1.0, 0.0]),
            np.diag([1.0, 0.0, -1e-3]),
            np.diag([1.0, 1.0, 0.0]),
            np.diag([1e200, 0.0, 0.0]),
            1e200 * np.ones((3, 3)),
            np.diag([1e-300, 0.0, 0.0]),
            np.diag([1.0, 0.0]),
        ],
        ids=["zero", "indefinite", "negative-tail", "rank-two", "large", "overflowing",
             "subnormal-ish", "dims-differ"],
    )
    def test_edge_operands(self, monkeypatch, a):
        self._assert_same(monkeypatch, a, np.diag([1.0, 1.0, 0.0]))

    def test_already_certified_operands(self, monkeypatch, rng):
        for d in (2, 8, 64):
            x = random_unit(rng, d)
            a = PsdMatrix.from_hermitian(np.outer(x, x.conj()) + 2e-9 * np.eye(d))
            self._assert_same(monkeypatch, a, random_psd(rng, d, d))

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_rank_one_operand_takes_no_spectrum(self, rng, lapack_calls, d):
        # s in [1e-3, 1e6]: the residual certifies A, so only B's eigh and
        # lambda's factor remain (B's spectrum in [0.5, 2] lets the witness
        # refute the bumped lambda)
        for s in (1e-3, 1.0, 1e6):
            x = random_unit(rng, d)
            a = s * np.outer(x, x.conj())
            u = random_unitary(rng, d)
            b = (u * rng.uniform(0.5, 2.0, d)) @ u.conj().T
            lapack_calls.clear()
            assert range_dominates(a, b) is True
            assert lapack_calls == {"eigh": 1, "cholesky": 1}

    def _assert_same(self, monkeypatch, a, b):
        want = _outcome(_prior_rank_one_step, a, b)
        got = _outcome(_rank_one_step, monkeypatch, a, b)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert got[0] is want[0]
            assert got[1].tobytes() == want[1].tobytes()
