import itertools

import numpy as np
import pytest

from obsorder import (
    DimensionMismatchError,
    OrderAutomorphism,
    PsdMatrix,
    RelationKind,
    apply,
    commute,
    complementary,
    local_linear_dependence_scalar,
    orthogonal,
    preserves_relation,
)
from obsorder import preservers
from obsorder.cli import main
from obsorder.generators import (
    random_hermitian,
    random_invertible,
    random_unit,
    random_unitary,
)
from obsorder.hermitian import herm_array
from obsorder.preservers import _eigen_clusters
from obsorder.tolerances import DEFAULT_TOLERANCES, Tolerances, scaled


def enumerated_complementary(a, b, tol=DEFAULT_TOLERANCES):
    """Reference: the dimension-count pruning, then a stacked-SVD test over
    every pair of nonempty proper subsets of eigenvalue clusters."""
    d = a.shape[0]
    ca = _eigen_clusters(a, tol)
    cb = _eigen_clusters(b, tol)
    if len(ca) == 1 or len(cb) == 1:
        return True
    max_a = d - min(blk.shape[1] for blk in ca)
    max_b = d - min(blk.shape[1] for blk in cb)
    if max_a + max_b > d:
        return False

    def proper_subsets(blocks):
        k = len(blocks)
        for r in range(1, k):
            for combo in itertools.combinations(range(k), r):
                yield np.column_stack([blocks[i] for i in combo])

    for pa in proper_subsets(ca):
        for pb in proper_subsets(cb):
            stacked = np.column_stack([pa, pb])
            s = np.linalg.svd(stacked, compute_uv=False)
            thr = scaled(tol.tol_rank, float(s[0]))
            if int(np.count_nonzero(s > thr)) < pa.shape[1] + pb.shape[1]:
                return False
    return True


def clustered(rng, sizes, u):
    """U diag(...) U* with one distinct eigenvalue per cluster of the given sizes."""
    values = rng.permutation(len(sizes)) + rng.uniform(0.1, 0.9)
    m = u @ np.diag(np.repeat(values, sizes)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def random_split(rng, d):
    """Cluster sizes: half/half when d is even with probability 1/2, else a
    random composition of d."""
    if d % 2 == 0 and rng.random() < 0.5:
        return [d // 2, d // 2]
    cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
    return list(np.diff(np.concatenate([[0], cuts, [d]])))


def sharing_first_vector(rng, u):
    """A random unitary whose first column is the first column of u."""
    d = u.shape[0]
    rest = np.zeros((d, d), dtype=np.complex128)
    rest[0, 0] = 1.0
    rest[1:, 1:] = random_unitary(rng, d - 1)
    return u @ rest


class TestCommute:
    def test_diagonals(self):
        assert commute(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))

    def test_non_commuting(self):
        assert not commute(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_functional_calculus(self, rng):
        for _ in range(30):
            a = random_hermitian(rng, 4)
            p = 0.3 * a @ a @ a - 1.2 * a + 0.5 * np.eye(4)
            assert commute(a, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commute(np.eye(2), np.eye(3))


class TestOrthogonal:
    def test_disjoint_diagonals(self):
        assert orthogonal(np.diag([1.0, 0, 0]), np.diag([0, 0, 2.0]))

    def test_identity_not_orthogonal(self):
        assert not orthogonal(np.eye(2), np.eye(2))

    def test_projection_construction(self, rng):
        for _ in range(30):
            d = 4
            x = random_unit(rng, d)
            p = np.outer(x, x.conj())
            q = random_hermitian(rng, d)
            comp = (np.eye(d) - p) @ q @ (np.eye(d) - p)
            assert orthogonal(p, (comp + comp.conj().T) / 2)

    def test_orthogonal_implies_commute(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            a = np.outer(q[:, 0], q[:, 0].conj())
            b = np.outer(q[:, 1], q[:, 1].conj())
            assert orthogonal(a, b)
            assert commute(a, b)


def _exact_norm_product_scale(a, b):
    na = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    nb = float(np.max(np.abs(np.linalg.eigvalsh(b))))
    return max(1.0, na * nb)


def exact_commute(a, b, tol=DEFAULT_TOLERANCES):
    """Reference: ||AB - BA||_2 by SVD against tol_psd * max(1, ||A|| ||B||)
    from two spectra, on every call."""
    a, b = herm_array(a), herm_array(b)
    comm = a @ b - b @ a
    return float(np.linalg.norm(comm, 2)) <= tol.tol_psd * _exact_norm_product_scale(a, b)


def exact_orthogonal(a, b, tol=DEFAULT_TOLERANCES):
    """Reference: ||AB||_2 by SVD against the same threshold."""
    a, b = herm_array(a), herm_array(b)
    return float(np.linalg.norm(a @ b, 2)) <= tol.tol_psd * _exact_norm_product_scale(a, b)


class TestFrobeniusGate:
    """commute and orthogonal decide from Frobenius norms outside a band and
    take the SVD and the two spectral norms only inside it; every verdict
    equals the exact rule's."""

    NORMS = ((1e-4, 1e-4), (1.0, 1.0), (1e4, 1e-4), (1e8, 1e4), (1e200, 1e-200))

    @pytest.fixture
    def band_visits(self, monkeypatch):
        visits = []
        exact = preservers._norm_product_scale

        def counting(a, b):
            visits.append(1)
            return exact(a, b)

        monkeypatch.setattr(preservers, "_norm_product_scale", counting)
        return visits

    def _check(self, predicate, reference, a, b, band_visits, seen):
        before = len(band_visits)
        got = predicate(a, b)
        assert got is reference(a, b)
        seen.add((len(band_visits) > before, got))

    def _ratios(self, d):
        # ||M||_2 over the exact threshold: below, around and above the band
        # (its width is about d), which the Frobenius bounds cannot split
        return (1e-3 / d, 0.5, 0.99, 1.01, 2.0, 10.0 * d * d)

    def test_nearly_commuting(self, rng, band_visits):
        seen = set()
        for d in (2, 8, 64):
            u = random_unitary(rng, d)
            for sa, sb in self.NORMS:
                a = (u * rng.uniform(-1.0, 1.0, d) * sa) @ u.conj().T
                base = (u * rng.uniform(-1.0, 1.0, d) * sb) @ u.conj().T
                h = random_hermitian(rng, d) * sb
                unit = np.linalg.norm(a @ h - h @ a, 2)
                thr = DEFAULT_TOLERANCES.tol_psd * max(1.0, sa * sb)
                for r in self._ratios(d):
                    b = base + (r * thr / unit) * h
                    self._check(commute, exact_commute, a, b, band_visits, seen)
        assert seen == {(False, True), (False, False), (True, True), (True, False)}

    def test_nearly_orthogonal(self, rng, band_visits):
        seen = set()
        for d in (2, 8, 64):
            u = random_unitary(rng, d)
            k = d // 2
            for sa, sb in self.NORMS:
                a = (u[:, :k] * rng.uniform(0.5, 1.0, k) * sa) @ u[:, :k].conj().T
                base = (u[:, k:] * rng.uniform(0.5, 1.0, d - k) * sb) @ u[:, k:].conj().T
                h = random_hermitian(rng, d) * sb
                unit = np.linalg.norm(a @ h, 2)
                thr = DEFAULT_TOLERANCES.tol_psd * max(1.0, sa * sb)
                for r in self._ratios(d):
                    b = base + (r * thr / unit) * h
                    self._check(orthogonal, exact_orthogonal, a, b, band_visits, seen)
        assert seen == {(False, True), (False, False), (True, True), (True, False)}

    def test_commuting_and_random_pairs(self, rng, band_visits):
        seen = set()
        for d in (2, 8, 64):
            for scale in (1e-8, 1.0, 1e8):
                a = random_hermitian(rng, d) * scale
                pairs = (
                    (a, 0.3 * a @ a / scale - 1.2 * a + 0.5 * scale * np.eye(d)),
                    (np.diag(rng.uniform(-1, 1, d)) * scale, np.diag(rng.uniform(-1, 1, d))),
                    (a, scale * np.eye(d)),
                    (a, random_hermitian(rng, d) * scale),
                    (a, random_hermitian(rng, d)),
                )
                for p, q in pairs:
                    q = (q + q.conj().T) / 2.0
                    self._check(commute, exact_commute, p, q, band_visits, seen)
                    self._check(orthogonal, exact_orthogonal, p, q, band_visits, seen)
        assert (False, True) in seen and (False, False) in seen

    def test_tiny_commutator_is_not_lost_to_underflow(self, band_visits):
        # ||AB - BA|| = 1e-170 has squares below the smallest subnormal; a
        # Frobenius norm summed without scaling reads 0 and would decide True
        # against tol_psd = 1e-200, where the exact rule says False
        tol = Tolerances(tol_psd=1e-200)
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1e-170], [1e-170, 0.0]])
        assert commute(a, b, tol) is exact_commute(a, b, tol) is False
        assert orthogonal(a, b, tol) is exact_orthogonal(a, b, tol) is False
        assert not band_visits


class TestComplementary:
    def test_scalar_complementary_to_all(self, rng):
        for d in (2, 3, 4):
            for _ in range(20):
                assert complementary(1.7 * np.eye(d), random_hermitian(rng, d))

    def test_shared_eigenvector(self):
        assert not complementary(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))

    def test_rotated_spectra_d2(self, rng):
        a = np.diag([1.0, 2.0])
        for _ in range(20):
            h = random_unitary(rng, 2)
            if np.min(np.abs(h)) < 1e-3:
                continue
            b = h @ np.diag([1.0, 2.0]) @ h.conj().T
            # brute force over the four 1-dim spectral projections
            expected = True
            for u in np.linalg.eigh(a)[1].T:
                for v in np.linalg.eigh(b)[1].T:
                    if abs(np.vdot(u, v)) > 1 - 1e-10:
                        expected = False
            assert complementary(a, (b + b.conj().T) / 2) == expected

    def test_agrees_with_enumeration(self, rng):
        verdicts = []
        half_half = []
        for _ in range(600):
            d = int(rng.integers(2, 13))
            u = random_unitary(rng, d)
            sizes_a, sizes_b = random_split(rng, d), random_split(rng, d)
            a = clustered(rng, sizes_a, u)
            mode = rng.integers(0, 3)
            if mode == 0:
                v = random_unitary(rng, d)  # general position
            elif mode == 1:
                v = u  # commuting
            else:
                v = sharing_first_vector(rng, u)
            b = clustered(rng, sizes_b, v)
            got = complementary(a, b)
            assert got == enumerated_complementary(a, b), (sizes_a, sizes_b, mode)
            verdicts.append(got)
            if len(sizes_a) == len(sizes_b) == 2 and 2 * min(sizes_a + sizes_b) == d:
                half_half.append(got)
        assert 0 < sum(verdicts) < len(verdicts)
        assert 0 < sum(half_half) < len(half_half)

    def test_agrees_with_enumeration_at_the_rank_cut(self, rng):
        # half/half pairs, d even in 2..64, where a vector of one cluster of
        # B lies at an angle log-uniform in [1e-10, 1e-6] to one cluster of
        # A: the smallest singular value of the stacked bases, about
        # angle / sqrt(2), then falls on either side of the rank cut
        # tol_rank * sqrt(2). The reference checks all four cluster pairs.
        verdicts = []
        for _ in range(300):
            m = int(rng.integers(1, 33))
            d = 2 * m
            u = random_unitary(rng, d)
            angle = 10.0 ** rng.uniform(-10.0, -6.0)
            near = np.cos(angle) * u[:, 0] + np.sin(angle) * u[:, m]
            v, _ = np.linalg.qr(np.column_stack([near, random_unitary(rng, d)[:, 1:]]))
            a = clustered(rng, [m, m], u)
            b = clustered(rng, [m, m], v)
            got = complementary(a, b)
            assert got == enumerated_complementary(a, b), (d, angle)
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_half_half_at_d64(self, rng):
        u = random_unitary(rng, 64)
        a = clustered(rng, [32, 32], u)
        for v, expected in ((random_unitary(rng, 64), True), (sharing_first_vector(rng, u), False)):
            b = clustered(rng, [32, 32], v)
            assert complementary(a, b) is expected
            assert enumerated_complementary(a, b) is expected

    def test_no_bound_below_max_dim(self, rng):
        for d in (13, 64):
            a = random_hermitian(rng, d)
            assert complementary(1.7 * np.eye(d), a)
            _, vecs = np.linalg.eigh(a)
            assert not complementary(a, np.outer(vecs[:, 0], vecs[:, 0].conj()))

    def test_verify_cor4_past_old_bound(self, capsys):
        assert main(["verify", "cor4", "--dims", "16,64", "--trials", "3"]) == 0
        capsys.readouterr()


class TestLocalLinearDependence:
    def test_scalar(self):
        assert local_linear_dependence_scalar(PsdMatrix.from_hermitian(3.0 * np.eye(4))) == pytest.approx(3.0)

    def test_non_scalar(self):
        assert local_linear_dependence_scalar(PsdMatrix.from_hermitian(np.diag([1.0, 2.0]))) is None

    def test_unitary_times_scalar(self, rng):
        u = random_unitary(rng, 3)
        t = 1.3 * u
        s = t.conj().T @ t
        lam = local_linear_dependence_scalar(PsdMatrix.from_hermitian((s + s.conj().T) / 2))
        assert lam == pytest.approx(1.69, rel=1e-9)

    def test_raw_operand_takes_one_eigvalsh(self, monkeypatch):
        # the spectrum that certifies the raw operand PSD also gives lambda
        calls = []
        original = np.linalg.eigvalsh

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert local_linear_dependence_scalar(2.0 * np.eye(3)) == 2.0
        assert len(calls) == 1


class TestPreservesRelation:
    @pytest.mark.parametrize("kind", [RelationKind.COMMUTATIVITY, RelationKind.COMPLEMENTARITY])
    def test_unitary_scalar_preserves(self, rng, kind):
        d = 3
        u = random_unitary(rng, d)
        phi = OrderAutomorphism.create(np.sqrt(1.5) * u, x=0.7 * np.eye(d))
        cls = preserves_relation(phi, kind)
        assert cls.preserves
        form = cls.canonical_form
        assert form.lam == pytest.approx(1.5, rel=1e-9)
        assert form.mu == pytest.approx(0.7, rel=1e-9)
        np.testing.assert_allclose(form.U.conj().T @ form.U, np.eye(d), atol=1e-9)

    def test_orthogonality_needs_zero_shift(self, rng):
        d = 3
        u = random_unitary(rng, d)
        good = OrderAutomorphism.create(2.0 * u)
        assert preserves_relation(good, RelationKind.ORTHOGONALITY).preserves
        shifted = OrderAutomorphism.create(2.0 * u, x=0.5 * np.eye(d))
        cls = preserves_relation(shifted, RelationKind.ORTHOGONALITY)
        assert not cls.preserves
        ce = cls.counterexample
        assert orthogonal(ce.a, ce.b) == ce.holds_before
        assert orthogonal(apply(shifted, ce.a).mat, apply(shifted, ce.b).mat) == ce.holds_after
        assert ce.holds_before != ce.holds_after

    def test_nonscalar_gram_breaks_orthogonality(self):
        phi = OrderAutomorphism.create(np.diag([1.0, 2.0]))
        cls = preserves_relation(phi, RelationKind.ORTHOGONALITY)
        assert not cls.preserves
        ce = cls.counterexample
        assert orthogonal(ce.a, ce.b)
        assert not orthogonal(apply(phi, ce.a).mat, apply(phi, ce.b).mat)

    def test_nonscalar_shift_breaks_commutativity(self, rng):
        d = 3
        u = random_unitary(rng, d)
        x = random_hermitian(rng, d)
        phi = OrderAutomorphism.create(u, x=x)
        cls = preserves_relation(phi, RelationKind.COMMUTATIVITY)
        assert not cls.preserves
        ce = cls.counterexample
        assert commute(ce.a, ce.b) == ce.holds_before
        assert commute(apply(phi, ce.a).mat, apply(phi, ce.b).mat) == ce.holds_after
        assert ce.holds_before != ce.holds_after

    @pytest.mark.parametrize("kind", list(RelationKind))
    def test_candidate_images_are_not_rewrapped(self, monkeypatch, from_array_args, kind):
        # the relation takes apply's checked images of a candidate pair as
        # they are; the last two images are those of the shipped pair
        images = []

        def recording(phi, a):
            images.append(apply(phi, a))
            return images[-1]

        monkeypatch.setattr(preservers, "apply", recording)
        cls = preserves_relation(OrderAutomorphism.create(np.diag([1.0, 2.0])), kind)
        assert not cls.preserves and images
        assert not any(arg is image.mat for arg in from_array_args for image in images[-2:])

    @pytest.mark.parametrize("kind, wraps, b_wraps", [(RelationKind.COMPLEMENTARITY, 4, 0),
                                                      (RelationKind.COMMUTATIVITY, 3, 1),
                                                      (RelationKind.ORTHOGONALITY, 3, 1)])
    def test_each_candidate_is_wrapped_once(self, from_array_args, kind, wraps, b_wraps):
        # the first pair is the counterexample, and a and b are checked once:
        # one wrap each after T*T's, ahead of the relation and apply. For
        # complementarity the inverse's X comes first, then zero and the
        # probe whose image under the inverse is b; b is apply's checked
        # image, never wrapped again. The counterexample reports raw arrays.
        phi = OrderAutomorphism.create(np.eye(2), x=np.diag([1.0, 2.0]))
        from_array_args.clear()
        cls = preserves_relation(phi, kind)
        ce = cls.counterexample
        assert not cls.preserves and type(ce.a) is type(ce.b) is np.ndarray
        assert len(from_array_args) == wraps
        assert [arg is ce.b for arg in from_array_args].count(True) == b_wraps

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_complementarity_counterexamples(self, rng, d):
        for _ in range(10):
            t = random_invertible(rng, d)
            phi = OrderAutomorphism.create(t, x=random_hermitian(rng, d))
            cls = preserves_relation(phi, RelationKind.COMPLEMENTARITY, seed=int(rng.integers(2**31)))
            if cls.preserves:
                continue
            ce = cls.counterexample
            before = complementary(ce.a, ce.b)
            after = complementary(apply(phi, ce.a).mat, apply(phi, ce.b).mat)
            assert before == ce.holds_before and after == ce.holds_after
            assert before != after

    def test_antiunitary_branch(self, rng):
        d = 3
        u = random_unitary(rng, d)
        phi = OrderAutomorphism.create(u, conjugate=True, x=np.zeros((d, d)))
        cls = preserves_relation(phi, RelationKind.ORTHOGONALITY)
        assert cls.preserves
        assert cls.canonical_form.antiunitary
