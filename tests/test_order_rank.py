import numpy as np
import pytest

from obsorder import (
    InternalInconsistencyError,
    PsdMatrix,
    ValidationError,
    acts_on,
    is_rank_one_by_order,
    leq,
    no_common_rank1_minorant,
    rank_gt_np1_witness,
    rank_numeric,
    ranges_linearly_independent,
)
from obsorder.generators import random_psd, random_unit
from obsorder.hermitian import as_psd, psd_rank
from obsorder.order_rank import check_rank_witness, rank_two_counterexample


def psd(m):
    return PsdMatrix.from_hermitian(m)


class TestRankOneByOrder:
    def test_rank_one(self):
        assert is_rank_one_by_order(psd(3.0 * np.diag([1.0, 0.0])))

    def test_rank_two_counterexample(self):
        a = psd(np.diag([1.0, 1.0]))
        assert not is_rank_one_by_order(a)
        e, f = rank_two_counterexample(a)
        assert leq(e, a) and leq(f, a)
        assert not leq(e, f) and not leq(f, e)

    @pytest.mark.parametrize("verdict", [True, False])
    def test_broken_counterexample_raises(self, monkeypatch, verdict):
        import obsorder.order_rank as order_rank

        monkeypatch.setattr(order_rank, "leq", lambda *args, **kwargs: verdict)
        with pytest.raises(InternalInconsistencyError):
            is_rank_one_by_order(psd(np.diag([1.0, 1.0])))

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            is_rank_one_by_order(psd(np.zeros((2, 2))))

    def test_sampled_interval_of_rank_one(self, rng):
        x = random_unit(rng, 4)
        a = psd(np.outer(x, x.conj()))
        assert is_rank_one_by_order(a)

    def test_agrees_with_numeric_rank(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, min(3, d) + 1))
            a = psd(random_psd(rng, d, r))
            assert is_rank_one_by_order(a) == (r == 1)


class TestRankFromTheCertificate:
    """A raw operand's rank comes off the eigvalsh that certifies it PSD."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_same_certificate_and_rank(self, rng):
        for d in (2, 8, 64):
            for r in (1, max(1, d // 2), d):
                m = random_psd(rng, d, r)
                got, rank = psd_rank(m)
                assert rank == rank_numeric(m) == r
                assert got.min_eig == as_psd(m).min_eig
                np.testing.assert_array_equal(got.mat, as_psd(m).mat)
                wrapped = psd(m)
                assert psd_rank(wrapped) == (wrapped, r)

    def test_one_eigvalsh_for_the_rank(self, rng, eigvalsh_calls):
        # a rank-1 operand and a rank <= n + 1 operand return right after
        # their rank: one eigvalsh, raw or already certified
        rank_one, low = random_psd(rng, 6, 1), random_psd(rng, 6, 3)
        for m in (rank_one, psd(rank_one)):
            eigvalsh_calls.clear()
            assert is_rank_one_by_order(m)
            assert len(eigvalsh_calls) == 1
        for m in (low, psd(low)):
            eigvalsh_calls.clear()
            assert rank_gt_np1_witness(m, 2) is None
            assert len(eigvalsh_calls) == 1


class TestRankGtNp1:
    def test_identity_d4(self):
        w = rank_gt_np1_witness(psd(np.diag([1.0, 1.0, 1.0, 1.0])), 1)
        assert w is not None
        assert rank_numeric(w.E) == 1
        assert rank_numeric(w.F) >= 2
        assert no_common_rank1_minorant(w.E, w.F)

    def test_boundary_none(self):
        assert rank_gt_np1_witness(psd(np.diag([1.0, 1.0])), 1) is None

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            rank_gt_np1_witness(psd(np.eye(3)), 0)

    def test_both_directions_random(self, rng):
        for _ in range(60):
            r = int(rng.integers(1, 7))
            a = psd(random_psd(rng, 6, r))
            for n in range(1, 5):
                w = rank_gt_np1_witness(a, n)
                assert (w is not None) == (r > n + 1)
                if w is not None:
                    assert check_rank_witness(a, w)


class TestNoCommonRank1Minorant:
    def test_disjoint_diagonals(self):
        assert no_common_rank1_minorant(psd(np.diag([1.0, 0, 0])), psd(np.diag([0, 1.0, 0])))

    def test_shared_direction(self):
        assert not no_common_rank1_minorant(
            psd(np.diag([1.0, 1.0, 0])), psd(np.diag([0, 1.0, 1.0]))
        )

    def test_deliberately_shared_vector(self, rng):
        d = 5
        shared = random_unit(rng, d)
        e = random_psd(rng, d, 1) + np.outer(shared, shared.conj())
        f = random_psd(rng, d, 1) + np.outer(shared, shared.conj())
        assert not no_common_rank1_minorant(psd(e), psd(f))

    def test_reduction_via_order(self, rng):
        # no common rank-1 minorant really means: no lambda with
        # lambda x(x)x below both (checked through the order itself)
        from obsorder.harness import bisection_max_lambda

        for _ in range(20):
            e = random_psd(rng, 4, 2)
            f = random_psd(rng, 4, 2)
            got = no_common_rank1_minorant(psd(e), psd(f))
            # brute direction: a common minorant direction must be dominated
            # by both; probe the intersection candidate numerically
            found = False
            for _ in range(50):
                x = random_unit(rng, 4)
                if bisection_max_lambda(x, e) and bisection_max_lambda(x, f):
                    found = True
                    break
            if found:
                assert not got


class TestRangesLinearlyIndependent:
    def test_basics(self, rng):
        e1 = np.diag([1.0, 0.0])
        e2 = np.diag([0.0, 1.0])
        assert ranges_linearly_independent([psd(e1), psd(e2)])
        assert not ranges_linearly_independent([psd(e1), psd(e1)])
        xs = [random_unit(rng, 5) for _ in range(4)]
        mats = [psd(np.outer(x, x.conj())) for x in xs]
        assert ranges_linearly_independent(mats)

    def test_rank_precondition(self):
        with pytest.raises(ValidationError):
            ranges_linearly_independent([psd(np.eye(2))])


class TestActsOn:
    def test_diagonal_cases(self):
        e = np.eye(3)
        assert acts_on(psd(np.diag([1.0, 2.0, 0.0])), [e[:, 0], e[:, 1]])
        assert not acts_on(psd(np.diag([1.0, 0.0, 2.0])), [e[:, 0], e[:, 1]])

    def test_compressed_construction(self, rng):
        d = 5
        g = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        q, _ = np.linalg.qr(g)
        basis = [q[:, j] for j in range(3)]
        p = q @ q.conj().T
        r = random_psd(rng, d, d)
        t = p @ r @ p
        assert acts_on(psd((t + t.conj().T) / 2), basis)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            acts_on(psd(np.eye(2)), [np.array([1.0, 1.0])])

    def test_order_characterization(self, rng):
        # T acts on span(M) iff no rank-1 A <= T has its direction outside
        # span(M); search candidates among T's own spectral directions
        for _ in range(20):
            d = 5
            k = int(rng.integers(1, 4))
            g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            q, _ = np.linalg.qr(g)
            basis = [q[:, j] for j in range(k)]
            p = q @ q.conj().T
            r = random_psd(rng, d, d)
            if rng.integers(0, 2):
                t = p @ r @ p
            else:
                t = r  # full-rank, does not act on the k-dim subspace
            t = (t + t.conj().T) / 2
            inside = acts_on(psd(t), basis)
            evals, evecs = np.linalg.eigh(t)
            escape = False
            for j in range(d):
                if evals[j] > 1e-8:
                    x = evecs[:, j]
                    outside = x - p @ x
                    if np.linalg.norm(outside) > 1e-6:
                        escape = True
            assert inside == (not escape)
