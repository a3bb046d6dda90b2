import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from obsorder import (
    DimensionMismatchError,
    HermitianMatrix,
    PsdMatrix,
    ValidationError,
    eig,
    range_basis,
    rank_numeric,
    rank_one,
)
from obsorder.generators import random_hermitian, random_psd, random_unit
from obsorder.hermitian import ASYMMETRY_LIMIT, _hermitian_stack


class TestConstruction:
    def test_symmetrizes_roundtrip_noise(self):
        m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        h = HermitianMatrix.from_array(m)
        # accepted, and the noise split evenly between the two entries
        np.testing.assert_array_equal(h.mat, [[1.0, 0.5 + 0.5e-14j], [0.5 - 0.5e-14j, 2.0]])
        np.testing.assert_array_equal(h.mat, h.mat.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.array([[np.nan, 0], [0, 1.0]]))

    def test_rejects_asymmetry_near_float_limit(self):
        # the Frobenius norm of these entries overflows; the relative
        # asymmetry must still be measured, not divided by inf
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.array([[1e300, 1e300], [0.0, 1e300]]))

    def test_accepts_hermitian_near_float_limit(self):
        m = np.array([[1e300, 1e300 + 1e300j], [1e300 - 1e300j, -1e300]])
        h = HermitianMatrix.from_array(m)
        np.testing.assert_array_equal(h.mat, m)
        np.testing.assert_array_equal(h.mat, h.mat.conj().T)

    @pytest.mark.parametrize("wrap", [HermitianMatrix.from_array, HermitianMatrix.hermitian_part])
    def test_entries_above_half_the_float_range(self, wrap):
        # M + M* overflows here; the halves do not
        m = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.0]])
        np.testing.assert_array_equal(wrap(m).mat, m)

    def test_hermitian_part_skips_the_asymmetry_limit(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        h = HermitianMatrix.hermitian_part(m)
        np.testing.assert_array_equal(h.mat, [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError):
            HermitianMatrix.hermitian_part(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.eye(65))

    def test_psd_certification(self):
        with pytest.raises(ValidationError):
            PsdMatrix.from_hermitian(np.diag([1.0, -1.0]))
        p = PsdMatrix.from_hermitian(np.diag([1.0, 0.0]))
        assert p.min_eig >= -1e-12


def _matrix_case(d: int):
    """One matrix of a stack: a Hermitian draw at some scale, spoiled by a
    relative asymmetry, maybe with one non-finite entry."""
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300, 1.5e308]),
        st.sampled_from([0.0, 1e-14, 1e-12, 1e-10, 1.0]),
        st.sampled_from([None, np.nan, np.inf, -np.inf]),
        st.integers(0, 2 * d * d - 1),
    )


@st.composite
def _stacks(draw):
    d = draw(st.sampled_from([1, 2, 3, 8, 64]))
    cases = draw(st.lists(_matrix_case(d), min_size=1, max_size=8))
    # at most one matrix carries a non-finite entry
    bad = draw(st.integers(0, len(cases) - 1))
    stack = np.empty((len(cases), d, d), dtype=np.complex128)
    for i, (seed, scale, asym, special, spot) in enumerate(cases):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        with np.errstate(over="ignore"):  # 1.5e308 makes some entries inf
            m = scale * (h + asym * np.linalg.norm(h) / np.linalg.norm(g) * g)
        if i == bad and special is not None:
            m.view(np.float64).reshape(-1)[spot] = special
        stack[i] = m
    return stack


def _relative_asymmetry(m: np.ndarray) -> float:
    """from_array's measure, for a finite matrix."""
    s = max(float(np.max(np.abs(m))), 1.0)
    unit = m * (1.0 / s)
    return float(np.linalg.norm(unit - unit.conj().T)) / max(float(np.linalg.norm(unit)), 1.0 / s)


class TestStackCheck:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_stacks())
    def test_agrees_with_from_array(self, stack):
        accepted = []
        with np.errstate(over="ignore"):  # moduli beyond the float range
            for m in stack:
                if np.isfinite(np.max(np.abs(m))):
                    # the two sum the norms in different orders
                    assume(abs(_relative_asymmetry(m) / ASYMMETRY_LIMIT - 1.0) > 0.01)
                try:
                    accepted.append(HermitianMatrix.from_array(m).mat)
                except ValidationError:
                    accepted.append(None)
            images, k = _hermitian_stack(stack)
            alone = [_hermitian_stack(m[None])[1] == 1 for m in stack]
        assert alone == [a is not None for a in accepted]
        lead = next((i for i, a in enumerate(accepted) if a is None), len(stack))
        assert k == lead and images.shape == (k, *stack.shape[1:])
        assert not images.flags.writeable
        for image, want in zip(images, accepted):
            np.testing.assert_array_equal(image.view(np.int64), want.view(np.int64))

    def test_matrices_after_a_bad_one_are_not_returned(self):
        stack = np.stack([np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2)]).astype(complex)
        images, k = _hermitian_stack(stack)
        assert k == 1 and len(images) == 1
        np.testing.assert_array_equal(images[0], np.eye(2))


class TestEig:
    def test_diagonal(self):
        dec = eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2)[:, ::-1], atol=1e-14)

    def test_swap_matrix(self):
        dec = eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, 5)
            dec = eig(m)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            norm = np.linalg.norm(m, 2)
            assert np.linalg.norm(rebuilt - m, 2) <= 1e-10 * max(1.0, norm)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(5), 2) <= 1e-10

    def test_deterministic_gauge(self, rng):
        m = random_hermitian(rng, 4)
        a = eig(m)
        b = eig(m)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(4):
            col = a.eigenvectors[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12


class TestRankAndRange:
    def test_rank_basics(self):
        assert rank_numeric(np.diag([1.0, 0.0, 0.0])) == 1
        assert rank_numeric(np.diag([1e-15, 1.0])) == 1
        assert rank_numeric(np.zeros((3, 3))) == 0

    def test_rank_of_gram(self, rng):
        for k in range(1, 5):
            g = rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k))
            assert rank_numeric(g @ g.conj().T) == k

    def test_range_basis(self, rng):
        assert len(range_basis(np.zeros((2, 2)))) == 0
        (u,) = range_basis(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(np.abs(u), [1.0, 0.0], atol=1e-14)
        x = random_unit(rng, 4)
        (v,) = range_basis(np.outer(x, x.conj()))
        assert abs(abs(np.vdot(v, x)) - 1.0) <= 1e-9


class TestRankOne:
    def test_basis_cases(self):
        np.testing.assert_array_equal(
            rank_one([1, 0], [1, 0]), np.array([[1, 0], [0, 0]], dtype=complex)
        )
        m = rank_one([1, 0], [0, 1])
        assert m[0, 1] == 1 and np.count_nonzero(m) == 1

    def test_defining_identity(self, rng):
        x, y, z = (random_unit(rng, 5) for _ in range(3))
        lhs = rank_one(x, y) @ z
        rhs = np.vdot(y, z) * x
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rank_one([1, 0], [1, 0, 0])


def test_psd_quadratic_forms_nonnegative(rng):
    a = PsdMatrix.from_hermitian(random_psd(rng, 5, 5))
    norm = np.linalg.eigvalsh(a.mat)[-1]
    for _ in range(1000):
        x = random_unit(rng, 5)
        assert np.real(np.vdot(x, a.mat @ x)) >= -1e-9 * norm
