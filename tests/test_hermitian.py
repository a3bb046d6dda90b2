import tracemalloc

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
from obsorder import hermitian
from obsorder.generators import random_hermitian, random_psd, random_unit, random_unitary
from obsorder.hermitian import (
    ASYMMETRY_LIMIT,
    _certified_min_eig,
    _hermitian_stack,
    _scaled_projector,
    _spectral_norm,
    as_hermitian,
    as_psd,
    psd_rank,
    symmetrize,
)
from obsorder.loewner import _max_norm_scale
from obsorder.tolerances import DEFAULT_TOLERANCES, Tolerances, scaled


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

    def test_entries_above_half_the_float_range(self):
        # M + M* overflows here; the halves do not
        m = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.0]])
        np.testing.assert_array_equal(HermitianMatrix.from_array(m).mat, m)

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            HermitianMatrix.from_array(np.eye(65))

    @pytest.mark.parametrize("wrap", [HermitianMatrix.from_array, PsdMatrix.from_hermitian])
    def test_wrappers_compare_and_hash_by_identity(self, wrap):
        arr = np.eye(2)
        a, b = wrap(arr), wrap(arr)
        assert a == a and a != b and not a == b
        assert a in {a} and b not in {a} and len({a, b}) == 2

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


def _case_matrix(d: int, case, spoil: bool) -> np.ndarray:
    """The matrix of a ``_matrix_case``, with its non-finite entry only when
    ``spoil`` is set."""
    seed, scale, asym, special, spot = case
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    with np.errstate(over="ignore"):  # 1.5e308 makes some entries inf
        m = scale * (h + asym * np.linalg.norm(h) / np.linalg.norm(g) * g)
    if spoil and special is not None:
        m.view(np.float64).reshape(-1)[spot] = special
    return m


@st.composite
def _stacks(draw):
    d = draw(st.sampled_from([1, 2, 3, 8, 64]))
    cases = draw(st.lists(_matrix_case(d), min_size=1, max_size=8))
    # at most one matrix carries a non-finite entry
    bad = draw(st.integers(0, len(cases) - 1))
    stack = np.empty((len(cases), d, d), dtype=np.complex128)
    for i, case in enumerate(cases):
        stack[i] = _case_matrix(d, case, i == bad)
    return stack


@st.composite
def _matrices(draw):
    d = draw(st.sampled_from([1, 2, 3, 8, 64]))
    return _case_matrix(d, draw(_matrix_case(d)), True)


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

    @pytest.mark.parametrize("scale, stacks", [(1.0, 2.75), (1e200, 3.75)])
    def test_peak_allocation(self, rng, scale, stacks):
        # a 4 x 64 x 64 stack: the unscaled path keeps the halves h and one
        # more stack alive (h*, then h - h*, then the output), the scaled
        # path at most three; numpy's ufunc buffer adds 128 KiB to each
        stack = scale * np.stack([random_hermitian(rng, 64) for _ in range(4)])
        _hermitian_stack(stack)
        tracemalloc.start()
        try:
            _, k = _hermitian_stack(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 4
        assert peak < stacks * stack.nbytes

    def test_matrices_after_a_bad_one_are_not_returned(self):
        stack = np.stack([np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2)]).astype(complex)
        images, k = _hermitian_stack(stack)
        assert k == 1 and len(images) == 1
        np.testing.assert_array_equal(images[0], np.eye(2))


def _assert_checked(m: np.ndarray, verdict: bool) -> None:
    """from_array accepts m, as ``symmetrize(m)`` read-only and
    C-contiguous, exactly when ``verdict`` is set."""
    if not verdict:
        with pytest.raises(ValidationError, match="matrix is not Hermitian: relative asymmetry"):
            HermitianMatrix.from_array(m)
        return
    out = HermitianMatrix.from_array(m).mat
    want = symmetrize(m)
    assert out.tobytes() == want.tobytes() and out.shape == want.shape
    assert out.flags.c_contiguous and not out.flags.writeable


class TestMatrixCheck:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_matrices())
    def test_agrees_with_the_scaled_measure(self, m):
        with np.errstate(over="ignore"):  # moduli beyond the float range
            if not np.isfinite(np.max(np.abs(m))):
                with pytest.raises(ValidationError, match="matrix entries must be finite"):
                    HermitianMatrix.from_array(m)
                return
            rel = _relative_asymmetry(m)
            # the two sum the norms in different orders
            assume(abs(rel / ASYMMETRY_LIMIT - 1.0) > 0.01)
            _assert_checked(m, rel <= ASYMMETRY_LIMIT)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("asym", [0.0, 1e-14, 1e-10, 1.0])
    def test_norm_just_under_and_over_the_guard(self, monkeypatch, d, asym):
        # ||M||^2 a hair below the guard takes the unscaled path, a hair
        # above it the scaled one; both give the scaled measure's verdict
        scaled_calls = []
        exact = hermitian._scaled_asymmetry

        def counting(m):
            scaled_calls.append(m)
            return exact(m)

        monkeypatch.setattr(hermitian, "_scaled_asymmetry", counting)
        rng = np.random.default_rng(d)
        h = random_hermitian(rng, d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        unit = h + asym * np.linalg.norm(h) / np.linalg.norm(g) * g
        unit /= np.linalg.norm(unit)
        guard = hermitian._NORM2_GUARD
        for above in (False, True):
            m = np.sqrt(guard * (1.0 + (1e-6 if above else -1e-6))) * unit
            assert (np.vdot(m, m).real > guard) == above
            rel = _relative_asymmetry(m)
            assert abs(rel / ASYMMETRY_LIMIT - 1.0) > 0.01
            scaled_calls.clear()
            _assert_checked(m, rel <= ASYMMETRY_LIMIT)
            assert len(scaled_calls) == above
            images, k = _hermitian_stack(m[None])
            assert k == (rel <= ASYMMETRY_LIMIT)
            if k:
                assert images.tobytes() == symmetrize(m).tobytes()


_SPECTRA = [[-3.0, -1.0], [-2.0, -2.0], [0.0, 0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0],
            [-2.0, 0.5, 1.0], [-0.5, 3.0], [-1e-10, 1.0], [-4.0], [0.0], [5.0]]


def _psd_message(evals: np.ndarray) -> str:
    lo, norm = float(evals[0]), float(np.max(np.abs(evals)))
    return f"matrix is not PSD: smallest eigenvalue {lo:.3e} (norm {norm:.3e})"


class TestSpectralEnds:
    """The largest eigenvalue modulus read off the two ends of an ascending
    spectrum is ``np.max(np.abs(evals))`` bit for bit."""

    @pytest.mark.parametrize("evals", _SPECTRA)
    def test_ends_read(self, evals):
        evals = np.array(evals)
        want = np.float64(np.max(np.abs(evals)))
        assert np.float64(_spectral_norm(evals)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, Tolerances(tol_psd=0.5)])
    @pytest.mark.parametrize("evals", _SPECTRA)
    def test_certified_min_eig_and_psd_rank(self, evals, tol):
        evals = np.array(evals)
        m = np.diag(evals)
        spectrum = np.linalg.eigvalsh(m)
        norm = float(np.max(np.abs(spectrum)))
        if float(spectrum[0]) < -scaled(tol.tol_psd, norm):
            for call in (lambda: _certified_min_eig(spectrum, tol), lambda: psd_rank(m, tol)):
                with pytest.raises(ValidationError) as info:
                    call()
                assert str(info.value) == _psd_message(spectrum)
            return
        assert _certified_min_eig(spectrum, tol) == float(spectrum[0])
        cut = scaled(tol.tol_rank, norm)
        assert psd_rank(m, tol)[1] == int(np.count_nonzero(spectrum > cut))

    @pytest.mark.parametrize("evals", _SPECTRA)
    def test_max_norm_scale(self, evals):
        a = np.diag(evals).astype(complex)
        b = np.diag(np.linspace(-1.0, 0.5, len(evals))).astype(complex)
        na = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        nb = float(np.max(np.abs(np.linalg.eigvalsh(b))))
        assert _max_norm_scale(a, b) == max(na, nb, 1.0)
        assert _max_norm_scale(3.0 * a, b) == max(3.0 * na, nb, 1.0)


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

    @staticmethod
    def _prior_gauge(v):
        """``_fix_column_phases`` as it stood before it gauged all columns at
        once, copied: one column at a time, the pivot modulus by abs()."""
        v = v.copy()
        for j in range(v.shape[1]):
            col = v[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            if abs(pivot) > 0.0:
                col *= pivot.conjugate() / abs(pivot)
        return v

    def test_gauge_is_the_column_loops(self, rng):
        # eigenvector bases and unstructured complex columns at d = 1 to 64,
        # columns whose entries tie in modulus (the first pivot wins), and a
        # zero column, which is left as it is
        ties = np.array([0.5, 0.5j, -0.5, -0.5j])
        for d in range(1, 65):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            tied = 0.01 * g
            k = min(d, 4)
            for j in range(d):
                tied[:k, j] = np.roll(ties, j)[:k]
            zero = g.copy()
            zero[:, d // 2] = 0.0
            basis = np.linalg.eigh(g + g.conj().T)[1]
            for v in (basis, g * 10.0 ** rng.integers(-8, 9), tied, zero):
                got = hermitian._fix_column_phases(v)
                assert got.tobytes() == self._prior_gauge(v).tobytes(), d


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


def _prior_from_hermitian(m, tol):
    """``PsdMatrix.from_hermitian`` before the Cholesky certificate, copied:
    the verdict and min_eig from one eigvalsh. Returns (mat, min_eig)."""
    h = as_hermitian(m)
    return h.mat, _certified_min_eig(np.linalg.eigvalsh(h.mat), tol)


def _from_hermitian(m, tol):
    p = PsdMatrix.from_hermitian(m, tol)
    return p.mat, p.min_eig


def _outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def _psd_case(d: int, norm: float, t, tol: Tolerances) -> np.ndarray:
    """U diag(mu) U* with ||A|| = norm: full rank (t = None), or with half
    its spectrum zero and the lowest eigenvalue -t tol_psd max(norm, 1),
    around the PSD threshold at t = 1."""
    rng = np.random.default_rng([d, int(np.log10(norm) + 10), 0 if t is None else 1 + int(8 * t)])
    mu = norm * 10.0 ** rng.uniform(-3.0, 0.0, d)
    mu[0] = norm
    if t is not None:
        mu[d // 2:] = 0.0
        mu[-1] = -t * tol.tol_psd * max(norm, 1.0)
    u = random_unitary(rng, d)
    return (u * mu) @ u.conj().T


_PSD_TOLS = [DEFAULT_TOLERANCES, Tolerances(tol_psd=1e-6), Tolerances(tol_psd=1e-14)]


class TestPsdCertificate:
    """``PsdMatrix.from_hermitian`` decides 0 <= A by a Cholesky factor where
    it can; its matrix, min_eig and errors are those of the eigvalsh path."""

    @pytest.mark.parametrize("tol", _PSD_TOLS, ids=["default", "wide", "tiny"])
    @pytest.mark.parametrize("t", [None, 0.0, 0.1, 0.5, 0.99, 1.01, 2.0, 1e3])
    @pytest.mark.parametrize("norm", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_same_outcome_as_the_eigvalsh_path(self, d, norm, t, tol):
        m = _psd_case(d, norm, t, tol)
        got, want = _outcome(_from_hermitian, m, tol), _outcome(_prior_from_hermitian, m, tol)
        if isinstance(want[0], type):
            assert got == want
        else:
            np.testing.assert_array_equal(got[0], want[0])
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((3, 3)),
            np.diag([1.0, -1.0]),
            np.diag([1e-3, 0.0, -1e-3]),
            # ||A||_F^2 overflows, so no factor is tried
            1e200 * np.ones((4, 4)),
            np.diag([1e300, 1e300, -1e300]),
            np.array([[1.5e308, -1.5e308], [-1.5e308, 1.0]]),
        ],
        ids=["zero", "indefinite", "small-indefinite", "overflowing", "huge-indefinite", "near-max"],
    )
    def test_edge_operands(self, m):
        tol = DEFAULT_TOLERANCES
        got, want = _outcome(_from_hermitian, m, tol), _outcome(_prior_from_hermitian, m, tol)
        if isinstance(want[0], type):
            assert got == want
        else:
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]

    def test_psd_operand_takes_one_factor(self, rng, lapack_calls):
        m = random_psd(rng, 16, 8)
        lapack_calls.clear()
        p = as_psd(m)
        assert lapack_calls == {"cholesky": 1}
        lapack_calls.clear()
        first = p.min_eig
        assert lapack_calls == {"eigvalsh": 1}
        lapack_calls.clear()
        assert p.min_eig == first
        assert lapack_calls == {}

    def test_tiny_tol_psd_takes_the_eigvalsh(self, rng, lapack_calls):
        # at tol_psd = 1e-14 the rounding radius reaches half the shift, so
        # no factor is tried; the eigvalsh that decides gives min_eig too
        m = random_psd(rng, 16, 16)
        lapack_calls.clear()
        p = as_psd(m, Tolerances(tol_psd=1e-14))
        assert lapack_calls == {"eigvalsh": 1}
        p.min_eig
        assert lapack_calls == {"eigvalsh": 1}


class TestScaledProjector:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_exactly_hermitian(self, rng, d):
        for scale in (1e-300, 0.3, 1.0, 7.0, 1e150):
            x = random_unit(rng, d)
            m = _scaled_projector(x, scale).mat
            np.testing.assert_array_equal(m, m.conj().T)
            assert not m.diagonal().imag.any()
            assert not m.flags.writeable
            np.testing.assert_allclose(m, scale * np.outer(x, x.conj()), rtol=1e-15, atol=0.0)
