"""Hermitian matrix foundation: validated wrappers, eigendecomposition with a
deterministic eigenvector gauge, rank and range utilities.

All public entry points accept either the wrapper types defined here or bare
``numpy`` arrays. A raw array is checked once, where it enters a public entry
point; a wrapper passes through unchecked. Internally everything is
``complex128``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError, ValidationError
from .tolerances import DEFAULT_TOLERANCES, Tolerances, scaled

MAX_DIM = 64

# Relative asymmetry up to this level is treated as round-trip noise and
# silently symmetrized; anything larger is rejected.
ASYMMETRY_LIMIT = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def _check_square(arr) -> np.ndarray:
    """The complex128 array, checked square of dimension 1 to ``MAX_DIM``."""
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    d = arr.shape[0]
    if d < 1 or d > MAX_DIM:
        raise ValidationError(f"dimension must be in [1, {MAX_DIM}], got {d}")
    return arr


def _finite_peak(arr: np.ndarray) -> float:
    """The largest entry modulus; ValidationError when it is not finite."""
    # NaN propagates through max, so one test covers every entry (a modulus
    # beyond the float range counts as non-finite too)
    peak = float(np.max(np.abs(arr)))
    if not np.isfinite(peak):
        raise ValidationError("matrix entries must be finite")
    return peak


def _check_square_finite(arr) -> np.ndarray:
    """The validated complex128 array, square with finite entries."""
    arr = _check_square(arr)
    _finite_peak(arr)
    return arr


def symmetrize(m: np.ndarray) -> np.ndarray:
    """``(M + M*)/2`` over the last two axes, halved before the sum so that
    finite entries above half the float range cannot overflow it."""
    h = 0.5 * m
    h += h.conj().swapaxes(-1, -2)  # conj() is a new array, not a view of h
    return h


# Largest ||M||_F^2 at which the Hermitian check works on M itself. Below it
# every entry is at most 2^500 in modulus, so no square of an entry or of a
# difference of two entries overflows; above it, or when the sum is inf or
# NaN, the check measures M / max(peak, 1) instead.
_NORM2_GUARD = 2.0**1000


def _scaled_asymmetry(arr: np.ndarray) -> float:
    """||M - M*||_F / max(||M||_F, 1) measured on M / s, s = max(peak, 1),
    whose squares cannot overflow; ValidationError on a non-finite entry."""
    s = max(_finite_peak(arr), 1.0)
    unit = arr * (1.0 / s) if s > 1.0 else arr
    asym = float(np.linalg.norm(unit - unit.conj().T))
    return asym / max(float(np.linalg.norm(unit)), 1.0 / s)


def _leading(ok: np.ndarray) -> int:
    """How many leading entries of the boolean ``ok`` are True."""
    return len(ok) if ok.all() else int(ok.argmin())


def _sum_squares(m: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a complex (n, d, d) stack."""
    f = m.view(np.float64)
    return np.einsum("ijk,ijk->i", f, f)


def _hermitian_stack(stack: np.ndarray) -> tuple[np.ndarray, int]:
    """``HermitianMatrix.from_array``'s rule applied to every matrix of a
    complex128 (n, d, d) stack in a fixed number of numpy calls: finite
    entries, and ||M - M*||_F <= ``ASYMMETRY_LIMIT`` * max(||M||_F, 1).
    Returns the symmetrized matrices ahead of the first that fails,
    read-only, and their count.

    When every ||M||_F^2 is at most ``_NORM2_GUARD`` (a NaN or inf sum, from
    a non-finite entry, is not), the asymmetry is measured on the halves
    h = M/2 that the output h + h* is formed from. Otherwise the whole stack
    takes the scaled path: a finite peak per matrix, then the rule on
    M / max(peak, 1). The norms are summed in another order than
    ``from_array``'s, so within rounding of the limit the two may decide
    differently."""
    norm2 = _sum_squares(stack)
    if norm2.max(initial=0.0) <= _NORM2_GUARD:
        h = 0.5 * stack
        hc = h.conj().swapaxes(1, 2)
        # ||M - M*|| = 2 ||h - h*||, squared
        asym2 = _sum_squares(h - hc)
        k = _leading(asym2 <= (ASYMMETRY_LIMIT / 2) ** 2 * np.maximum(norm2, 1.0))
        out = h[:k] + hc[:k]
    else:
        peak = np.abs(stack).max(axis=(1, 2))
        k = _leading(np.isfinite(peak))
        s = np.maximum(peak[:k], 1.0)
        unit = stack[:k] * (1.0 / s)[:, None, None]
        asym2 = _sum_squares(unit - unit.conj().swapaxes(1, 2))
        # squares of rel = asym / max(||unit||, 1/s); both norms are of
        # entries at most 1 in modulus, so nothing overflows
        k = _leading(asym2 <= ASYMMETRY_LIMIT**2 * np.maximum(_sum_squares(unit), s**-2))
        out = symmetrize(stack[:k])
    out.flags.writeable = False
    return out, k


@dataclass(frozen=True)
class HermitianMatrix:
    """Square complex matrix equal to its conjugate transpose.

    Construction symmetrizes ``(M + M*)/2``; asymmetry above
    ``ASYMMETRY_LIMIT`` (relative) is an error rather than silently absorbed.
    """

    mat: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "HermitianMatrix":
        """The wrapper of (M + M*)/2, read-only, for a square M of dimension
        1 to ``MAX_DIM`` with finite entries and
        ||M - M*||_F <= ``ASYMMETRY_LIMIT`` * max(||M||_F, 1); otherwise
        ValidationError. Every raw array is checked by this rule where it
        enters a public entry point, and every matrix on the oracle pipe by
        ``_hermitian_stack``.

        ||M||_F^2 comes from one ``vdot``, which is NaN or inf when an entry
        is non-finite. When it is at most ``_NORM2_GUARD``, the asymmetry is
        measured on the halves h = M/2 that the output h + h* is formed
        from (||M - M*|| = 2 ||h - h*||). Otherwise the peak decides
        finiteness and the rule is measured on M / max(peak, 1), whose
        squares cannot overflow (entries near 1e300 or above half the float
        range). ``_hermitian_stack`` sums the norms in another order, so
        within rounding of the limit the two may decide differently."""
        arr = _check_square(arr)
        norm2 = float(np.vdot(arr, arr).real)
        if norm2 <= _NORM2_GUARD:  # False for NaN
            h = 0.5 * arr
            hc = h.conj().T
            diff = h - hc
            rel = 2.0 * math.sqrt(float(np.vdot(diff, diff).real) / max(norm2, 1.0))
            out = h + hc
        else:
            rel = _scaled_asymmetry(arr)
            out = symmetrize(arr)
        if rel > ASYMMETRY_LIMIT:
            raise ValidationError(
                f"matrix is not Hermitian: relative asymmetry {rel:.3e}"
            )
        return cls(mat=_freeze(out))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PsdMatrix:
    """Hermitian matrix certified positive semidefinite at construction.

    ``min_eig`` is the certified smallest eigenvalue; it must not fall below
    ``-tol_psd * max(||A||, 1)``. There is no unchecked constructor.
    """

    base: HermitianMatrix
    min_eig: float

    @classmethod
    def from_hermitian(
        cls, h: "HermitianMatrix | np.ndarray", tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "PsdMatrix":
        h = as_hermitian(h)
        return cls(base=h, min_eig=_certified_min_eig(np.linalg.eigvalsh(h.mat), tol))

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim


def as_hermitian(m) -> HermitianMatrix:
    """Coerce an array-like or wrapper to a validated HermitianMatrix."""
    if isinstance(m, PsdMatrix):
        return m.base
    if isinstance(m, HermitianMatrix):
        return m
    return HermitianMatrix.from_array(m)


def _spectral_norm(evals: np.ndarray) -> float:
    """The largest modulus of the ascending ``evals``, read off its two
    ends: ``np.max(np.abs(evals))`` bit for bit."""
    return max(abs(float(evals[0])), abs(float(evals[-1])))


def _certified_min_eig(evals: np.ndarray, tol: Tolerances) -> float:
    """Smallest of the ascending ``evals``; ValidationError when it falls
    below ``-tol_psd * max(norm, 1)``."""
    lo = float(evals[0])
    norm = _spectral_norm(evals)
    if lo < -scaled(tol.tol_psd, norm):
        raise ValidationError(
            f"matrix is not PSD: smallest eigenvalue {lo:.3e} (norm {norm:.3e})"
        )
    return lo


def as_psd(m, tol: Tolerances = DEFAULT_TOLERANCES) -> PsdMatrix:
    if isinstance(m, PsdMatrix):
        return m
    return PsdMatrix.from_hermitian(m, tol)


def psd_eigh(
    m, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[PsdMatrix, np.ndarray, np.ndarray]:
    """``as_psd(m)`` with its eigenvalues (ascending) and orthonormal
    eigenvectors, all from one ``eigh``: the PSD certificate is read off the
    same eigenvalues. Eigenvector phases are LAPACK's, not ``eig``'s gauge."""
    h = as_hermitian(m)
    try:
        evals, evecs = np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    if isinstance(m, PsdMatrix):
        return m, evals, evecs
    return PsdMatrix(base=h, min_eig=_certified_min_eig(evals, tol)), evals, evecs


def herm_array(m) -> np.ndarray:
    return as_hermitian(m).mat


@dataclass(frozen=True)
class Eigendecomposition:
    """Eigenvalues ascending, eigenvectors as orthonormal columns, with the
    phase of each column fixed (largest-magnitude entry real positive)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Each column of v times the phase that makes its pivot, the first
    entry of largest modulus, real positive; a zero column is kept as is.

    All columns are gauged at once. The pivot modulus is taken with
    ``np.hypot``, which is what ``abs()`` of one complex scalar computes; the
    array ``np.abs`` can differ from it in the last bit."""
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mod = np.hypot(pivot.real, pivot.imag)
    nonzero = mod > 0.0
    if nonzero.all():
        return v * (pivot.conj() / mod)
    v = v.copy()
    v[:, nonzero] *= pivot[nonzero].conj() / mod[nonzero]
    return v


def eig(m) -> Eigendecomposition:
    """Hermitian eigendecomposition with deterministic output gauge."""
    arr = herm_array(m)
    try:
        evals, evecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return Eigendecomposition(
        eigenvalues=_freeze_real(evals), eigenvectors=_freeze(_fix_column_phases(evecs))
    )


def _freeze_real(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def rank_numeric(m, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Count of eigenvalues above the rank threshold in modulus; 0 for the
    zero matrix."""
    evals = np.abs(np.linalg.eigvalsh(as_hermitian(m).mat))
    return int(np.count_nonzero(evals > scaled(tol.tol_rank, float(np.max(evals)))))


def psd_eigvalsh(m, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[PsdMatrix, np.ndarray]:
    """``as_psd(m)`` and its eigenvalues (ascending) from one ``eigvalsh``: a
    raw operand's PSD certificate is read off the same eigenvalues."""
    h = as_hermitian(m)
    evals = np.linalg.eigvalsh(h.mat)
    if not isinstance(m, PsdMatrix):
        m = PsdMatrix(base=h, min_eig=_certified_min_eig(evals, tol))
    return m, evals


def psd_rank(m, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[PsdMatrix, int]:
    """``as_psd(m)`` and its rank from one ``eigvalsh`` (``psd_eigvalsh``).
    The rank counts the eigenvalues above ``tol_rank * max(norm, 1)``, not
    their moduli: a negative eigenvalue the certificate admits (when tol_psd
    > tol_rank) has no positive spectral term. Otherwise this is
    ``rank_numeric(m)``."""
    m, evals = psd_eigvalsh(m, tol)
    cut = scaled(tol.tol_rank, _spectral_norm(evals))
    return m, int(np.count_nonzero(evals > cut))


def range_basis(m, tol: Tolerances = DEFAULT_TOLERANCES) -> list[np.ndarray]:
    """Orthonormal basis of the numerical range: eigenvectors whose
    eigenvalues exceed the rank threshold."""
    h = as_hermitian(m)
    dec = eig(h)
    norm = float(np.max(np.abs(dec.eigenvalues)))
    thr = scaled(tol.tol_rank, norm)
    keep = np.abs(dec.eigenvalues) > thr
    return [np.array(dec.eigenvectors[:, j]) for j in range(h.dim) if keep[j]]


def rank_one(x, y) -> np.ndarray:
    """The operator x (x) y : z -> <z, y> x, i.e. the matrix x_i * conj(y_j)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"rank_one: vector lengths differ ({x.size} vs {y.size})"
        )
    return np.outer(x, y.conj())
