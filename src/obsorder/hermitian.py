"""Hermitian matrix foundation: validated wrappers, eigendecomposition with a
deterministic eigenvector gauge, rank and range utilities.

All public entry points accept either the wrapper types defined here or bare
``numpy`` arrays; arrays are validated on the way in. Internally everything is
``complex128``.
"""

from __future__ import annotations

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


def _check_square_finite(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """The validated complex128 array and its largest entry modulus."""
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    d = arr.shape[0]
    if d < 1 or d > MAX_DIM:
        raise ValidationError(f"dimension must be in [1, {MAX_DIM}], got {d}")
    # NaN propagates through max, so one test covers every entry (a modulus
    # beyond the float range counts as non-finite too)
    peak = float(np.max(np.abs(arr)))
    if not np.isfinite(peak):
        raise ValidationError("matrix entries must be finite")
    return arr, peak


def symmetrize(m: np.ndarray) -> np.ndarray:
    """``(M + M*)/2`` over the last two axes, halved before the sum so that
    finite entries above half the float range cannot overflow it."""
    h = 0.5 * m
    return h + h.conj().swapaxes(-1, -2)


def _leading(ok: np.ndarray) -> int:
    """How many leading entries of the boolean ``ok`` are True."""
    return len(ok) if ok.all() else int(ok.argmin())


def _sum_squares(m: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a complex (n, d, d) stack."""
    f = m.view(np.float64)
    return np.einsum("ijk,ijk->i", f, f)


def _hermitian_stack(stack: np.ndarray) -> tuple[np.ndarray, int]:
    """``HermitianMatrix.from_array``'s rule applied to every matrix of a
    complex128 (n, d, d) stack in a fixed number of numpy calls: a finite
    peak, then relative asymmetry at most ``ASYMMETRY_LIMIT`` on M / s with
    s = max(peak, 1). Returns the symmetrized matrices ahead of the first
    that fails, read-only, and their count. The norms are summed in another
    order than ``from_array``'s, so within rounding of the limit the two
    may decide differently."""
    peak = np.abs(stack).max(axis=(1, 2))
    k = _leading(np.isfinite(peak))
    stack = stack[:k]
    s = np.maximum(peak[:k], 1.0)
    unit = stack * (1.0 / s)[:, None, None]
    asym2 = _sum_squares(unit - unit.conj().swapaxes(1, 2))
    # squares of rel = asym / max(||unit||, 1/s); both norms are of entries
    # at most 1 in modulus, so nothing overflows
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
        arr, peak = _check_square_finite(arr)
        # ||M - M*|| / max(||M||, 1), measured on M / s with s = max(peak, 1):
        # the squares inside the norms of M itself overflow near 1e300
        s = max(peak, 1.0)
        unit = arr * (1.0 / s) if s > 1.0 else arr
        asym = float(np.linalg.norm(unit - unit.conj().T))
        rel = asym / max(float(np.linalg.norm(unit)), 1.0 / s)
        if rel > ASYMMETRY_LIMIT:
            raise ValidationError(
                f"matrix is not Hermitian: relative asymmetry {rel:.3e}"
            )
        return cls(mat=_freeze(symmetrize(arr)))

    @classmethod
    def hermitian_part(cls, arr) -> "HermitianMatrix":
        """``(M + M*)/2`` of a square finite M, whatever its asymmetry: for
        results that are Hermitian up to rounding by construction, such as
        ``T A T* + X``, whose rounding is not bounded relative to the
        result."""
        arr, _ = _check_square_finite(arr)
        return cls(mat=_freeze(symmetrize(arr)))

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


def _certified_min_eig(evals: np.ndarray, tol: Tolerances) -> float:
    """Smallest of the ascending ``evals``; ValidationError when it falls
    below ``-tol_psd * max(norm, 1)``."""
    lo = float(evals[0])
    norm = float(np.max(np.abs(evals)))
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
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0.0:
            col *= pivot.conjugate() / abs(pivot)
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


def _rank_of(evals: np.ndarray, tol: Tolerances) -> int:
    norm = float(np.max(np.abs(evals)))
    thr = scaled(tol.tol_rank, norm)
    return int(np.count_nonzero(np.abs(evals) > thr))


def rank_numeric(m, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Count of eigenvalues above the rank threshold; 0 for the zero matrix."""
    return _rank_of(np.linalg.eigvalsh(as_hermitian(m).mat), tol)


def psd_rank(m, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[PsdMatrix, int]:
    """``as_psd(m)`` and ``rank_numeric(m)`` from one ``eigvalsh``: a raw
    operand's rank is read off the spectrum that certifies it PSD."""
    h = as_hermitian(m)
    evals = np.linalg.eigvalsh(h.mat)
    if not isinstance(m, PsdMatrix):
        m = PsdMatrix(base=h, min_eig=_certified_min_eig(evals, tol))
    return m, _rank_of(evals, tol)


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
