"""Rank and range facts expressed through the order relation alone.

A nonzero PSD matrix has rank 1 exactly when its order interval [0, A] is
total (any two elements comparable); rank A > n+1 exactly when A dominates a
rank-n E and a rank->1 F with trivially intersecting ranges. Both detectors
live here, together with the trivial-intersection test that checks a rank
witness. The detectors read A's spectral terms off one gauged ``eig``; the
witness forms E and F from them as one product each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InternalInconsistencyError, ValidationError
from .hermitian import (
    PsdMatrix,
    _decomposed_psd,
    _spectral_norm,
    as_psd,
    eig,
    rank_numeric,
    range_basis,
    rank_one,
)
from .loewner import leq
from .tolerances import DEFAULT_TOLERANCES, Tolerances, scaled


@dataclass(frozen=True)
class RankWitness:
    """Pair (E, F) below the probed A with rank E = n, rank F > 1, and
    trivially intersecting ranges. Its existence certifies rank A > n+1."""

    E: PsdMatrix
    F: PsdMatrix
    n: int


def _psd_rank(a, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[PsdMatrix, int]:
    """``as_psd(a)`` and its rank, read off its ``_eigvalsh``, which also
    certifies a raw a. The rank counts the eigenvalues above
    ``tol_rank * max(norm, 1)``, not their moduli: a negative eigenvalue the
    certificate admits (when tol_psd > tol_rank) has no positive spectral
    term. Otherwise this is ``rank_numeric(a)``."""
    a = _decomposed_psd(a, tol, full=False)
    evals = a.base._eigvalsh
    return a, int(np.count_nonzero(evals > scaled(tol.tol_rank, _spectral_norm(evals))))


def _descending_spectral_terms(
    a: PsdMatrix, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of A above the rank threshold in descending order, and
    the matching eigenvectors as columns. Ties resolve through the
    deterministic eigenvector gauge of ``eig``."""
    dec = eig(a.base)
    thr = scaled(tol.tol_rank, _spectral_norm(dec.eigenvalues))
    order = np.argsort(-dec.eigenvalues, kind="stable")
    order = order[dec.eigenvalues[order] > thr]
    return dec.eigenvalues[order], dec.eigenvectors[:, order]


def _spectral_sum(lams: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sum_i lams[i] v_i v_i* over the columns v_i of vecs, as one product."""
    return (vecs * lams) @ vecs.conj().T


def rank_two_counterexample(
    a, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[PsdMatrix, PsdMatrix]:
    """For rank >= 2 PSD A: two elements of [0, A] that are incomparable,
    built from A's top two spectral directions."""
    a = as_psd(a, tol)
    lams, vecs = _descending_spectral_terms(a, tol)
    if len(lams) < 2:
        raise ValidationError("A must have rank >= 2")
    e = as_psd(float(lams[0]) * rank_one(vecs[:, 0], vecs[:, 0]), tol)
    f = as_psd(float(lams[1]) * rank_one(vecs[:, 1], vecs[:, 1]), tol)
    return e, f


def is_rank_one_by_order(a, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Decide rank A = 1 through totality of the interval [0, A].

    Rank >= 2 is refuted deterministically: two scaled spectral
    eigenprojections of A lie in [0, A] and are incomparable. Rank 1 needs
    no sample: there [0, A] is exactly {tA : 0 <= t <= 1}, and sA <= tA
    whenever s <= t, so the interval is totally ordered by construction.
    """
    a, r = _psd_rank(a, tol)
    if r == 0:
        raise ValidationError("zero matrix has no rank-1 test")
    if r == 1:
        return True
    e, f = rank_two_counterexample(a, tol)
    if not (leq(e, a, tol) and leq(f, a, tol)):
        raise InternalInconsistencyError("rank-2 counterexample is not below A")
    if leq(e, f, tol) or leq(f, e, tol):
        raise InternalInconsistencyError("rank-2 counterexample pair is comparable")
    return False


def rank_gt_np1_witness(
    a, n: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> RankWitness | None:
    """Witness that rank A > n+1, or None when rank A <= n+1.

    E is the sum of the first n spectral terms (descending eigenvalues), F
    the sum of the rest; both are minorants of A with disjoint ranges. Each
    is formed as one product (V diag(lambda)) V* over its eigenvectors, and
    ``as_psd`` certifies it.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    a, r = _psd_rank(a, tol)
    if r <= n + 1:
        return None
    lams, vecs = _descending_spectral_terms(a, tol)
    return RankWitness(
        E=as_psd(_spectral_sum(lams[:n], vecs[:, :n]), tol),
        F=as_psd(_spectral_sum(lams[n:], vecs[:, n:]), tol),
        n=n,
    )


def check_rank_witness(
    a, w: RankWitness, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Independently re-check every RankWitness invariant against A."""
    a = as_psd(a, tol)
    return (
        leq(w.E, a, tol)
        and leq(w.F, a, tol)
        and rank_numeric(w.E, tol) == w.n
        and rank_numeric(w.F, tol) > 1
        and no_common_rank1_minorant(w.E, w.F, tol)
    )


def no_common_rank1_minorant(e, f, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff no rank-1 PSD G has G <= E and G <= F, i.e. iff
    rng E and rng F intersect trivially (stacked-basis rank test)."""
    e = as_psd(e, tol)
    f = as_psd(f, tol)
    if e.dim != f.dim:
        raise DimensionMismatchError(f"dimension mismatch: {e.dim} vs {f.dim}")
    cols = range_basis(e, tol) + range_basis(f, tol)
    if not cols:
        return True
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.count_nonzero(s > scaled(tol.tol_rank, float(s[0])))) == len(cols)
