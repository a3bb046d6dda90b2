"""The Loewner order on observables.

``A <= B`` iff ``<Ax, x> <= <Bx, x>`` for every vector ``x``, i.e. iff
``B - A`` is positive semidefinite. Besides the predicate this module
produces refuting witnesses, the extremal scalar ``lambda`` with
``lambda * x(x)x <= B`` (feasible exactly when ``x`` lies in the range of
``B``), and the rank-1 range-domination test built on it. Each operand is
decomposed once: ``compare`` reads everything off one ``eigh(B - A)``, and
``max_lambda`` and ``range_dominates`` work in the eigenbasis of ``B``.

The PSD threshold ``tol_psd * max(||A||, ||B||, 1)`` needs two spectral
norms, but it lies between ``tol_psd`` (the scale is at least 1) and
``tol_psd * max(||A||_F, ||B||_F, 1)`` (no spectral norm exceeds the
Frobenius norm). ``leq`` and ``compare`` therefore decide from the spectrum
of ``B - A`` alone wherever it falls outside that band, and compute the two
norms, with the exact rule, only inside it. The bounds hold in floating
point too (see ``_psd_verdicts``), so the verdicts are the exact rule's.

Most verdicts need no spectrum at all (``_certified``). With M = B - A and
frob = max(||A||_F, ||B||_F, 1) (1 + margin), the end lo of +-M is
refuted by a basis vector when a diagonal entry of +-M lies below
-tol_psd * frob - r, and certified when +-M + cI has a Cholesky factor,
c = tol_psd * max(1, frob / sqrt d) * (1 - margin) / 2 being at most half
the threshold. r = 8 d^2 u frob bounds the rounding of the eigensolver
and of the factor (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Ch. 10), so each certificate gives the verdict that
the spectrum of M would. The factor is tried at every d, but only while
r < c / 2; an end neither certificate decides takes the spectral rule
above. ``leq`` uses both certificates, and ``compare`` uses them for the
relations that carry no witness, LEQ and EQUAL.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    ValidationError,
)
from .hermitian import PsdMatrix, _spectral_norm, herm_array, psd_eigh, rank_one
from .tolerances import DEFAULT_TOLERANCES, GATE_MARGIN, Tolerances, scaled

# Noise floor used where a strict sign test is needed (see max_lambda).
_NOISE_FLOOR = 1e-13

_UNIT_ROUNDOFF = 0.5 * float(np.finfo(np.float64).eps)


class Relation(enum.Enum):
    LEQ = "LEQ"
    GEQ = "GEQ"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class OrderWitness:
    """Unit vector certifying <Ax,x> > <Bx,x>, refuting A <= B."""

    x: np.ndarray
    gap: float


@dataclass(frozen=True)
class OrderResult:
    relation: Relation
    witness_ab: OrderWitness | None = None  # refutes A <= B
    witness_ba: OrderWitness | None = None  # refutes B <= A


def _max_norm_scale(a: np.ndarray, b: np.ndarray) -> float:
    """max(||A||, ||B||, 1): the scale of the PSD threshold for a pair."""
    na = _spectral_norm(np.linalg.eigvalsh(a))
    nb = _spectral_norm(np.linalg.eigvalsh(b))
    return max(na, nb, 1.0)


def _frobenius_scale(a: np.ndarray, b: np.ndarray) -> float:
    """max(||A||_F, ||B||_F, 1) * (1 + margin): at least the computed
    ``_max_norm_scale``, and inf when a sum of squares overflows."""
    fa = math.sqrt(np.vdot(a, a).real)
    fb = math.sqrt(np.vdot(b, b).real)
    return max(fa, fb, 1.0) * (1.0 + GATE_MARGIN)


def _psd_verdicts(
    ends: tuple[float, ...], a: np.ndarray, b: np.ndarray, frob: float, tol: Tolerances
) -> list[bool]:
    """``m >= -tol_psd * _max_norm_scale(a, b)`` for each m in ``ends``.

    m >= -tol_psd is True, since the scale is at least 1, and
    m < -tol_psd * ``_frobenius_scale`` is False, since that scale is at
    least the spectral one (rounding is monotone, so both bounds survive
    the products). Only an m between the two pays for the spectral norms;
    an overflowing Frobenius scale decides nothing. ``frob`` is
    ``_frobenius_scale(a, b)``.
    """
    thr = None
    verdicts = []
    for m in ends:
        if m >= -tol.tol_psd:
            verdicts.append(True)
            continue
        if m < -tol.tol_psd * frob:
            verdicts.append(False)
            continue
        if thr is None:
            thr = tol.tol_psd * _max_norm_scale(a, b)
        verdicts.append(m >= -thr)
    return verdicts


def _certified(m: np.ndarray, sign: float, frob: float, tol: Tolerances) -> bool | None:
    """``_psd_verdicts``' verdict on the smallest eigenvalue lo of sign * m,
    m = B - A, decided without an eigensolver, or None; frob is
    ``_frobenius_scale(A, B)``.

    False when a diagonal entry of sign * m is below -tol_psd * frob - r:
    the exact lo is at most that entry, and a computed lo within r of the
    exact one, so it lies below the verdicts' False bound. True when sign * m + cI has a
    Cholesky factor: then lo >= -c - r > -1.5 c, while the threshold is at
    least 2c, since ||.|| >= ||.||_F / sqrt d. r = 8 d^2 u frob bounds the
    eigensolver's error and the factor's backward error (about
    d (d + 1) u ||sign * m + cI||, with ||m|| <= 2 frob) together. A
    non-finite frob decides nothing, and no factor is tried when
    r >= c / 2.
    """
    if not frob < math.inf:
        return None
    d = len(m)
    diag = m.diagonal().real
    low = float(diag.min()) if sign > 0 else -float(diag.max())
    r = 8.0 * d * d * _UNIT_ROUNDOFF * frob
    if low < -tol.tol_psd * frob - r:
        return False
    c = 0.5 * tol.tol_psd * max(1.0, frob / math.sqrt(d)) * (1.0 - GATE_MARGIN)
    if not r < 0.5 * c:
        return None
    shifted = m * sign
    shifted.ravel()[:: d + 1] += c
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    return True


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff B - A is PSD under tol_psd (non-strict; A = B gives True).

    The test is lo >= -tol_psd * max(||A||, ||B||, 1) with lo the smallest
    eigenvalue of B - A. A diagonal entry or a Cholesky factor decides most
    pairs (``_certified``); the others take one ``eigvalsh``. The two
    spectral norms are computed only when lo lies in
    [-tol_psd * max(||A||_F, ||B||_F, 1), -tol_psd), the one band where the
    threshold's bounds cannot decide; elsewhere the bounds give the same
    verdict.
    """
    a = herm_array(a)
    b = herm_array(b)
    _check_dims(a, b)
    m = b - a
    frob = _frobenius_scale(a, b)
    verdict = _certified(m, 1.0, frob, tol)
    if verdict is None:
        lo = float(np.linalg.eigvalsh(m)[0])
        verdict = _psd_verdicts((lo,), a, b, frob, tol)[0]
    return verdict


def _witness(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> OrderWitness:
    """Unit ``x`` refuting P <= Q, its gap <Px,x> - <Qx,x> recomputed from P
    and Q."""
    x = x / np.linalg.norm(x)
    gap = float(np.real(np.vdot(x, p @ x) - np.vdot(x, q @ x)))
    return OrderWitness(x=x, gap=gap)


def _relation_of(ab: bool, ba: bool) -> Relation:
    if ab:
        return Relation.EQUAL if ba else Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _spectral_ends(
    m: np.ndarray, a: np.ndarray, b: np.ndarray, frob: float, tol: Tolerances
) -> tuple[bool, bool, np.ndarray]:
    """``compare``'s spectral rule: the verdicts on both ends of one
    ``eigh(m)``, m = B - A, and its eigenvectors."""
    evals, evecs = np.linalg.eigh(m)
    ab, ba = _psd_verdicts((float(evals[0]), -float(evals[-1])), a, b, frob, tol)
    return ab, ba, evecs


def _relation(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> Relation:
    """``compare(a, b, tol).relation`` for checked Hermitian arrays of one
    shape, with no witness: each end by ``_certified``, and both by
    ``compare``'s spectral rule when either is undecided."""
    m = b - a
    frob = _frobenius_scale(a, b)
    ab = _certified(m, 1.0, frob, tol)
    ba = None if ab is None else _certified(m, -1.0, frob, tol)
    if ba is None:
        ab, ba, _ = _spectral_ends(m, a, b, frob, tol)
    return _relation_of(ab, ba)


def compare(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> OrderResult:
    """Relation of A to B from the ends lo and hi of the spectrum of B - A.

    A <= B iff lo >= -thr and B <= A iff -hi >= -thr, with
    thr = tol_psd * max(||A||, ||B||, 1); both together are
    max(-lo, hi) <= thr, i.e. EQUAL. LEQ and EQUAL carry no witness, so
    when ``_certified`` decides A <= B True and B <= A either way, no
    spectrum is computed. Every other pair takes one ``eigh(B - A)``: the
    bottom eigenvector refutes A <= B and the top one refutes B <= A. As in
    ``leq``, the norms in thr are computed only when lo or -hi lies in the
    band its bounds cannot decide, and then once for both ends.
    """
    a = herm_array(a)
    b = herm_array(b)
    _check_dims(a, b)
    m = b - a
    frob = _frobenius_scale(a, b)
    if _certified(m, 1.0, frob, tol):
        ba = _certified(m, -1.0, frob, tol)
        if ba is not None:
            return OrderResult(relation=_relation_of(True, ba))
    ab, ba, evecs = _spectral_ends(m, a, b, frob, tol)
    relation = _relation_of(ab, ba)
    if ab:
        return OrderResult(relation=relation)
    witness_ab = _witness(evecs[:, 0], a, b)
    if ba:
        return OrderResult(relation=relation, witness_ab=witness_ab)
    return OrderResult(
        relation=relation,
        witness_ab=witness_ab,
        witness_ba=_witness(evecs[:, -1], b, a),
    )


def _range_weight(
    evals: np.ndarray, evecs: np.ndarray, x: np.ndarray, tol: Tolerances
) -> tuple[float, float]:
    """Split unit x over PSD B = V diag(mu) V*, with c = V* x.

    The range of B keeps each mu_i that is at least tol_psd * ||B|| (smaller
    ones count as zero) and whose root sqrt(mu_i) exceeds
    tol_rank * max(sqrt ||B||, 1), the rank cut at the scale of sqrt B.
    Returns the norm of c off that range (the range residual) and
    sum |c_i|^2 / mu_i over it, the squared norm of B^(-1/2) x on the range.
    """
    norm = _spectral_norm(evals)
    root = np.sqrt(np.where(evals >= tol.tol_psd * norm, evals, 0.0))
    keep = root > tol.tol_rank * max(np.sqrt(norm), 1.0)
    c = evecs.conj().T @ x
    residual = float(np.linalg.norm(c[~keep]))
    weight = float(np.sum(np.abs(c[keep] / root[keep]) ** 2))
    return residual, weight


def _certified_max_lambda(
    x: np.ndarray,
    b: PsdMatrix,
    evals: np.ndarray,
    evecs: np.ndarray,
    tol: Tolerances,
) -> float | None:
    """``max_lambda`` for unit x and B with eigenpairs (evals, evecs)."""
    residual, weight = _range_weight(evals, evecs, x, tol)
    if residual > tol.tol_range:
        return None
    lam = 1.0 / weight

    p = rank_one(x, x)
    scale = max(_spectral_norm(evals), lam, 1.0)
    if not leq(lam * p, b, tol):
        raise InternalInconsistencyError(
            "closed-form lambda is infeasible under the order predicate"
        )
    bumped = (1.0 + 10.0 * tol.tol_psd) * lam
    lo = float(np.linalg.eigvalsh(b.mat - bumped * p)[0])
    if lo > _NOISE_FLOOR * scale:
        raise InternalInconsistencyError(
            "closed-form lambda is not extremal: bumped value still feasible"
        )
    return lam


def max_lambda(
    x, b, tol: Tolerances = DEFAULT_TOLERANCES
) -> float | None:
    """Largest lambda > 0 with lambda * x(x)x <= B, or None when infeasible.

    With B = sum_i mu_i v_i v_i*, feasibility holds exactly when x lies in
    the range of B (the coefficients c_i = <x, v_i> vanish off it); then the
    extremum is 1 / sum_i |c_i|^2 / mu_i over the range. One ``eigh(B)``
    gives both. The closed form is implementer derived, so it is
    cross-checked against the order predicate itself: lambda must be
    feasible and a slightly bumped lambda infeasible. The bumped side uses a
    raw sign test (noise floor instead of the one-sided PSD tolerance): the
    bump shifts the bottom eigenvalue by an amount that can be legitimately
    smaller than tol_psd * ||B||.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    b, evals, evecs = psd_eigh(b, tol)
    if x.size != b.dim:
        raise DimensionMismatchError(f"vector length {x.size} vs matrix dim {b.dim}")
    nrm = float(np.linalg.norm(x))
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails this too
        raise ValidationError(f"x must be a unit vector, got norm {nrm}")
    return _certified_max_lambda(x / nrm, b, evals, evecs, tol)


def range_dominates(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff some lambda > 0 has lambda * A <= B, for rank-1 PSD A.

    Decided by the range criterion (rng A inside rng B, read in B's
    eigenbasis) and cross-checked by the certified max_lambda on the unit
    vector spanning rng A. Each operand is decomposed once.
    """
    a, a_evals, a_evecs = psd_eigh(a, tol)
    b, b_evals, b_evecs = psd_eigh(b, tol)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # rank and range of A under the rank_numeric / range_basis cut
    keep = np.abs(a_evals) > scaled(tol.tol_rank, float(np.max(np.abs(a_evals))))
    if np.count_nonzero(keep) != 1:
        raise ValidationError("range_dominates requires rank-1 A")
    x = a_evecs[:, int(np.argmax(keep))]

    residual, _ = _range_weight(b_evals, b_evecs, x, tol)
    in_range = residual <= tol.tol_range
    lam = _certified_max_lambda(x, b, b_evals, b_evecs, tol)
    if (lam is not None) != in_range:
        raise InternalInconsistencyError(
            "range criterion and extremal-lambda feasibility disagree"
        )
    return in_range
