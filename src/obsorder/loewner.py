"""The Loewner order on observables.

``A <= B`` iff ``<Ax, x> <= <Bx, x>`` for every vector ``x``, i.e. iff
``B - A`` is positive semidefinite. Besides the predicate this module
produces refuting witnesses, the extremal scalar ``lambda`` with
``lambda * x(x)x <= B`` (feasible exactly when ``x`` lies in the range of
``B``), and the rank-1 range-domination test built on it. Each operand is
decomposed at most once: ``compare`` reads everything off one
``eigh(B - A)``, and ``max_lambda`` and ``range_dominates`` work in the
eigenbasis of ``B``. There the vector y = B^+ x refutes the bumped lambda
by its quadratic form (Rayleigh), and ``range_dominates`` takes A's
direction from one power step where that step is accurate. The residual of
that step usually certifies A PSD and of rank 1 as well, so A needs no
spectrum at all; otherwise one ``eigvalsh`` does.

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
relations that carry no witness, LEQ and EQUAL. The factor test is
``hermitian._shift_factors``, which also certifies 0 <= A for ``as_psd``.

When frob overflows, B - A may too; the pair is then divided by its
largest entry modulus and decided by the spectral rule alone (``_pair``).
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
from .hermitian import (
    _UNIT_ROUNDOFF,
    PsdMatrix,
    _decomposed_psd,
    _frobenius_scale,
    _rounding_radius,
    _scaled_projector,
    _shift_factors,
    _spectral_norm,
    as_hermitian,
    herm_array,
    rank_one,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances, scaled

# Noise floor used where a strict sign test is needed (see max_lambda).
_NOISE_FLOOR = 1e-13


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


def _pair(a: np.ndarray, b: np.ndarray):
    """``(a, b, m, frob, s)``: the checked pair divided by s, m = b - a and
    frob = ``_frobenius_scale(a, b)`` of the pair as given.

    s is 1 unless frob is inf. A finite frob is at most about 1.3e154 (its
    square is finite), so no entry of B - A can overflow then. Otherwise the
    pair is divided by s = max(peak(A), peak(B)), and frob stays inf, which
    decides nothing (``_certified``, ``_psd_verdicts``): the verdicts come
    from the spectral rule on the quotients, whose threshold
    tol_psd * max(||A / s||, ||B / s||, 1) is the pair's own divided by s,
    since one of the two norms is at least 1 (a norm bounds every entry).
    """
    frob = _frobenius_scale(a, b)
    if frob < math.inf:
        return a, b, b - a, frob, 1.0
    s = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    a = a / s
    b = b / s
    return a, b, b - a, frob, s


def _psd_verdicts(
    ends: tuple[float, ...], a: np.ndarray, b: np.ndarray, frob: float, tol: Tolerances
) -> list[bool]:
    """``m >= -tol_psd * _max_norm_scale(a, b)`` for each m in ``ends``,
    with (a, b, frob) from ``_pair``.

    m >= -tol_psd is True, since the scale is at least 1, and
    m < -tol_psd * ``_frobenius_scale`` is False, since that scale is at
    least the spectral one (rounding is monotone, so both bounds survive
    the products). Only an m between the two pays for the spectral norms.
    An overflowing Frobenius scale decides nothing: every end then takes
    the spectral threshold of the pair, which ``_pair`` has divided by s.
    """
    if not frob < math.inf:
        thr = tol.tol_psd * _max_norm_scale(a, b)
        return [m >= -thr for m in ends]
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
    the exact lo is at most that entry, and a computed lo within
    r = ``_rounding_radius(d, frob)`` of the exact one, so it lies below the
    verdicts' False bound. True when sign * m + cI has a Cholesky factor
    (``_shift_factors``). A non-finite frob decides nothing.
    """
    if not frob < math.inf:
        return None
    diag = m.diagonal().real
    low = float(diag.min()) if sign > 0 else -float(diag.max())
    if low < -tol.tol_psd * frob - _rounding_radius(len(m), frob):
        return False
    return True if _shift_factors(m, sign, frob, tol) else None


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
    a, b, m, frob, s = _pair(a, b)
    verdict = _certified(m, 1.0, frob, tol)
    if verdict is None:
        lo = float(np.linalg.eigvalsh(m)[0])
        verdict = _psd_verdicts((lo,), a, b, frob, tol)[0]
    return verdict


def _witness(x: np.ndarray, p: np.ndarray, q: np.ndarray, s: float) -> OrderWitness:
    """Unit ``x`` refuting sP <= sQ, its gap s(<Px,x> - <Qx,x>) recomputed
    from P and Q (inf when it exceeds the float range)."""
    x = x / np.linalg.norm(x)
    gap = s * float(np.real(np.vdot(x, p @ x) - np.vdot(x, q @ x)))
    return OrderWitness(x=x, gap=gap)


def _relation_of(ab: bool, ba: bool) -> Relation:
    if ab:
        return Relation.EQUAL if ba else Relation.LEQ
    return Relation.GEQ if ba else Relation.INCOMPARABLE


def _spectral_ends(
    m: np.ndarray, a: np.ndarray, b: np.ndarray, frob: float, tol: Tolerances
) -> tuple[bool, bool, np.ndarray]:
    """``compare``'s spectral rule: the verdicts on both ends of one
    ``eigh(m)``, m = B - A, and its eigenvectors; the arguments are
    ``_pair``'s."""
    evals, evecs = np.linalg.eigh(m)
    ab, ba = _psd_verdicts((float(evals[0]), -float(evals[-1])), a, b, frob, tol)
    return ab, ba, evecs


def _relation(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> Relation:
    """``compare(a, b, tol).relation`` for checked Hermitian arrays of one
    shape, with no witness: each end by ``_certified``, and both by
    ``compare``'s spectral rule when either is undecided."""
    a, b, m, frob, s = _pair(a, b)
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
    a, b, m, frob, s = _pair(a, b)
    if _certified(m, 1.0, frob, tol):
        ba = _certified(m, -1.0, frob, tol)
        if ba is not None:
            return OrderResult(relation=_relation_of(True, ba))
    ab, ba, evecs = _spectral_ends(m, a, b, frob, tol)
    relation = _relation_of(ab, ba)
    if ab:
        return OrderResult(relation=relation)
    witness_ab = _witness(evecs[:, 0], a, b, s)
    if ba:
        return OrderResult(relation=relation, witness_ab=witness_ab)
    return OrderResult(
        relation=relation,
        witness_ab=witness_ab,
        witness_ba=_witness(evecs[:, -1], b, a, s),
    )


def _range_coordinates(
    evals: np.ndarray, evecs: np.ndarray, x: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit x in the eigenbasis of PSD B = V diag(mu) V*: (c, keep, root)
    with c = V* x, keep the mask of B's range and root = sqrt(mu) on it.

    The range of B keeps each mu_i that is at least tol_psd * ||B|| (smaller
    ones count as zero) and whose root sqrt(mu_i) exceeds
    tol_rank * max(sqrt ||B||, 1), the rank cut at the scale of sqrt B.
    """
    norm = _spectral_norm(evals)
    root = np.sqrt(np.where(evals >= tol.tol_psd * norm, evals, 0.0))
    keep = root > tol.tol_rank * max(np.sqrt(norm), 1.0)
    return evecs.conj().T @ x, keep, root


def _range_weight(
    c: np.ndarray, keep: np.ndarray, root: np.ndarray
) -> tuple[float, float]:
    """From ``_range_coordinates``: the norm of c off the range of B (the
    range residual) and sum |c_i|^2 / mu_i over it, the squared norm of
    B^(-1/2) x on the range."""
    residual = float(np.linalg.norm(c[~keep]))
    weight = float(np.sum(np.abs(c[keep] / root[keep]) ** 2))
    return residual, weight


def _certified_max_lambda(x: np.ndarray, b: PsdMatrix, tol: Tolerances) -> float | None:
    """``max_lambda`` for unit x and B, in B's eigenbasis (its ``_eigh``).

    The closed form lambda = 1 / weight is certified through the order: it
    must be feasible for x's projection x_r = V_r c_r onto the kept range
    of B (``leq(lambda x_r x_r*, B)``), for which it is exactly the
    extremum, and the bumped lambda' = (1 + 10 tol_psd) lambda infeasible
    for x, by the sign test lo(B - lambda' P) <= floor * scale. The
    projection matters when x leans off the range: a lean w up to
    tol_range passes the range test, but lambda x x* <= B fails by about
    lambda w, beyond the order's tol_psd when w > tol_psd. The vector
    y = B^+ x, read off the same eigenpairs, usually settles the second
    test without a spectrum: lo <= <(B - lambda' P) y, y> / ||y||^2
    (Rayleigh), which is -10 tol_psd <B^+ x, x> / ||y||^2 in exact
    arithmetic. The form is computed from B itself, so when it is at most
    (floor * scale - r) ||y||^2 the computed lo would pass the test too;
    r = ``_rounding_radius(d, ||B|| + lambda')`` bounds the rounding of
    that form and of the eigensolver on B - lambda' P. Otherwise the test
    runs on one ``eigvalsh``.
    """
    evals, evecs = b.base._eigh
    c, keep, root = _range_coordinates(evals, evecs, x, tol)
    residual, weight = _range_weight(c, keep, root)
    if residual > tol.tol_range:
        return None
    lam = 1.0 / weight

    norm = _spectral_norm(evals)
    scale = max(norm, lam, 1.0)
    kept = evecs[:, keep]
    if not leq(_scaled_projector(kept @ c[keep], lam), b, tol):
        raise InternalInconsistencyError(
            "closed-form lambda is infeasible under the order predicate"
        )
    bumped = (1.0 + 10.0 * tol.tol_psd) * lam
    y = kept @ (c[keep] / evals[keep])
    form = float(np.vdot(y, b.mat @ y).real) - bumped * abs(np.vdot(x, y)) ** 2
    r = _rounding_radius(b.dim, norm + bumped)
    if form <= (_NOISE_FLOOR * scale - r) * float(np.vdot(y, y).real):
        return lam
    lo = float(np.linalg.eigvalsh(b.mat - bumped * rank_one(x, x))[0])
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
    feasible for x's projection onto the range (x may lean off it by up to
    tol_range) and a slightly bumped lambda infeasible. The bumped side uses a
    raw sign test (noise floor instead of the one-sided PSD tolerance): the
    bump shifts the bottom eigenvalue by an amount that can be legitimately
    smaller than tol_psd * ||B||.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    b = _decomposed_psd(b, tol, full=True)
    if x.size != b.dim:
        raise DimensionMismatchError(f"vector length {x.size} vs matrix dim {b.dim}")
    nrm = float(np.linalg.norm(x))
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails this too
        raise ValidationError(f"x must be a unit vector, got norm {nrm}")
    return _certified_max_lambda(x / nrm, b, tol)


def _power_step(a: np.ndarray, diag: np.ndarray, j: int) -> np.ndarray:
    """Unit x ~ A A[:, j], A's column j after one power step. The two
    divisions by A[j, j] keep the step's entries near 1 at any norm."""
    x = a @ (a[:, j] / diag[j]) / diag[j]
    x /= np.linalg.norm(x)
    return x


def _certified_rank_one_step(a: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """The power step x that ``range_dominates`` takes for A, when its
    residual shows that the ``eigvalsh`` path would certify A PSD, find it
    of rank 1 and take that same step; otherwise None.

    j is A's largest diagonal entry. With mu = <Ax, x> and
    e = ||A - mu x x*||_F, A's eigenvalues lie within e of {mu, 0, ..., 0}
    (Weyl), and the computed ones within e + r: r = 16 (d + 1)^2 u F,
    F = max(||A||_F, 1), is at least twice the eigensolver's
    ``_rounding_radius``, and the rest covers the rounding of x, mu, e and
    of the tests below (each a few d u F). So lo = mu - e - r bounds the
    computed ||A|| from below and mu + e + r from above, every other
    computed eigenvalue is at most e + r in modulus, and each test gives
    one verdict of the spectral path:

    - lo > tol_rank * max(mu + e + r, 1): the top eigenvalue clears the
      rank cut;
    - e + r <= tol_rank * max(lo, 1): no other does, so A has rank 1;
    - e + r <= tol_psd * max(lo, 1): the PSD test passes;
    - ((e + r) / lo)^2 d <= 1e-3 tol_range: rho, at most (e + r) / lo,
      passes the gate of the power step.

    A NaN fails every test. The step is tried only when
    d A[j, j] > ||A||_F / 2, as for every nonzero PSD A
    (A[j, j] >= tr A / d >= ||A||_F / d), which keeps its entries finite.
    """
    d = len(a)
    fa = math.sqrt(np.vdot(a, a).real)
    diag = a.diagonal().real
    j = int(np.argmax(diag))
    if not d * diag[j] > 0.5 * fa:  # also False for a zero or overflowing A
        return None
    x = _power_step(a, diag, j)
    mu = float(np.vdot(x, a @ x).real)
    er = float(np.linalg.norm(a - np.outer(mu * x, x.conj())))
    er += 16.0 * (d + 1) * (d + 1) * _UNIT_ROUNDOFF * max(fa, 1.0)
    lo = mu - er
    if (
        lo > tol.tol_rank * max(mu + er, 1.0)
        and er <= tol.tol_rank * max(lo, 1.0)
        and er <= tol.tol_psd * max(lo, 1.0)
        and (er / lo) ** 2 * d <= 1e-3 * tol.tol_range
    ):
        return x
    return None


def _spectral_rank_one_step(a: PsdMatrix, tol: Tolerances) -> np.ndarray:
    """The direction x spanning rng A from A's ``_eigvalsh``:
    ValidationError unless exactly one clears the rank cut, then the power
    step when rho^2 d <= 1e-3 tol_range, and otherwise A's top eigenvector
    from its ``_eigh``."""
    a_evals = a.base._eigvalsh
    # rank of A under the rank_numeric cut
    norm = _spectral_norm(a_evals)
    keep = np.abs(a_evals) > scaled(tol.tol_rank, norm)
    if np.count_nonzero(keep) != 1:
        raise ValidationError("range_dominates requires rank-1 A")
    # the kept eigenvalue has the largest modulus, so it ends the ascending
    # a_evals, and the next largest modulus ends the rest
    rest = a_evals[:-1] if keep[-1] else a_evals[1:]
    rho = _spectral_norm(rest) / norm if a.dim > 1 else 0.0
    if rho * rho * a.dim <= 1e-3 * tol.tol_range:
        diag = a.mat.diagonal().real
        return _power_step(a.mat, diag, int(np.argmax(diag)))
    evals, evecs = a.base._eigh
    return evecs[:, int(np.argmax(np.abs(evals)))]


def range_dominates(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff some lambda > 0 has lambda * A <= B, for rank-1 PSD A.

    That holds iff the unit vector x spanning rng A lies in rng B, and it is
    decided by the certified max_lambda on x, read in B's eigenbasis (one
    ``eigh(B)``). x is A's column j of largest diagonal after one power
    step, x ~ A A[:, j], when that is safe: with rho = lambda_2 / lambda_1,
    the two largest eigenvalue moduli of A, the step leaves x at an angle
    below rho^2 d to the top eigenvector (A[j, j] >= tr A / d puts a share
    of about 1 / d of x on it). The rank cut bounds rho by tol_rank only when
    ||A|| >= 1, being absolute below, and the user may widen it, so the step
    is taken only when rho^2 d <= 1e-3 tol_range; otherwise x is A's top
    eigenvector from one ``eigh(A)``.

    A's PSD certificate, rank cut and rho come from one ``eigvalsh`` on the
    spectral path. Most rank-1 A skip it: the residual of the power step
    bounds A's spectrum tightly enough to give the same three verdicts
    (``_certified_rank_one_step``), and then the same x.
    """
    h = as_hermitian(a)
    x = _certified_rank_one_step(h.mat, tol)
    if x is None:
        a = _decomposed_psd(a if isinstance(a, PsdMatrix) else h, tol, full=False)
    b = _decomposed_psd(b, tol, full=True)
    if h.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {h.dim} vs {b.dim}")
    if x is None:
        x = _spectral_rank_one_step(a, tol)
    return _certified_max_lambda(x, b, tol) is not None
