"""Relation predicates (commutativity, complementarity, orthogonality) and
classifiers deciding whether an order-automorphism additionally preserves
each relation.

The classification is analytic: commutativity or complementarity survive
exactly when T*T is scalar and X is scalar, orthogonality exactly when T*T
is scalar and X = 0. When an automorphism fails the criterion, a concrete
counterexample pair is searched for and re-verified through the predicates.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .automorphism import OrderAutomorphism, apply, invert
from .errors import DimensionMismatchError, SearchExhaustedError
from .generators import random_hermitian, random_uniform
from .hermitian import (
    HermitianMatrix,
    _decomposed_psd,
    _spectral_norm,
    as_hermitian,
    eig,
    herm_array,
    rank_one,
)
from .tolerances import DEFAULT_TOLERANCES, GATE_MARGIN, Tolerances, scaled

# Relative tolerance for the analytic scalar tests (T*T = lambda I, X = mu I).
SCALAR_TOL = 1e-9


class RelationKind(enum.Enum):
    COMMUTATIVITY = "COMMUTATIVITY"
    COMPLEMENTARITY = "COMPLEMENTARITY"
    ORTHOGONALITY = "ORTHOGONALITY"


@dataclass(frozen=True)
class CanonicalForm:
    """phi(A) = lambda U A U* + mu I with U unitary (or antiunitary when the
    flag is set); mu is absent for the orthogonality classification."""

    U: np.ndarray
    antiunitary: bool
    lam: float
    mu: float | None


@dataclass(frozen=True)
class Counterexample:
    a: np.ndarray
    b: np.ndarray
    holds_before: bool
    holds_after: bool


@dataclass(frozen=True)
class PreserverClassification:
    preserves: bool
    canonical_form: CanonicalForm | None = None
    counterexample: Counterexample | None = None


def _norm_product_scale(a: np.ndarray, b: np.ndarray) -> float:
    return max(1.0, _spectral_norm(np.linalg.eigvalsh(a)) * _spectral_norm(np.linalg.eigvalsh(b)))


def _frobenius(m: np.ndarray) -> float:
    """||M||_F summed over M / max |m_ij|, so that no square underflows (a
    lost tiny factor would shrink the bound on ||A|| ||B||) or overflows."""
    peak = float(np.max(np.abs(m)))
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    unit = m / peak
    return peak * math.sqrt(np.vdot(unit, unit).real)


def _small_against_norm_product(
    m: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerances
) -> bool:
    """||M||_2 <= tol_psd * max(1, ||A|| ||B||), the test of ``commute`` and
    ``orthogonal``.

    ||M||_F / sqrt(d) <= ||M||_2 <= ||M||_F and
    ||A||_F ||B||_F / d <= ||A|| ||B|| <= ||A||_F ||B||_F bracket both
    sides, so the Frobenius norms decide the test outside a band around the
    threshold (at most a factor d^3 wide); only inside it, or when a bound
    overflows, are the SVD of M and the two spectral norms computed, with
    the exact rule.
    """
    d = m.shape[0]
    fm = _frobenius(m)
    prod = _frobenius(a) * _frobenius(b)
    if math.isfinite(fm) and math.isfinite(prod):
        if fm * (1.0 + GATE_MARGIN) <= tol.tol_psd * max(1.0, prod / d):
            return True
        if fm > math.sqrt(d) * tol.tol_psd * max(1.0, prod) * (1.0 + GATE_MARGIN):
            return False
    return float(np.linalg.norm(m, 2)) <= tol.tol_psd * _norm_product_scale(a, b)


def commute(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """||AB - BA|| small relative to ||A|| ||B|| (compatibility)."""
    a = herm_array(a)
    b = herm_array(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return _small_against_norm_product(a @ b - b @ a, a, b, tol)


def orthogonal(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """AB = 0, equivalently mutually orthogonal ranges."""
    a = herm_array(a)
    b = herm_array(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return _small_against_norm_product(a @ b, a, b, tol)


def _eigen_clusters(m, tol: Tolerances) -> list[np.ndarray]:
    """Single-linkage clustering of the spectrum at gap tol_rank * scale;
    returns one orthonormal column block per eigenvalue cluster."""
    dec = eig(m)
    evals = dec.eigenvalues
    gap = scaled(tol.tol_rank, _spectral_norm(evals))
    blocks: list[list[int]] = [[0]]
    for i in range(1, evals.size):
        if evals[i] - evals[i - 1] > gap:
            blocks.append([i])
        else:
            blocks[-1].append(i)
    return [np.ascontiguousarray(dec.eigenvectors[:, idx]) for idx in blocks]


def complementary(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Every nontrivial spectral projection of A has trivially intersecting
    range with every nontrivial spectral projection of B.

    Spectral projections are sums of eigenprojections over nonempty proper
    subsets of eigenvalue clusters. Scalars have no nontrivial projections,
    so they are complementary to everything.
    """
    a = as_hermitian(a)  # wrapped, so that eig takes it unchecked
    b = as_hermitian(b)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = a.dim
    ca = _eigen_clusters(a, tol)
    cb = _eigen_clusters(b, tol)
    if len(ca) == 1 or len(cb) == 1:
        return True

    # Two subspaces whose dimensions sum above d always intersect; the
    # largest nontrivial projections are the leave-one-cluster-out sums.
    max_a = d - min(blk.shape[1] for blk in ca)
    max_b = d - min(blk.shape[1] for blk in cb)
    if max_a + max_b > d:
        return False

    # With k >= 2 clusters the smallest has dimension <= d/2, so a pair gets
    # here only when each operand has exactly two clusters of dimension d/2.
    # The nontrivial projections are then the single clusters, and each of
    # the four pairs must span the whole space. The clusters are orthogonal
    # complements, so A_2 ∩ B_2 = (A_1 + B_1)^⊥ and A_2 ∩ B_1 = (A_1 + B_2)^⊥:
    # the two pairs of A_1 decide all four.
    for pb in cb:
        s = np.linalg.svd(np.column_stack([ca[0], pb]), compute_uv=False)
        if int(np.count_nonzero(s > scaled(tol.tol_rank, float(s[0])))) < d:
            return False
    return True


def local_linear_dependence_scalar(m) -> float | None:
    """lambda when the PSD matrix equals lambda I (eigenvalue spread within
    tolerance), else None."""
    evals = _decomposed_psd(m, DEFAULT_TOLERANCES, full=False).base._eigvalsh
    spread = float(evals[-1] - evals[0])
    if spread <= SCALAR_TOL * max(1.0, _spectral_norm(evals)):
        return float(np.mean(evals))
    return None


def _scalar_part(x: HermitianMatrix) -> float | None:
    """mu when X = mu I within tolerance, else None (X of any sign)."""
    d = x.dim
    mu = float(np.real(np.trace(x.mat))) / d
    resid = float(np.linalg.norm(x.mat - mu * np.eye(d), 2))
    if resid <= SCALAR_TOL * max(1.0, _spectral_norm(x._eigvalsh)):
        return mu
    return None


def _relation_predicate(kind: RelationKind, tol: Tolerances):
    if kind is RelationKind.COMMUTATIVITY:
        return lambda a, b: commute(a, b, tol)
    if kind is RelationKind.ORTHOGONALITY:
        return lambda a, b: orthogonal(a, b, tol)
    return lambda a, b: complementary(a, b, tol)


def _counterexample_candidates(
    phi: OrderAutomorphism, kind: RelationKind, rng: np.random.Generator
):
    """Candidate pairs, cheapest and most promising first, then random.
    A candidate is a raw array or, where it is already checked, a
    ``HermitianMatrix``."""
    d = phi.dim
    zero = np.zeros((d, d), dtype=np.complex128)

    s = phi.T.conj().T @ phi.T
    evals, evecs = np.linalg.eigh(s)
    if float(evals[-1] - evals[0]) > SCALAR_TOL * max(1.0, float(evals[-1])):
        # orthogonal pair mixing extreme eigendirections of T*T: images of
        # x(x)x and y(x)y fail both commutativity and orthogonality
        x = (evecs[:, -1] + evecs[:, 0]) / np.sqrt(2.0)
        y = (evecs[:, -1] - evecs[:, 0]) / np.sqrt(2.0)
        yield rank_one(x, x), rank_one(y, y)

    if kind is not RelationKind.COMPLEMENTARITY:
        # zero relates to everything; a non-scalar (or nonzero) X breaks it
        for _ in range(4):
            yield zero, random_hermitian(rng, d)
    else:
        # scalars are complementary to everything; map a shared-eigenvector
        # partner back through the inverse. The scalars and the images are
        # yielded wrapped, so that each is checked once.
        inv = invert(phi)
        for scalar in (zero, np.eye(d, dtype=np.complex128)):
            scalar = as_hermitian(scalar)
            img_evals, img_evecs = np.linalg.eigh(apply(phi, scalar).mat)
            for j in (0, d - 1):
                v = img_evecs[:, j]
                yield scalar, apply(inv, rank_one(v, v))
        # preimage of a scalar (the last one, I): complementary to everything
        # after the map but (for non-scalar T*T) to almost nothing before it
        e1 = np.zeros(d, dtype=np.complex128)
        e1[0] = 1.0
        yield rank_one(e1, e1), apply(inv, scalar)

    while True:
        if kind is RelationKind.COMMUTATIVITY:
            a = random_hermitian(rng, d)
            yield a, a @ a  # commuting by functional calculus
        elif kind is RelationKind.ORTHOGONALITY:
            q, _ = np.linalg.qr(random_uniform(rng, d))
            yield rank_one(q[:, 0], q[:, 0]), rank_one(q[:, 1], q[:, 1])
        else:
            a = random_hermitian(rng, d)
            yield a, random_hermitian(rng, d)


def preserves_relation(
    phi: OrderAutomorphism,
    kind: RelationKind,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PreserverClassification:
    """Decide preservation analytically from (T, X); when the answer is no,
    produce a verified counterexample pair."""
    # s = T*T wrapped once: both of its tests read its one eigvalsh
    s = as_hermitian(phi.T.conj().T @ phi.T)
    lam = local_linear_dependence_scalar(s)
    if kind is RelationKind.ORTHOGONALITY:
        x_norm = _spectral_norm(phi.X._eigvalsh)
        x_ok = x_norm <= SCALAR_TOL * max(1.0, _spectral_norm(s._eigvalsh))
        mu = None
    else:
        mu = _scalar_part(phi.X)
        x_ok = mu is not None

    if lam is not None and x_ok:
        u = phi.T / np.sqrt(lam)
        return PreserverClassification(
            preserves=True,
            canonical_form=CanonicalForm(
                U=u, antiunitary=phi.conjugate, lam=lam, mu=mu
            ),
        )

    relation = _relation_predicate(kind, tol)
    rng = np.random.default_rng(seed)
    for a, b in itertools.islice(_counterexample_candidates(phi, kind, rng), trials):
        ha, hb = as_hermitian(a), as_hermitian(b)
        before = relation(ha, hb)
        after = relation(apply(phi, ha), apply(phi, hb))
        if before != after:
            # a raw candidate is reported as given, a wrapped one as its array
            return PreserverClassification(
                preserves=False,
                counterexample=Counterexample(
                    a=ha.mat if a is ha else a,
                    b=hb.mat if b is hb else b,
                    holds_before=before,
                    holds_after=after,
                ),
            )
    raise SearchExhaustedError(
        f"analytic test says {kind.value} is not preserved but no counterexample "
        f"was found in {trials} attempts"
    )
