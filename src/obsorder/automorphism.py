"""Congruence order-automorphisms A -> T A T* + X (optionally composed with
entrywise conjugation in the standard basis) and their reconstruction from a
black-box oracle.

The map determines T only up to a global unit-modulus phase; a fixed gauge
(largest-magnitude entry of T's first column made real positive) makes every
output deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    OracleNotAutomorphicError,
    ValidationError,
)
from .generators import random_hermitian, random_hermitians, random_uniform
from .hermitian import (
    HermitianMatrix,
    _check_square_finite,
    _freeze,
    as_hermitian,
    herm_array,
    rank_one,
    symmetrize,
)
from .loewner import _relation
from .oracle import OracleHandle, frame_capacity
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# Structure and validation threshold for reconstruction (relative residual).
RECON_TOL = 1e-6

# Largest cond(psi(I)) = cond(T)^2 at which reconstruct reads T from the pencil
# (psi(D), psi(I)). Measured at d = 3..64: gauge error under 1e-7 up to 9e8;
# at 1e10 the validation residual failed in up to 87% of maps. The spectral
# read of _pencil_columns keeps the column error under 2e-7 at 9e8, d = 2..64.
PENCIL_COND_CAP = 1e9

# Random Hermitian probes whose images must match the recovered map.
VALIDATION_PROBES = 20

PHASE_GAUGE_RULE = "largest-magnitude entry of the first column of T made real positive"


@dataclass(frozen=True)
class OrderAutomorphism:
    """Triple (T invertible, conjugation flag, Hermitian X) realizing
    A -> T A T* + X, or A -> T conj(A) T* + X when ``conjugate`` is set."""

    T: np.ndarray
    conjugate: bool
    X: HermitianMatrix

    @classmethod
    def create(
        cls, t, conjugate: bool = False, x=None, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "OrderAutomorphism":
        t = _check_square_finite(t)
        t = np.array(t, order="C")  # a copy: the caller's array stays writable
        s = np.linalg.svd(t, compute_uv=False)
        if not float(s[-1]) > tol.tol_rank * float(s[0]):  # a NaN fails this too
            raise ValidationError(
                f"T is numerically singular (sigma_min/sigma_max = {s[-1]/s[0]:.3e})"
            )
        if x is None:
            x = np.zeros_like(t)
        x = as_hermitian(x)
        if x.dim != t.shape[0]:
            raise DimensionMismatchError("X and T have different dimensions")
        t.flags.writeable = False
        return cls(T=t, conjugate=bool(conjugate), X=x)

    @property
    def dim(self) -> int:
        return self.T.shape[0]


def _images(phi: OrderAutomorphism, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """symmetrize(T K(a) T* + X) of a checked Hermitian a or (n, d, d) stack,
    and whether each T K(a) T* + X is finite: the one place the map is
    formed. Matmul runs one product per matrix, so a stack's images are bit
    for bit those of its matrices alone."""
    out = phi.T @ (a.conj() if phi.conjugate else a) @ phi.T.conj().T + phi.X.mat
    return symmetrize(out), np.isfinite(np.abs(out).max(axis=(-2, -1)))


def apply(phi: OrderAutomorphism, a) -> HermitianMatrix:
    """T A T* + X (conjugating A entrywise first when the flag is set), by
    ``_images``: A is checked once, the product only for finiteness."""
    arr = herm_array(a)
    if arr.shape[0] != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {arr.shape[0]} vs {phi.dim}")
    out, finite = _images(phi, arr)
    if not finite:
        raise ValidationError("matrix entries must be finite")
    return HermitianMatrix(mat=_freeze(out))


def compose(f: OrderAutomorphism, g: OrderAutomorphism) -> OrderAutomorphism:
    """The automorphism A -> f(g(A)); conjugation flags combine by XOR."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")
    tg = g.T.conj() if f.conjugate else g.T
    t = f.T @ tg
    x = apply(f, g.X)
    return OrderAutomorphism.create(t, conjugate=f.conjugate != g.conjugate, x=x)


def invert(phi: OrderAutomorphism) -> OrderAutomorphism:
    """The inverse map; solves T K(A) T* + X = B for A (K = optional
    conjugation), giving T' = K(T^-1) with the same flag."""
    tinv = np.linalg.inv(phi.T)
    t = tinv.conj() if phi.conjugate else tinv
    xk = phi.X.mat.conj() if phi.conjugate else phi.X.mat
    x = -(t @ xk @ t.conj().T)
    return OrderAutomorphism.create(t, conjugate=phi.conjugate, x=x)


# ---------------------------------------------------------------------------
# Reconstruction from a black-box oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    recovered: OrderAutomorphism
    phase_gauge: str
    max_residual: float
    probes_used: int
    conjugate_degenerate: bool = False


def gauge_fix(t: np.ndarray) -> np.ndarray:
    """Multiply T by the unit scalar making the largest-magnitude entry of
    its first column real positive."""
    col = t[:, 0]
    i = int(np.argmax(np.abs(col)))
    pivot = col[i]
    if abs(pivot) == 0.0:
        return t.copy()
    return t * (pivot.conjugate() / abs(pivot))


def gauge_distance(t_rec: np.ndarray, t_gen: np.ndarray) -> float:
    """min over unit phases of ||t_rec - e^{i theta} t_gen|| / ||t_gen||."""
    inner = complex(np.trace(t_gen.conj().T @ t_rec))
    theta = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(t_rec - theta * t_gen) / np.linalg.norm(t_gen))


def _column_from_rank_one(m: np.ndarray, what: str) -> np.ndarray:
    """Recover t (up to phase) from a matrix that must equal t t*."""
    evals, evecs = np.linalg.eigh(m)
    norm = float(np.max(np.abs(evals)))
    if norm == 0.0 or float(evals[-1]) <= 0.0:
        raise OracleNotAutomorphicError(f"{what}: image is not a nonzero PSD matrix")
    if float(evals[0]) < -RECON_TOL * norm:
        raise OracleNotAutomorphicError(f"{what}: image of a PSD probe is not PSD")
    others = np.abs(evals[:-1])
    if others.size and float(others.max()) > RECON_TOL * norm:
        raise OracleNotAutomorphicError(f"{what}: image of a rank-1 probe has rank > 1")
    return evecs[:, -1] * np.sqrt(float(evals[-1]))


def _conjugation_probe(d: int) -> np.ndarray:
    e = np.eye(d)
    w = (e[0] + 1j * e[1]) / np.sqrt(2.0)
    return rank_one(w, w)


def _basis_columns(images: Iterator[np.ndarray], x: np.ndarray) -> np.ndarray:
    cols = [_column_from_rank_one(next(images) - x, f"basis probe {j}") for j in range(len(x))]
    return np.column_stack(cols)


def _pencil_columns(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """T's columns up to phase from P = TT* and Q = TDT*: with P = U diag(e) U*
    and L = U diag(e)^(1/2), P = LL* and L^-1 Q L^-* = W D W* for the unitary
    W = L^-1 T, so cols = LW (the reduction of the definite pencil (Q, P) by
    the spectral decomposition of P; Golub & Van Loan, *Matrix
    Computations*, 8.7). L^-* = U diag(e)^(-1/2) needs no solve, and cond(P)
    is read off the same e."""
    e, u = np.linalg.eigh(p)
    if not 0.0 < e[-1] <= PENCIL_COND_CAP * e[0]:
        raise OracleNotAutomorphicError("pencil: psi(I) is not well-conditioned positive definite")
    root = np.sqrt(e)
    l_inv_h = u / root
    lam, w = np.linalg.eigh(l_inv_h.conj().T @ q @ l_inv_h)
    off = float(np.max(np.abs(lam - np.arange(1, len(p) + 1))))
    # calibrated: at most 2e-7 * d at cond(P) = 9e8, d = 2..64
    if not off <= RECON_TOL * len(p):
        raise OracleNotAutomorphicError(f"pencil: eigenvalues off 1, ..., d by {off:.3e}")
    return (u * root) @ w


def _residuals(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The relative max-abs residual of each matrix of an (n, d, d) stack."""
    return np.abs(got - want).max(axis=(1, 2)) / np.maximum(np.abs(got).max(axis=(1, 2)), 1.0)


def _fit(cols: np.ndarray, x: np.ndarray, images: Iterator[np.ndarray], checks: list,
         tol: Tolerances) -> tuple[OrderAutomorphism, float, bool]:
    """The map, its validation residual and whether the flag is degenerate,
    from T's columns up to phase and the next images: all-ones, conjugation,
    then one per validation probe. ``checks`` holds the validation probes as
    (n, d, d) blocks; each block's images are compared with
    ``_images(recovered, block)`` at once, and its per-matrix relative
    max-abs residuals taken in one pass."""
    d = len(x)

    # one phase per column from T v = sum_j t_j / sqrt(d)
    tv = _column_from_rank_one(next(images) - x, "all-ones probe")
    try:
        c = np.linalg.solve(cols, tv * np.sqrt(d))
    except np.linalg.LinAlgError:
        raise OracleNotAutomorphicError(
            "images of the basis probes are linearly dependent"
        ) from None
    mag = np.abs(c)
    off = float(np.max(np.abs(mag - 1.0)))
    if not off <= RECON_TOL:
        raise OracleNotAutomorphicError(
            f"all-ones probe: column weights off the unit circle by {off:.3e}"
        )
    t = gauge_fix(cols * (c / mag))

    # conjugation flag
    mw = next(images) - x
    pw = _conjugation_probe(d)
    pred_lin = t @ pw @ t.conj().T
    pred_conj = t @ pw.conj() @ t.conj().T
    scale = max(float(np.max(np.abs(mw))), 1.0)
    fit_lin = float(np.max(np.abs(mw - pred_lin))) <= RECON_TOL * scale
    fit_conj = float(np.max(np.abs(mw - pred_conj))) <= RECON_TOL * scale
    if not (fit_lin or fit_conj):
        raise OracleNotAutomorphicError(
            "conjugation probe matches neither the linear nor the conjugate-linear branch"
        )
    degenerate = fit_lin and fit_conj
    conjugate = fit_conj and not fit_lin

    recovered = OrderAutomorphism.create(t, conjugate=conjugate, x=x, tol=tol)

    # validation on random Hermitian probes, negative parts included; each
    # probe is exactly Hermitian, so this is apply(recovered, a) bit for bit
    # without re-wrapping it. No block's arrays outlive its _residuals call,
    # so none is alive while the next block is mapped.
    residuals = [_residuals(np.stack([next(images) for _ in block]), _images(recovered, block)[0])
                 for block in checks]
    # NaN, from an overflowing T, propagates
    max_residual = float(np.max(np.concatenate(residuals)))
    if not max_residual <= RECON_TOL:
        raise OracleNotAutomorphicError(
            f"validation residual {max_residual:.3e} exceeds {RECON_TOL:.0e}"
        )
    return recovered, max_residual, degenerate


def reconstruct(
    oracle: OracleHandle,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ReconstructionReport:
    """Recover (T, conjugate flag, X) from a black-box order-automorphism.

    The zero matrix fixes X. T's columns up to phase come from the pencil
    read: psi(I) = TT* and psi(D) = TDT*, D = diag(1, ..., d) (psi = image -
    X). The all-ones projection gives Tv up to one global phase, and solving
    cols . c = Tv sqrt(d) fixes every column phase at once (each c_j must
    have modulus 1); one complex superposition decides the conjugation flag;
    ``VALIDATION_PROBES`` random Hermitian matrices (not only PSD) populate
    the residual, which must not exceed ``RECON_TOL``. They are drawn in one
    call and checked in blocks of at most ``oracle.FRAME_BUDGET_BYTES`` of
    matrix bytes, the size of a stack frame (``oracle.frame_capacity``):
    one block of 20 at d <= 8, blocks of 16 and 4 at d = 32, 5 blocks of 4
    at d = 64.

    At every d >= 2 the plan is zero, I, D, the all-ones and conjugation
    probes and the validation probes: 25 calls. No probe of it depends on an
    earlier answer, so it goes to the oracle as one stream
    (``OracleHandle.query_many``) and is answered whole before any check. If
    any pencil check fails (cond(psi(I)) above ``PENCIL_COND_CAP``,
    psi(D)'s eigenvalues 1, ..., d, the column weights, the conjugation fit
    or the validation residual), the d basis projections go
    out as a second stream, and the basis read takes T's columns from their
    images t_j t_j* and reuses the other images: 25 + d calls.
    """
    d = oracle.dim
    if d < 2:
        raise ValidationError("reconstruction requires dimension >= 2")
    start_calls = oracle.calls
    rng = np.random.default_rng(seed)
    probes = random_hermitians(rng, VALIDATION_PROBES, d)
    size = frame_capacity(d)
    checks = [probes[k:k + size] for k in range(0, VALIDATION_PROBES, size)]
    v = np.ones(d, dtype=np.complex128) / np.sqrt(d)
    zero = np.zeros((d, d), dtype=np.complex128)
    x, p, q, *held = oracle.query_many([zero, np.eye(d), np.diag(np.arange(1.0, d + 1)),
                                        rank_one(v, v), _conjugation_probe(d), *probes])
    try:
        fit = _fit(_pencil_columns(p - x, q - x), x, iter(held), checks, tol)
    except (OracleNotAutomorphicError, np.linalg.LinAlgError):
        basis = (rank_one(e, e) for e in np.eye(d))
        fit = _fit(_basis_columns(oracle.query_many(basis), x), x, iter(held), checks, tol)
    recovered, max_residual, degenerate = fit

    return ReconstructionReport(
        recovered=recovered,
        phase_gauge=PHASE_GAUGE_RULE,
        max_residual=max_residual,
        probes_used=oracle.calls - start_calls,
        conjugate_degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Order-preservation check of a black-box map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderCheckReport:
    trials: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _order_pair(rng: np.random.Generator, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial k's pair (A, B): B = A + GG*, so A <= B, at even k, Hermitian
    only up to rounding; an independent draw at odd k."""
    a = random_hermitian(rng, d)
    if k % 2 == 0:
        g = random_uniform(rng, d)
        return a, a + g @ g.conj().T
    return a, random_hermitian(rng, d)


def check_order_automorphism(
    oracle: OracleHandle,
    trials: int = 200,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OrderCheckReport:
    """Sample ordered and unordered pairs and verify two-way preservation of
    the relation through the oracle.

    Trial k draws a pair (A, B) and compares the relation of A to B with
    that of their images, as ``compare`` decides it, without witnesses
    (``loewner._relation``). The 2 * ``trials`` probes go to the oracle as
    one stream (``OracleHandle.query_many``), drawn in trial order as the
    handle takes them, so a pair is held only until its images are back.
    """
    if trials < 1:
        raise ValidationError(f"an order check needs at least one trial, got {trials}")
    d = oracle.dim
    rng = np.random.default_rng(seed)
    pending = deque()

    def probes() -> Iterator[np.ndarray]:
        for k in range(trials):
            pair = _order_pair(rng, d, k)
            pending.append(pair)
            yield from pair

    images = oracle.query_many(probes())
    violations = []
    for k in range(trials):
        after = _relation(next(images), next(images), tol)
        a, b = pending.popleft()
        before = _relation(a, symmetrize(b), tol)
        if before != after:
            violations.append(
                {"trial": k, "before": before.value, "after": after.value}
            )
    return OrderCheckReport(trials=trials, violations=violations)
