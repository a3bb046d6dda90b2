"""Congruence order-automorphisms A -> T A T* + X (optionally composed with
entrywise conjugation in the standard basis) and their reconstruction from a
black-box oracle.

The map determines T only up to a global unit-modulus phase; a fixed gauge
(largest-magnitude entry of T's first column made real positive) makes every
output deterministic.
"""

from __future__ import annotations

import itertools
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
    as_hermitian,
    herm_array,
    rank_one,
    symmetrize,
)
from .loewner import compare
from .oracle import OracleHandle, frame_capacity
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# Structure and validation threshold for reconstruction (relative residual).
RECON_TOL = 1e-6

# Largest cond(psi(I)) = cond(T)^2 at which reconstruct reads T from the pencil
# (psi(D), psi(I)). Measured at d = 3..64: gauge error under 1e-7 up to 9e8;
# at 1e10 the validation residual failed in up to 87% of maps.
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
        t, _ = _check_square_finite(t)
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


def apply(phi: OrderAutomorphism, a) -> HermitianMatrix:
    """T A T* + X (conjugating A entrywise first when the flag is set)."""
    arr = herm_array(a)
    if arr.shape[0] != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {arr.shape[0]} vs {phi.dim}")
    if phi.conjugate:
        arr = arr.conj()
    out = phi.T @ arr @ phi.T.conj().T + phi.X.mat
    return HermitianMatrix.hermitian_part(out)


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
    """T's columns up to phase from P = TT* and Q = TDT*: with P = LL*,
    L^-1 Q L^-* = W D W* for the unitary W = L^-1 T, and cols = LW (the
    Cholesky reduction of the definite pencil (Q, P); Golub & Van Loan,
    *Matrix Computations*, 8.7)."""
    evals = np.linalg.eigvalsh(p)
    if not 0.0 < evals[-1] <= PENCIL_COND_CAP * evals[0]:
        raise OracleNotAutomorphicError("pencil: psi(I) is not well-conditioned positive definite")
    l = np.linalg.cholesky(p)
    lam, w = np.linalg.eigh(np.linalg.solve(l, np.linalg.solve(l, q).conj().T))
    off = float(np.max(np.abs(lam - np.arange(1, len(p) + 1))))
    if not off <= RECON_TOL * len(p):  # calibrated: under 7e-8 * d up to PENCIL_COND_CAP
        raise OracleNotAutomorphicError(f"pencil: eigenvalues off 1, ..., d by {off:.3e}")
    return l @ w


def _fit(cols: np.ndarray, x: np.ndarray, images: Iterator[np.ndarray], checks: list,
         tol: Tolerances) -> tuple[OrderAutomorphism, float, bool]:
    """The map, its validation residual and whether the flag is degenerate,
    from T's columns up to phase and the next images: all-ones, conjugation,
    then one per validation probe. ``checks`` holds the validation probes as
    (n, d, d) blocks; each block's images are compared with
    symmetrize(T K(block) T* + X) at once, and its per-matrix relative
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
    # without re-wrapping it (matmul runs one product per matrix of a block)
    t_star = t.conj().T
    residuals = []
    for block in checks:
        got = np.stack([next(images) for _ in block])
        want = symmetrize(t @ (block.conj() if conjugate else block) @ t_star + x)
        peak = np.abs(got).max(axis=(1, 2))
        residuals.append(np.abs(got - want).max(axis=(1, 2)) / np.maximum(peak, 1.0))
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
    read at d >= 3: psi(I) = TT* and psi(D) = TDT*, D = diag(1, ..., d)
    (psi = image - X); or from the basis read: the images t_j t_j* of the d
    basis projections. The all-ones projection gives Tv up to one global
    phase, and solving cols . c = Tv sqrt(d) fixes every column phase at once
    (each c_j must have modulus 1); one complex superposition decides the
    conjugation flag; ``VALIDATION_PROBES`` random Hermitian matrices (not
    only PSD) populate the residual, which must not exceed ``RECON_TOL``.
    They are drawn and checked in blocks of at most
    ``oracle.FRAME_BUDGET_BYTES`` of matrix bytes, the size of a stack
    frame: one block of 20 at d <= 8, blocks of 4 at d = 32, one probe per
    block at d = 64.

    At d >= 3 the plan is zero, I, D, the all-ones and conjugation probes
    and the validation probes: 25 calls. If any pencil
    check fails (cond(psi(I)) above ``PENCIL_COND_CAP``, the Cholesky
    factor, psi(D)'s eigenvalues 1, ..., d, the column weights, the
    conjugation fit or the validation residual), the basis projections go
    out as a second stream and the basis read reuses the other images:
    d + 25 calls. At d = 2, where the pencil saves no probe, the plan is the
    basis read's: d + 23 calls.

    No probe of the first stream depends on an earlier answer, so it goes to
    the oracle as one stream (``OracleHandle.query_many``). At d >= 3 all of
    it is answered before any check; at d = 2 the basis and all-ones checks
    each read the next image and the validation reads a block of images at
    a time. An oracle that answers in stacks (a ``SubprocessOracle`` or the
    handle of ``oracle.from_automorphism``) may therefore have been sent up
    to one block of ``frame_capacity(d)`` probes beyond a failing check.
    """
    d = oracle.dim
    if d < 2:
        raise ValidationError("reconstruction requires dimension >= 2")
    start_calls = oracle.calls
    rng = np.random.default_rng(seed)
    size = frame_capacity(d)
    checks = [random_hermitians(rng, min(size, VALIDATION_PROBES - k), d)
              for k in range(0, VALIDATION_PROBES, size)]
    v = np.ones(d, dtype=np.complex128) / np.sqrt(d)
    tail = [rank_one(v, v), _conjugation_probe(d), *itertools.chain.from_iterable(checks)]
    zero = np.zeros((d, d), dtype=np.complex128)
    basis = (rank_one(e, e) for e in np.eye(d))
    if d == 2:
        images = oracle.query_many(itertools.chain([zero], basis, tail))
        x = next(images)
        fit = _fit(_basis_columns(images, x), x, images, checks, tol)
    else:
        x, p, q, *held = oracle.query_many([zero, np.eye(d), np.diag(np.arange(1.0, d + 1)), *tail])
        try:
            fit = _fit(_pencil_columns(p - x, q - x), x, iter(held), checks, tol)
        except (OracleNotAutomorphicError, np.linalg.LinAlgError):
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


def check_order_automorphism(
    oracle: OracleHandle,
    trials: int = 200,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OrderCheckReport:
    """Sample ordered and unordered pairs and verify two-way preservation of
    the relation through the oracle."""
    d = oracle.dim
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(trials):
        a = random_hermitian(rng, d)
        if k % 2 == 0:
            g = random_uniform(rng, d)
            b = a + g @ g.conj().T  # forced a <= b
        else:
            b = random_hermitian(rng, d)
        before = compare(a, b, tol).relation
        after = compare(oracle.query(a), oracle.query(b), tol).relation
        if before != after:
            violations.append(
                {"trial": k, "before": before.value, "after": after.value}
            )
    return OrderCheckReport(trials=trials, violations=violations)
