"""Theorem-level verification suites and their independent references.

Each suite turns one statement (lemma, theorem, corollary) into a seeded,
replayable pass/fail run. Trials derive independent sub-seeds from
(suite seed, dimension, trial index), so parallel or interleaved execution
cannot change a report.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .automorphism import OrderAutomorphism, apply, gauge_distance, invert, reconstruct
from .errors import ObsOrderError, ValidationError
from .generators import (
    random_automorphism,
    random_hermitian,
    random_invertible,
    random_psd,
    random_unit,
    random_unitary,
)
from .hermitian import MAX_DIM, as_psd, herm_array, range_basis, rank_numeric, rank_one
from .loewner import leq, range_dominates
from .oracle import from_automorphism
from .order_rank import check_rank_witness, is_rank_one_by_order, rank_gt_np1_witness
from .preservers import (
    RelationKind,
    complementary,
    orthogonal,
    preserves_relation,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances, scaled

# ---------------------------------------------------------------------------
# Independent feasibility oracle (bisection on the order predicate)
# ---------------------------------------------------------------------------

def bisection_max_lambda(
    x: np.ndarray,
    b,
    rel_tol: float = 1e-9,
    feas_floor: float = 1e-12,
) -> float | None:
    """Largest lambda with lambda * x(x)x <= B found by pure bisection on
    PSD feasibility of B - lambda * x(x)x. Independent of the closed form
    in B's eigenbasis that ``max_lambda`` uses.
    """
    b = herm_array(b)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    p = rank_one(x, x)
    norm_b = float(np.max(np.abs(np.linalg.eigvalsh(b))))
    floor = feas_floor * max(1.0, norm_b)
    start = 1e-6 * max(1.0, norm_b)

    def feasible(lam: float) -> bool:
        # Below the start lambda the floor shrinks in proportion to lambda.
        # An x with weight w = |x_perp|^2 outside rng B has a negative
        # eigenvalue of at most -lambda * w, so it stays infeasible at every
        # lambda unless w <= floor / start, as it is at the start itself.
        return float(np.linalg.eigvalsh(b - lam * p)[0]) >= -floor * min(1.0, lam / start)

    lo = start
    if feasible(lo):
        hi = max(2.0 * norm_b, lo * 2.0)
        while feasible(hi):
            hi *= 2.0
            if hi > 1e12 * max(1.0, norm_b):  # safety, unreachable for unit x
                return None
    else:
        # the answer is below the start: halve down to a feasible lambda,
        # but not below 1e3 * floor
        while True:
            hi, lo = lo, 0.5 * lo
            if lo < 1e3 * floor:
                return None
            if feasible(lo):
                break
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    dims: list[int]
    trials: int
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "dims": self.dims,
            "trials": self.trials,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }


def _trial_rng(seed: int, dim: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, dim, index])


def _suite_lemma_rng(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    r = int(rng.integers(1, dim + 1))
    b = random_psd(rng, dim, r)
    inside = bool(rng.integers(0, 2)) and r < dim
    if inside or r == dim:
        # x a random combination of B's range: guaranteed dominated
        coeffs = rng.normal(size=r) + 1j * rng.normal(size=r)
        basis = range_basis(b, tol)
        x = sum(c * v for c, v in zip(coeffs, basis))
        x = x / np.linalg.norm(x)
    else:
        x = random_unit(rng, dim)
    a = rank_one(x, x)
    got = range_dominates(as_psd(a, tol), as_psd(b, tol), tol)
    oracle = bisection_max_lambda(x, b) is not None
    if got != oracle:
        return [f"range_dominates={got} but bisection oracle says {oracle}"]
    return []


def _suite_lemma_rank(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    failures = []
    r = int(rng.integers(1, dim + 1))
    a = as_psd(random_psd(rng, dim, r), tol)
    for n in range(1, dim - 1):
        w = rank_gt_np1_witness(a, n, tol)
        if (w is not None) != (r > n + 1):
            failures.append(f"witness existence mismatch: rank={r}, n={n}, got={w is not None}")
        if w is not None and not check_rank_witness(a, w, tol):
            failures.append(f"witness invariants failed at rank={r}, n={n}")
    if is_rank_one_by_order(a) != (r == 1):
        failures.append(f"is_rank_one_by_order disagrees with rank={r}")
    return failures


def _suite_thm1(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    failures = []
    t = random_invertible(rng, dim)
    conj = bool(rng.integers(0, 2))
    phi = OrderAutomorphism.create(t, conjugate=conj)  # cone map: X = 0
    inv = invert(phi)
    sv = np.linalg.svd(t, compute_uv=False)
    lo, hi = float(sv[-1]) ** 2, float(sv[0]) ** 2
    for _ in range(5):
        r = int(rng.integers(1, dim + 1))
        a = random_psd(rng, dim, r)
        fa = apply(phi, a)
        # Ostrowski: lambda_k(T A T*) = theta_k lambda_k(A), s_min^2 <= theta_k <= s_max^2
        # (entrywise conjugation keeps the spectrum of A)
        ea = np.linalg.eigvalsh(a)
        efa = np.linalg.eigvalsh(fa.mat)
        norm = float(np.max(np.abs(efa)))
        slack = 1e-12 * norm
        if np.any(efa < lo * ea - slack):
            failures.append("congruence put an eigenvalue below Ostrowski's lower bound")
        if np.any(efa > hi * ea + slack):
            failures.append("congruence put an eigenvalue above Ostrowski's upper bound")
        # the rank is only decidable when the image's smallest nonzero
        # eigenvalue provably clears the rank cut; with cond(T) up to
        # generators.CONDITION_CAP it can fall below it
        decidable = lo * float(ea[dim - r]) > 10.0 * scaled(tol.tol_rank, norm)
        if decidable and rank_numeric(fa, tol) != r:
            failures.append(f"congruence changed rank {r} -> {rank_numeric(fa, tol)}")
        p = random_psd(rng, dim, dim, (0.1, 1.0))
        b = a + p
        fb = apply(phi, b)
        if not (leq(fa, fb, tol) and leq(apply(inv, a), apply(inv, b), tol)):
            failures.append("congruence failed to preserve a constructed <= pair")
        if leq(fb, fa, tol):
            failures.append("congruence created a spurious reverse ordering")
    return failures


def _suite_thm2(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    phi0 = random_automorphism(rng, dim)
    report = reconstruct(from_automorphism(phi0), seed=int(rng.integers(2**31)), tol=tol)
    failures = []
    rec = report.recovered
    if gauge_distance(rec.T, phi0.T) > 1e-6:
        failures.append(f"T mismatch beyond 1e-06 (residual {report.max_residual:.2e})")
    if float(np.max(np.abs(rec.X.mat - phi0.X.mat))) > 1e-8:
        failures.append("X mismatch beyond 1e-8")
    if rec.conjugate != phi0.conjugate and not report.conjugate_degenerate:
        failures.append("conjugation flag mismatch")
    return failures


def _suite_thm2_illcond(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    # stress: cond(T) above the default cap, log10 uniform in (4, 6], relaxed residual
    s = np.geomspace(1.0, 10.0 ** (rng.uniform(0.0, 2.0) - 6.0), dim)
    t = (random_unitary(rng, dim) * s) @ random_unitary(rng, dim).conj().T
    phi0 = OrderAutomorphism.create(t, conjugate=bool(rng.integers(0, 2)), x=random_hermitian(rng, dim))
    try:
        report = reconstruct(from_automorphism(phi0), seed=int(rng.integers(2**31)), tol=tol)
    except (ObsOrderError, np.linalg.LinAlgError) as exc:  # loud, not wrong
        return [f"reconstruction raised: {exc}"]
    if gauge_distance(report.recovered.T, t) > 1e-3:
        return ["T mismatch beyond relaxed 1e-3"]
    return []


def _suite_cor3(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    failures = []
    # positive branch: unitary-scalar instance
    u = random_unitary(rng, dim)
    lam = float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(-1.0, 1.0))
    phi = OrderAutomorphism.create(
        np.sqrt(lam) * u, conjugate=bool(rng.integers(0, 2)), x=mu * np.eye(dim)
    )
    cls = preserves_relation(phi, RelationKind.COMMUTATIVITY, seed=int(rng.integers(2**31)), tol=tol)
    if not cls.preserves:
        failures.append("unitary-scalar automorphism misclassified as non-preserving")
    else:
        form = cls.canonical_form
        if abs(form.lam - lam) > 1e-6 * lam or abs(form.mu - mu) > 1e-6 * max(1, abs(mu)):
            failures.append("canonical (lambda, mu) mismatch")
    # negative branch: non-scalar T*T or non-scalar X
    if rng.integers(0, 2):
        t = random_invertible(rng, dim)
        if local_scalar(t.conj().T @ t) is not None:
            t = t @ np.diag(np.linspace(1.0, 2.0, dim))
        x = mu * np.eye(dim)
    else:
        t = np.sqrt(lam) * u
        x = random_hermitian(rng, dim)
        if local_scalar(x) is not None:
            x = x + np.diag(np.linspace(0.0, 1.0, dim))
    bad = OrderAutomorphism.create(t, conjugate=False, x=x)
    cls = preserves_relation(bad, RelationKind.COMMUTATIVITY, seed=int(rng.integers(2**31)), tol=tol)
    if cls.preserves:
        failures.append("non-preserving automorphism misclassified as preserving")
    else:
        ce = cls.counterexample
        if ce.holds_before == ce.holds_after:
            failures.append("counterexample does not separate the relation")
    return failures


def local_scalar(s: np.ndarray) -> float | None:
    evals = np.linalg.eigvalsh(s)
    if float(evals[-1] - evals[0]) <= 1e-9 * max(1.0, float(np.abs(evals).max())):
        return float(np.mean(evals))
    return None


def _suite_cor4(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    failures = []
    c = float(rng.uniform(-2.0, 2.0))
    b = random_hermitian(rng, dim)
    if not complementary(c * np.eye(dim), b, tol):
        failures.append("scalar not complementary to a random observable")
    # non-scalar A: violating partner shares an eigenvector
    a = random_hermitian(rng, dim)
    if local_scalar(a) is not None:
        a = a + np.diag(np.linspace(0.0, 1.0, dim))
    _, vecs = np.linalg.eigh(a)
    partner = rank_one(vecs[:, 0], vecs[:, 0])
    if complementary(a, partner, tol):
        failures.append("constructed shared-eigenvector partner not flagged")
    return failures


def _suite_cor5(dim: int, rng: np.random.Generator, tol: Tolerances) -> list[str]:
    failures = []
    phi = random_automorphism(rng, dim)
    if rng.integers(0, 3) == 0:
        # make a genuinely preserving instance part of the mix
        phi = OrderAutomorphism.create(
            float(rng.uniform(0.5, 2.0)) * random_unitary(rng, dim),
            conjugate=bool(rng.integers(0, 2)),
        )
    s = phi.T.conj().T @ phi.T
    analytic = local_scalar(s) is not None and float(
        np.max(np.abs(np.linalg.eigvalsh(phi.X.mat)))
    ) <= 1e-9 * max(1.0, float(np.abs(np.linalg.eigvalsh(s)).max()))
    cls = preserves_relation(phi, RelationKind.ORTHOGONALITY, seed=int(rng.integers(2**31)), tol=tol)
    if cls.preserves != analytic:
        failures.append(f"verdict {cls.preserves} disagrees with analytic {analytic}")
    if not cls.preserves:
        ce = cls.counterexample
        before = orthogonal(ce.a, ce.b, tol)
        after = orthogonal(apply(phi, ce.a), apply(phi, ce.b), tol)
        if before == after or before != ce.holds_before or after != ce.holds_after:
            failures.append("shipped counterexample fails re-verification")
    return failures


_SUITES = {
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm2-illcond": _suite_thm2_illcond,
    "lemma-rng": _suite_lemma_rng,
    "lemma-rank": _suite_lemma_rank,
    "cor3": _suite_cor3,
    "cor4": _suite_cor4,
    "cor5": _suite_cor5,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str,
    dims: list[int],
    trials: int,
    seed: int = 0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> SuiteReport:
    """Run one named suite; the report is a pure function of the arguments
    (wall time aside)."""
    if name not in _SUITES:
        raise ValidationError(f"unknown suite '{name}'; known: {', '.join(SUITE_NAMES)}")
    if not dims or trials < 1:
        raise ValidationError("a suite run needs at least one dim and one trial")
    for dim in dims:
        if not 2 <= dim <= MAX_DIM:
            raise ValidationError(f"suites require dimensions in [2, {MAX_DIM}], got {dim}")
    fn = _SUITES[name]
    start = time.perf_counter()
    failures = []
    for dim in dims:
        for k in range(trials):
            problems = fn(dim, _trial_rng(seed, dim, k), tolerances)
            if not problems:
                continue
            # the replay digest: the head of the trial's own stream
            digest = hashlib.sha256(_trial_rng(seed, dim, k).bytes(32)).hexdigest()[:16]
            for msg in problems:
                failures.append(
                    {
                        "seed": seed,
                        "dim": dim,
                        "trial": k,
                        "digest": digest,
                        "violated": msg,
                    }
                )
    elapsed = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        suite=name, dims=list(dims), trials=trials, failures=failures, elapsed_ms=elapsed
    )


def replay_trial(name: str, dim: int, trial: int, seed: int,
                 tolerances: Tolerances = DEFAULT_TOLERANCES) -> list[str]:
    """Re-run a single recorded trial; reproduces its failure bit-exactly."""
    if name not in _SUITES:
        raise ValidationError(f"unknown suite '{name}'")
    return _SUITES[name](dim, _trial_rng(seed, dim, trial), tolerances)
