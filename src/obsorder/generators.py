"""Every random draw of the library. Each generator consumes its
``numpy.random.Generator`` in a fixed order and amount, so one seed fixes a
suite trial, a probe set or a counterexample search."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hermitian import rank_numeric, rank_one, symmetrize

# largest condition number of a drawn invertible matrix
CONDITION_CAP = 1e4


class Kind(enum.Enum):
    HERMITIAN = "HERMITIAN"
    PSD = "PSD"
    PSD_RANK = "PSD_RANK"
    RANK_ONE = "RANK_ONE"
    INVERTIBLE = "INVERTIBLE"
    UNITARY = "UNITARY"
    AUTOMORPHISM = "AUTOMORPHISM"


@dataclass(frozen=True)
class GeneratorSpec:
    dim: int
    kind: Kind
    rank: int | None = None
    spectrum_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if self.rank is not None and not (1 <= self.rank <= self.dim):
            raise ValidationError(f"rank must be in [1, dim], got {self.rank}")
        lo, hi = self.spectrum_range
        if not (0.0 < lo <= hi):
            raise ValidationError(f"spectrum_range must be 0 < lo <= hi, got {self.spectrum_range}")


def random_uniform(rng: np.random.Generator, d: int) -> np.ndarray:
    """d x d complex matrix with real and imaginary parts uniform in [-1, 1)."""
    return rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """The Hermitian part of ``random_uniform``."""
    return symmetrize(random_uniform(rng, d))


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    return x / np.linalg.norm(x)


def random_psd(
    rng: np.random.Generator, d: int, r: int, spectrum: tuple[float, float] = (0.5, 2.0)
) -> np.ndarray:
    # sum of r random rank-ones; resample on the (rare) near-degenerate draw
    for _ in range(100):
        m = np.zeros((d, d), dtype=np.complex128)
        for _ in range(r):
            lam = rng.uniform(*spectrum)
            x = random_unit(rng, d)
            m += lam * rank_one(x, x)
        if rank_numeric(m) == r:
            return m
    raise ValidationError(f"could not generate a rank-{r} PSD matrix at d={d}")


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))  # Haar once the QR phase gauge is fixed


def random_invertible(rng: np.random.Generator, d: int) -> np.ndarray:
    for _ in range(100):
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = np.linalg.svd(t, compute_uv=False)
        if s[0] / s[-1] <= CONDITION_CAP:
            return t
    raise ValidationError("could not draw a well-conditioned invertible matrix")


def random_automorphism(rng: np.random.Generator, d: int):
    from .automorphism import OrderAutomorphism

    t = random_invertible(rng, d)
    conj = bool(rng.integers(0, 2))
    x = random_hermitian(rng, d)
    return OrderAutomorphism.create(t, conjugate=conj, x=x)


def generate(spec: GeneratorSpec):
    """Deterministic sample for the given spec (same spec, same output)."""
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    if spec.kind is Kind.HERMITIAN:
        return random_hermitian(rng, d)
    if spec.kind is Kind.PSD:
        return random_psd(rng, d, d, spec.spectrum_range)
    if spec.kind is Kind.PSD_RANK:
        if spec.rank is None:
            raise ValidationError("PSD_RANK requires a rank")
        return random_psd(rng, d, spec.rank, spec.spectrum_range)
    if spec.kind is Kind.RANK_ONE:
        return random_psd(rng, d, 1, spec.spectrum_range)
    if spec.kind is Kind.INVERTIBLE:
        return random_invertible(rng, d)
    if spec.kind is Kind.UNITARY:
        return random_unitary(rng, d)
    if spec.kind is Kind.AUTOMORPHISM:
        return random_automorphism(rng, d)
    raise ValidationError(f"unknown generator kind: {spec.kind}")
