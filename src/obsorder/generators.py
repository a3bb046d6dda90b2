"""Every random draw of the library. Each generator consumes its
``numpy.random.Generator`` in a fixed order and amount, so one seed fixes a
suite trial, a probe set or a counterexample search."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hermitian import rank_numeric, rank_one, symmetrize

# largest condition number of a drawn invertible matrix
CONDITION_CAP = 1e4


def random_uniform(rng: np.random.Generator, d: int) -> np.ndarray:
    """d x d complex matrix with real and imaginary parts uniform in [-1, 1)."""
    return rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """The Hermitian part of ``random_uniform``."""
    return symmetrize(random_uniform(rng, d))


def random_hermitians(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """An (n, d, d) stack of ``random_hermitian`` draws in one call: the same
    bits and the same stream as n calls in a row. The stack is built and
    symmetrized in place, and the uniform draw dropped first, so that at
    most two stacks' worth of memory is held at once."""
    u = rng.uniform(-1.0, 1.0, (n, 2, d, d))
    m = np.empty((n, d, d), dtype=np.complex128)
    m.real, m.imag = u[:, 0], u[:, 1]
    del u
    m *= 0.5
    m += m.conj().swapaxes(1, 2)  # symmetrize: conj() is a new array, not a view of m
    return m


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
