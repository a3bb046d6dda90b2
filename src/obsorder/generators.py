"""Every random draw of the library. Each generator consumes its
``numpy.random.Generator`` in a fixed order and amount, so one seed fixes a
suite trial, a probe set or a counterexample search."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hermitian import rank_numeric, rank_one, symmetrize

# largest condition number of a drawn invertible matrix
CONDITION_CAP = 1e4

# matrix bytes per block of random_hermitians. Symmetrizing through a
# transposed view walks the stack column-wise, which is cheap only while a
# block stays in cache: for 20 probes at d = 64 (1.3 MB) it took 1.2 ms in
# one block and 0.2 ms in blocks of 4, and the whole draw 1.8 against
# 0.8 ms (best of 5 x 100 calls, one CPU of a shared 2-vCPU VM).
_BLOCK_BYTES = 256 * 1024


def random_uniform(rng: np.random.Generator, d: int) -> np.ndarray:
    """d x d complex matrix with real and imaginary parts uniform in [-1, 1)."""
    return rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """The Hermitian part of ``random_uniform``."""
    return symmetrize(random_uniform(rng, d))


def random_hermitians(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """An (n, d, d) stack of ``random_hermitian`` draws in one call: the same
    bits and the same stream as n calls in a row. The stack is drawn and
    symmetrized in place, in blocks of at most ``_BLOCK_BYTES`` of matrix
    bytes, so that besides the stack only a block's uniform draw and its
    conjugate are held at once."""
    m = np.empty((n, d, d), dtype=np.complex128)
    size = max(1, _BLOCK_BYTES // (16 * d * d))
    for k in range(0, n, size):
        block = m[k:k + size]
        u = rng.uniform(-1.0, 1.0, (len(block), 2, d, d))
        block.real, block.imag = u[:, 0], u[:, 1]
        del u
        block *= 0.5
        block += block.conj().swapaxes(1, 2)  # conj() is a new array, not a view of m
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
