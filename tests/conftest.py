import numpy as np
import pytest

from obsorder import HermitianMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def from_array_args(monkeypatch):
    """The argument of every ``HermitianMatrix.from_array`` call from now on."""
    args = []
    original = HermitianMatrix.from_array.__func__

    def counting(cls, arr):
        args.append(arr)
        return original(cls, arr)

    monkeypatch.setattr(HermitianMatrix, "from_array", classmethod(counting))
    return args


@pytest.fixture
def lapack_calls(monkeypatch):
    """How many times each ``numpy.linalg`` eigensolver, decomposition and
    Cholesky factor is called from now on, by name; a name never called is
    absent, so a test can compare the whole dict."""
    counts = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "eig", "pinv", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts
