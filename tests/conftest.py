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
