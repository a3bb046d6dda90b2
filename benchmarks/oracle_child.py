"""Benchmark-owned oracle child: serves A -> T K(A) T* + X over the stdio
protocol of obsorder's demo oracles, where K is entrywise conjugation when
the flag is set.

    python3 benchmarks/oracle_child.py <phi.json> <dim>

The map file is {"T": <matrix>, "conjugate": bool, "X": <matrix>} in the
matrix JSON of obsorder.io, written by the benchmark at set-up. It is read
with plain json and numpy so that the map served does not depend on the
library's codec.
"""

import json
import sys

import numpy as np

from obsorder.demo_oracles import serve


def _matrix(obj: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["entries"]],
                    dtype=np.complex128)


def main() -> None:
    path, dim = sys.argv[1], int(sys.argv[2])
    with open(path) as fh:
        spec = json.load(fh)
    t = _matrix(spec["T"])
    x = _matrix(spec["X"])
    conjugate = bool(spec["conjugate"])
    if t.shape != (dim, dim) or x.shape != (dim, dim):
        raise SystemExit(f"map in {path} is not {dim} x {dim}")
    t_star = t.conj().T

    def phi(a: np.ndarray) -> np.ndarray:
        m = t @ (a.conj() if conjugate else a) @ t_star + x
        return (m + m.conj().T) / 2.0

    serve(phi)


if __name__ == "__main__":
    main()
