"""Wire formats: matrix JSON, and the raw stack payload of the oracle pipe.

Matrix format (shared by every module and the CLI):

    {"dim": d, "entries": [[[re, im], ... d items], ... d rows]}

This decimal form is the only single-matrix form: files, CLI output,
golden files and single oracle frames all use it.

The oracle pipe also carries stacks of n >= 1 matrices, as raw bytes after
a JSON header line (see ``obsorder.oracle``). The header's matrix object is

    {"dim": d, "count": n, "bytes": 16 * n * d * d}

and exactly that many bytes follow the newline: the n*d*d entries as
little-endian complex128 (real then imaginary float64), matrix after
matrix, each row-major. A stack is not JSON, so files and CLI input cannot
hold one; the single-matrix readers reject a dict carrying ``count``.
``stack_frame`` writes a header and its payload, ``stack_shape`` checks a
header and ``read_stack`` reads a payload.

Vectors are a single list of ``[re, im]`` pairs. Automorphism files are
``{"T": <matrix>, "conjugate": bool, "X": <matrix>}`` where ``T`` may be an
arbitrary (non-Hermitian) complex matrix.

Writers emit the exact stored values (shortest round-trip decimal, full
double precision, or the raw bits). Readers reject dimensions outside
[1, MAX_DIM], malformed grids or payloads, decimal entries other than JSON
numbers (a bool, string or null), non-finite entries or, for Hermitian
inputs, asymmetric data.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError
from .hermitian import MAX_DIM, HermitianMatrix

__all__ = [
    "matrix_to_dict",
    "matrix_frame_from_dict",
    "hermitian_from_dict",
    "complex_matrix_from_dict",
    "stack_frame",
    "stack_shape",
    "read_stack",
    "vector_to_list",
    "vector_from_list",
    "dumps",
]


def matrix_to_dict(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    return {
        "dim": int(arr.shape[0]),
        "entries": [
            [[float(z.real), float(z.imag)] for z in row] for row in arr
        ],
    }


# little-endian complex128, whatever the host byte order
_C128LE = np.dtype("<c16")


def _checked_dim(obj) -> int:
    d = obj["dim"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1 or d > MAX_DIM:
        raise ValidationError(f"matrix dim must be an integer in [1, {MAX_DIM}]")
    return d


def _number(x) -> float:
    """A decimal entry: a JSON number (int or float, not bool), as a float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValidationError(f"entries must be JSON numbers, not {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError("entries must be finite: an integer past the float range") from None


def stack_shape(obj: dict) -> tuple[int, int]:
    """The (count, dim) of a stack header. Checks that dim is in range,
    count is an integer >= 1 and bytes is exactly 16*count*dim*dim; the
    payload is read by ``read_stack``."""
    if not isinstance(obj, dict) or not {"dim", "count", "bytes"} <= obj.keys():
        raise ValidationError("matrix stack header must have 'dim', 'count' and 'bytes'")
    d = _checked_dim(obj)
    n = obj["count"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"matrix stack count must be an integer >= 1, got {n!r}")
    size = obj["bytes"]
    if not isinstance(size, int) or isinstance(size, bool) or size != 16 * n * d * d:
        raise ValidationError(
            f"matrix stack header gives {size!r} bytes, expected {16 * n * d * d}"
            f" for {n} matrices of dim {d}"
        )
    return n, d


def stack_frame(stack) -> tuple[dict, memoryview]:
    """The header matrix object and the payload of an (n, d, d) stack. The
    payload is a byte view of the stack as contiguous little-endian
    complex128, which a contiguous complex128 stack on a little-endian
    host already is: then nothing is copied."""
    arr = np.ascontiguousarray(stack, dtype=_C128LE)
    n, d = arr.shape[0], arr.shape[1]
    return {"dim": d, "count": n, "bytes": arr.nbytes}, memoryview(arr).cast("B")


def read_stack(readinto, n: int, d: int) -> np.ndarray:
    """The (n, d, d) complex array of a payload of 16*n*d*d bytes, read
    straight into it: ``readinto(view)`` fills the head of a writable byte
    view and returns how many bytes it wrote, 0 at the end of the stream.
    A stream that ends early raises ``ValidationError``. Entries are not
    checked here: the oracle pipe checks a whole frame at once, by
    ``hermitian._hermitian_stack``."""
    out = np.empty((n, d, d), dtype=_C128LE)
    view = memoryview(out).cast("B")
    got = 0
    while got < len(view) and (k := readinto(view[got:])):
        got += k
    if got != len(view):
        raise ValidationError(f"matrix stack payload has {got} bytes, expected {len(view)}")
    return out.astype(np.complex128, copy=False)  # a copy only on a big-endian host


def matrix_frame_from_dict(obj: dict) -> np.ndarray:
    """The d x d complex array of one decimal matrix. Checks the frame
    (dim, no 'count', a d x d grid of number pairs), not the entries: the
    readers below check those, and so does the oracle pipe, by the same
    rule as for a stack."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValidationError("matrix JSON must have 'dim' and 'entries'")
    if "count" in obj:
        raise ValidationError("a matrix stack ('count') is read only on the oracle pipe")
    d = _checked_dim(obj)
    rows = obj["entries"]
    out = np.empty((d, d), dtype=np.complex128)
    try:
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValidationError("matrix entries are not a d x d grid")
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if len(cell) != 2:
                    raise ValidationError("each entry must be an [re, im] pair")
                out[i, j] = complex(_number(cell[0]), _number(cell[1]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix entries must be [re, im] number pairs: {exc}") from exc
    return out


def complex_matrix_from_dict(obj: dict) -> np.ndarray:
    """General complex square matrix (no Hermitian requirement)."""
    out = matrix_frame_from_dict(obj)
    if not np.all(np.isfinite(out)):
        raise ValidationError("matrix entries must be finite")
    return out


def hermitian_from_dict(obj: dict) -> HermitianMatrix:
    return HermitianMatrix.from_array(matrix_frame_from_dict(obj))


def vector_to_list(x: np.ndarray) -> list:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in x]


def vector_from_list(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError("vector JSON must be a non-empty list of [re, im] pairs")
    out = np.empty(len(obj), dtype=np.complex128)
    for i, cell in enumerate(obj):
        if not isinstance(cell, list) or len(cell) != 2:
            raise ValidationError("each vector entry must be an [re, im] pair")
        re, im = _number(cell[0]), _number(cell[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError("vector entries must be finite")
        out[i] = complex(re, im)
    return out


def dumps(obj) -> str:
    """Deterministic JSON encoding: fixed key order, no whitespace padding."""
    return json.dumps(obj, separators=(",", ":"))
