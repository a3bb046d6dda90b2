"""JSON wire formats.

Matrix format (shared by every module and the CLI):

    {"dim": d, "entries": [[[re, im], ... d items], ... d rows]}

or, as an exact binary alternative used on the oracle pipe,

    {"dim": d, "c128le": "<base64 of the d*d entries, row-major>"}

where each entry is a little-endian complex128 (real then imaginary
float64), so the payload is exactly 16 * d * d bytes before base64. The
decimal form stays the only one written to files, CLI output and golden
files.

Vectors are a single list of ``[re, im]`` pairs. Automorphism files are
``{"T": <matrix>, "conjugate": bool, "X": <matrix>}`` where ``T`` may be an
arbitrary (non-Hermitian) complex matrix.

Writers emit the exact stored values (shortest round-trip decimal, full
double precision, or the raw bits). Readers accept either matrix form and
apply the same checks to both: they reject dimensions outside [1, MAX_DIM],
malformed payloads, non-finite entries or, for Hermitian inputs, asymmetric
data.
"""

from __future__ import annotations

import base64
import binascii
import json
import math

import numpy as np

from .errors import ValidationError
from .hermitian import MAX_DIM, HermitianMatrix

__all__ = [
    "matrix_to_dict",
    "matrix_to_c128le",
    "matrix_from_dict",
    "hermitian_from_dict",
    "complex_matrix_from_dict",
    "vector_to_list",
    "vector_from_list",
    "load_hermitian",
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


def matrix_to_c128le(arr: np.ndarray) -> dict:
    """Exact binary matrix JSON: base64 of the row-major entries."""
    arr = np.asarray(arr, dtype=_C128LE)
    payload = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dim": int(arr.shape[0]), "c128le": payload}


def _c128le_to_array(payload, d: int) -> np.ndarray:
    if not isinstance(payload, str):
        raise ValidationError("c128le payload must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValidationError(f"c128le payload is not valid base64: {exc}") from exc
    if len(raw) != 16 * d * d:
        raise ValidationError(
            f"c128le payload has {len(raw)} bytes, expected {16 * d * d} for dim {d}"
        )
    out = np.frombuffer(raw, dtype=_C128LE).reshape(d, d).astype(np.complex128)
    if not np.all(np.isfinite(out)):
        raise ValidationError("matrix entries must be finite")
    return out


def _dict_to_array(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or ("entries" in obj) == ("c128le" in obj):
        raise ValidationError("matrix JSON must have 'dim' and one of 'entries' or 'c128le'")
    d = obj["dim"]
    if not isinstance(d, int) or d < 1 or d > MAX_DIM:
        raise ValidationError(f"matrix dim must be an integer in [1, {MAX_DIM}]")
    if "c128le" in obj:
        return _c128le_to_array(obj["c128le"], d)
    rows = obj["entries"]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValidationError("matrix entries are not a d x d grid")
    out = np.empty((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if len(cell) != 2:
                raise ValidationError("each entry must be an [re, im] pair")
            re, im = float(cell[0]), float(cell[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValidationError("matrix entries must be finite")
            out[i, j] = complex(re, im)
    return out


def complex_matrix_from_dict(obj: dict) -> np.ndarray:
    """General complex square matrix (no Hermitian requirement)."""
    return _dict_to_array(obj)


def hermitian_from_dict(obj: dict) -> HermitianMatrix:
    return HermitianMatrix.from_array(_dict_to_array(obj))


def matrix_from_dict(obj: dict) -> HermitianMatrix:
    return hermitian_from_dict(obj)


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
        re, im = float(cell[0]), float(cell[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError("vector entries must be finite")
        out[i] = complex(re, im)
    return out


def load_hermitian(text: str) -> HermitianMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    return hermitian_from_dict(obj)


def dumps(obj) -> str:
    """Deterministic JSON encoding: fixed key order, no whitespace padding."""
    return json.dumps(obj, separators=(",", ":"))
