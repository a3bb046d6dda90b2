"""Bundled oracle child processes for exercising the stdio protocol.

Each module is runnable as ``python -m obsorder.demo_oracles.<name> <dim>``
and serves the newline-delimited JSON request/response loop until stdin
closes. Replies use the exact c128le matrix form when the request matrix
is c128le or the request lists "c128le" under "accept"; otherwise they use
the decimal form.
"""

from __future__ import annotations

import json
import sys
from typing import Callable

import numpy as np

from ..io import hermitian_from_dict, matrix_to_c128le, matrix_to_dict


def serve(fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Answer protocol requests on stdin with fn applied to each matrix."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        matrix = request["matrix"]
        a = hermitian_from_dict(matrix).mat
        binary = "c128le" in matrix or "c128le" in request.get("accept", [])
        out = (matrix_to_c128le if binary else matrix_to_dict)(fn(a))
        response = {"id": request["id"], "matrix": out}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()
