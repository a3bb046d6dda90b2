"""Bundled oracle child processes for exercising the stdio protocol.

Each module is runnable as ``python -m obsorder.demo_oracles.<name> <dim>``
and serves the newline-delimited JSON request/response loop until stdin
closes. Replies use the exact c128le matrix form when the request matrix
is c128le or the request lists "c128le" under "accept"; otherwise they use
the decimal form. A reply to a request carrying "accept" lists
``["c128le", "batch"]`` under its own "accept": the child also takes stack
frames (``{"dim": d, "count": n, "c128le": ...}``, see ``obsorder.io``)
and answers each with the stack of its n images, in order. Each matrix of
a stack passes the checks of ``io.hermitian_from_dict``, and ``fn`` is
applied to one matrix at a time, so it need not handle stacks.
"""

from __future__ import annotations

import json
import sys
from typing import Callable

import numpy as np

from ..hermitian import HermitianMatrix
from ..io import (
    c128le_stack_from_dict,
    hermitian_from_dict,
    matrices_to_c128le,
    matrix_to_c128le,
    matrix_to_dict,
)


def serve(fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Answer protocol requests on stdin with fn applied to each matrix."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        matrix = request["matrix"]
        if "count" in matrix:
            stack = c128le_stack_from_dict(matrix)
            out = matrices_to_c128le([fn(HermitianMatrix.from_array(a).mat) for a in stack])
        else:
            a = hermitian_from_dict(matrix).mat
            binary = "c128le" in matrix or "c128le" in request.get("accept", [])
            out = (matrix_to_c128le if binary else matrix_to_dict)(fn(a))
        response = {"id": request["id"], "matrix": out}
        if "accept" in request:
            response["accept"] = ["c128le", "batch"]
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()
