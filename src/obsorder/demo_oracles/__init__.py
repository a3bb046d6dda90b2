"""Bundled oracle child processes for exercising the stdio protocol.

Each module is runnable as ``python -m obsorder.demo_oracles.<name> <dim>``
and serves the request/response loop of ``obsorder.oracle`` until stdin
closes. A single request gets a single reply in the decimal matrix form.
A reply to a request carrying "accept" lists ``["raw-stack"]`` under its
own "accept": the child also takes stack frames, a JSON header line
``{"id": k, "matrix": {"dim": d, "count": n, "bytes": 16*n*d*d}}``
followed by that many raw bytes (see ``obsorder.io``), and answers each
with a stack frame of its n images, in order. A stack is checked once, as
one (n, d, d) array, by the rule of ``io.hermitian_from_dict`` (finite
entries, relative asymmetry at most ``hermitian.ASYMMETRY_LIMIT``); the
first matrix that fails raises that reader's ``ValidationError``. ``fn``
is applied to one symmetrized matrix at a time, so it need not handle
stacks. A stack whose payload ends early raises ``ValidationError``.
"""

from __future__ import annotations

import json
import sys
from typing import Callable

import numpy as np

from ..hermitian import HermitianMatrix, _hermitian_stack
from ..io import (
    hermitian_from_dict,
    matrix_to_dict,
    stack_frame,
    stack_from_bytes,
    stack_shape,
)
from ..oracle import RAW_STACK


def serve(fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Answer protocol requests on stdin with fn applied to each matrix."""
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    for line in stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        matrix = request["matrix"]
        payload = b""
        if "count" in matrix:
            n, d = stack_shape(matrix)
            stack = stack_from_bytes(stdin.read(matrix["bytes"]), n, d)
            good, k = _hermitian_stack(stack)
            # the first bad matrix raises from_array's error
            checked = [*good, *(HermitianMatrix.from_array(a).mat for a in stack[k:])]
            out, payload = stack_frame([fn(a) for a in checked])
        else:
            out = matrix_to_dict(fn(hermitian_from_dict(matrix).mat))
        response = {"id": request["id"], "matrix": out}
        if "accept" in request:
            response["accept"] = [RAW_STACK]
        stdout.write((json.dumps(response) + "\n").encode("ascii") + payload)
        stdout.flush()
