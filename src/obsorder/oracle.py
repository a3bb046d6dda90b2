"""Black-box oracle transports.

An oracle maps Hermitian matrices to Hermitian matrices of the same
dimension. Two transports are supported: an in-process callable and a
subprocess speaking newline-delimited JSON on stdin/stdout:

    request:  {"id": k, "matrix": <matrix JSON>[, "accept": ["c128le"]]}
    response: {"id": k, "matrix": <matrix JSON>}

Responses must echo the request id; anything else is a protocol error. The
child process is launched with the dimension as its first argument. A handle
is strictly serial: one request in flight at a time.

Matrices are in either form of ``obsorder.io``: decimal ``entries`` or the
exact binary ``c128le``. The parent sends decimal requests carrying
``"accept": ["c128le"]`` until the first c128le response arrives, and c128le
requests from then on. A child that replies in c128le when asked (as the
demo oracles do) saves the decimal codec on both sides of the pipe; a child
that only speaks decimal never sees a c128le request.
"""

from __future__ import annotations

import json
import subprocess
from typing import Callable

import numpy as np

from .errors import OracleNotAutomorphicError, TransportFailureError, ValidationError
from .io import hermitian_from_dict, matrix_to_c128le, matrix_to_dict

# how long a child that closed its output gets to exit before it is reported
# as still running
EXIT_WAIT_S = 1.0


class OracleHandle:
    """Serial request/response channel to an order-automorphism candidate."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int):
        if dim < 1:
            raise ValidationError(f"oracle dimension must be >= 1, got {dim}")
        self._fn = fn
        self.dim = dim
        self.calls = 0

    def query(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.dim, self.dim):
            raise ValidationError(f"probe has shape {a.shape}, expected ({self.dim}, {self.dim})")
        self.calls += 1
        out = self._fn(a)
        out = np.asarray(out, dtype=np.complex128)
        if out.shape != (self.dim, self.dim):
            raise TransportFailureError(
                f"oracle returned shape {out.shape}, expected ({self.dim}, {self.dim})"
            )
        asym = float(np.max(np.abs(out - out.conj().T)))
        if asym > 1e-9 * max(1.0, float(np.max(np.abs(out)))):
            raise OracleNotAutomorphicError(
                f"oracle response is not Hermitian (asymmetry {asym:.3e})"
            )
        return (out + out.conj().T) / 2.0

    def close(self) -> None:
        pass

    def __enter__(self) -> "OracleHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def from_automorphism(phi) -> OracleHandle:
    """In-process oracle evaluating an OrderAutomorphism."""
    from .automorphism import apply

    return OracleHandle(lambda a: apply(phi, a).mat, phi.dim)


class SubprocessOracle(OracleHandle):
    """Oracle backed by a child process speaking the stdio JSON protocol."""

    def __init__(self, command: list[str], dim: int):
        argv = list(command) + [str(dim)]
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise TransportFailureError(f"failed to launch oracle: {exc}") from exc
        self._next_id = 0
        self._binary = False  # set by the first c128le response
        super().__init__(self._roundtrip, dim)

    def _exit_status(self) -> str:
        try:
            code = self._proc.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            return f"child still running after {EXIT_WAIT_S:g} s"
        return f"child exit status {code}"  # -N: killed by signal N

    def _roundtrip(self, a: np.ndarray) -> np.ndarray:
        k = self._next_id
        self._next_id += 1
        if self._binary:
            frame = {"id": k, "matrix": matrix_to_c128le(a)}
        else:
            frame = {"id": k, "matrix": matrix_to_dict(a), "accept": ["c128le"]}
        request = json.dumps(frame) + "\n"
        try:
            self._proc.stdin.write(request)
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (OSError, ValueError) as exc:
            raise TransportFailureError(
                f"oracle I/O failed: {exc} ({self._exit_status()})"
            ) from exc
        if not line:
            raise TransportFailureError(
                f"oracle closed its output stream ({self._exit_status()})"
            )
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TransportFailureError(f"malformed oracle response: {exc}") from exc
        if not isinstance(obj, dict):
            raise TransportFailureError("malformed oracle response: not a JSON object")
        if obj.get("id") != k:
            raise TransportFailureError(
                f"out-of-order oracle response: expected id {k}, got {obj.get('id')}"
            )
        try:
            out = hermitian_from_dict(obj["matrix"]).mat
        except (KeyError, ValidationError) as exc:
            raise OracleNotAutomorphicError(
                f"oracle response is not a valid Hermitian matrix: {exc}"
            ) from exc
        self._binary = self._binary or "c128le" in obj["matrix"]
        return out

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
