"""Black-box oracle transports.

An oracle maps Hermitian matrices to Hermitian matrices of the same
dimension. Three handles share one loop, ``OracleHandle.query_many``: an
``OracleHandle`` over an in-process callable, the handle of
``from_automorphism`` over an in-process ``OrderAutomorphism``, and a
``SubprocessOracle`` over a child process speaking JSON lines (with raw
bytes after a stack header, see below) on stdin/stdout. The loop

1. takes up to a block of probes: one for a callable and for a child that
   has not offered stack frames, otherwise ``frame_capacity(d)``;
2. checks the block's shapes and hands the Hermitian parts of the good
   probes ahead of the first bad one to its handle's one hook: the
   callable per matrix, ``automorphism._images`` on the stack, or one
   frame on the pipe. A ``HermitianMatrix`` wrapper passes unchecked, as it
   does at every entry point of ``hermitian``, so a block of wrappers only
   is stacked and sent as it is; a block with any raw array is checked
   whole, as one stack, by the rule of ``HermitianMatrix.from_array``
   (finite entries and
   ||M - M*||_F <= ``hermitian.ASYMMETRY_LIMIT`` * max(||M||_F, 1), by
   ``hermitian._hermitian_stack``), which a wrapper's matrix passes
   unchanged;
3. checks the answers as one stack by the same rule;
4. yields the good answers, then raises the first bad one's error.

A bad raw probe raises ``from_array``'s ``ValidationError`` and reaches no
oracle. A bad answer raises ``OracleNotAutomorphicError`` with the message
"oracle response is not a valid Hermitian matrix: " and ``from_array``'s.
``query`` is a block of one, and ``calls`` counts the answers yielded.

    request:  {"id": k, "matrix": <matrix JSON>, "accept": ["raw-stack"]}
    response: {"id": k, "matrix": <matrix JSON>[, "accept": [...]]}

Responses must echo the request id; anything else is a protocol error. The
child process is launched with the dimension as its first argument. A handle
is strictly serial: one frame in flight at a time.

A single frame carries one matrix in the decimal form of ``obsorder.io``.
A child whose reply lists ``"raw-stack"`` under its own ``accept`` (as the
demo oracles do) gets stack frames from then on, for ``query`` and
``query_many`` alike; any other child, one that ignores ``accept`` or
offers other tokens, keeps getting decimal single frames. A stack frame is
one JSON header line followed by raw bytes:

    {"id": k, "matrix": {"dim": d, "count": n, "bytes": 16 * n * d * d}}
    <the n matrices as little-endian complex128, each row-major>

The child answers with a stack frame of the n images, in order, in the
same form. A frame holds as many probes as fit in ``FRAME_BUDGET_BYTES``
(256 KiB) of payload, ``frame_capacity(d)``: the whole 25-probe plan of
``reconstruct`` at d <= 8, 16 probes at d = 32 and 4 at d = 64. The
request line and its payload go out in one gathered write, and a reply's
payload is read straight into the stack that is returned.

A reply whose frame is at fault (no ``matrix``, a bad grid or payload; an
id, ``dim``, ``count`` or ``bytes`` other than the request's; the end of
the stream inside a payload; a reply line longer than
``LINE_BYTES_PER_ENTRY`` * d * d + ``LINE_SLACK_BYTES``) is a
``TransportFailureError``, and the child is killed, since the rest of its
reply would be read as the next one; every later query then fails with the
child's exit status. A bad probe or a bad answer leaves the stream in
step, and the child keeps serving.

Each request must be taken and answered, the reply's payload included,
within ``RESPONSE_TIMEOUT_S``; otherwise the child is killed and the query
fails with ``TransportFailureError``. The waits use ``select`` on the
child's pipes, so this transport needs a POSIX system.
"""

from __future__ import annotations

import itertools
import json
import numbers
import os
import select
import subprocess
import time
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import OracleNotAutomorphicError, TransportFailureError, ValidationError
from .hermitian import (
    ASYMMETRY_LIMIT,
    MAX_DIM,
    HermitianMatrix,
    _freeze,
    _hermitian_stack,
    _leading,
)
from .io import (
    matrix_frame_from_dict,
    matrix_to_dict,
    read_stack,
    stack_frame,
    stack_shape,
)

# how long a child that closed its output gets to exit before it is reported
# as still running
EXIT_WAIT_S = 1.0

# how long a child gets to take and answer one frame before it is killed
RESPONSE_TIMEOUT_S = 60.0

# the token of a child that takes stack frames
RAW_STACK = "raw-stack"

# raw matrix bytes (16 per entry) per stack frame: the whole reconstruction
# plan at d <= 8, 16 probes at d = 32, 4 at d = 64. A frame's fixed cost is
# Python work at both ends, not the pipe, so fewer frames pay it fewer
# times; above 256 KiB the runs were slower again. Swept with the frame
# copies of _write and read_stack as they are now, in oracle-pipe runs of
# 30 s (seeds 2501-2503, the five budgets in rotated order, one CPU of a
# shared 2-vCPU VM), median latency_p50_large_ms: 64 KiB 19.7 ms, 128 KiB
# 17.5, 256 KiB 16.7, 512 KiB 18.6, 1 MiB 20.0; peak_rss_mb rose from 190
# to 194 MB at 256 KiB and to 204 MB at 1 MiB.
FRAME_BUDGET_BYTES = 256 * 1024


# the longest reply line read at dim d is LINE_BYTES_PER_ENTRY * d * d +
# LINE_SLACK_BYTES. The longest legitimate line is a decimal single frame:
# json.dumps writes an entry as "[re, im], ", at most 54 bytes since a
# shortest round-trip float has at most 24 characters
# (-2.2250738585072014e-308), plus 4 bytes of brackets per row and about 100
# for the id and keys. A stack header takes under 100 bytes in all.
LINE_BYTES_PER_ENTRY = 64
LINE_SLACK_BYTES = 4096


def frame_capacity(d: int) -> int:
    """How many d x d matrices fit in ``FRAME_BUDGET_BYTES``; at least one."""
    return max(1, FRAME_BUDGET_BYTES // (16 * d * d))


def _rejection(m: np.ndarray) -> ValidationError:
    """``HermitianMatrix.from_array``'s error for a matrix that
    ``_hermitian_stack`` rejected."""
    try:
        HermitianMatrix.from_array(m)
    except ValidationError as exc:
        return exc
    # the two sum the norms in other orders, so at the limit they can differ
    return ValidationError(
        f"matrix is not Hermitian: relative asymmetry within rounding of {ASYMMETRY_LIMIT:g}"
    )


class OracleHandle:
    """Serial request/response channel to an order-automorphism candidate."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray] | None, dim: int):
        integral = isinstance(dim, numbers.Integral) and not isinstance(dim, bool)
        if not (integral and 1 <= dim <= MAX_DIM):
            raise ValidationError(f"oracle dimension must be an integer in [1, {MAX_DIM}], got {dim!r}")
        self._fn = fn
        self.dim = int(dim)
        self.calls = 0
        self._per_block = 1  # probes per block of query_many

    def _answer(self, stack: np.ndarray) -> np.ndarray:
        """The one hook of ``query_many``: answers a non-empty prefix of a
        checked (n, d, d) stack of probes as a contiguous complex128 stack,
        or raises the first probe's error. Here fn answers a block's one
        probe."""
        out = np.ascontiguousarray(self._fn(stack[0]), dtype=np.complex128)
        if out.shape != (self.dim, self.dim):
            raise TransportFailureError(
                f"oracle returned shape {out.shape}, expected ({self.dim}, {self.dim})"
            )
        return out[None]

    def query(self, a: np.ndarray) -> np.ndarray:
        return next(self.query_many([a]))

    def query_many(self, probes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """The answers to ``probes``, arrays or ``HermitianMatrix``
        wrappers, in order, each drawn only as its block is taken (see the
        module docstring)."""
        probes = iter(probes)
        shape = (self.dim, self.dim)
        while block := list(itertools.islice(probes, self._per_block)):
            wrapped = all(isinstance(a, HermitianMatrix) for a in block)
            block = [a.mat if isinstance(a, HermitianMatrix)
                     else np.asarray(a, dtype=np.complex128) for a in block]
            n = next((i for i, a in enumerate(block) if a.shape != shape), len(block))
            if not n:
                rest, k = [], 0
            elif wrapped:
                rest, k = _freeze(np.stack(block[:n])), n
            else:
                rest, k = _hermitian_stack(np.stack(block[:n]))
            while len(rest):
                replies = self._answer(rest)
                images, m = _hermitian_stack(replies)
                self.calls += m
                yield from images
                if m < len(replies):
                    exc = _rejection(replies[m])
                    raise OracleNotAutomorphicError(
                        f"oracle response is not a valid Hermitian matrix: {exc}"
                    ) from exc
                rest = rest[m:]  # a hook may answer a prefix only
            if k < n:
                raise _rejection(block[k])
            if n < len(block):
                raise ValidationError(f"probe has shape {block[n].shape}, expected {shape}")

    def close(self) -> None:
        pass

    def __enter__(self) -> "OracleHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def from_automorphism(phi) -> OracleHandle:
    """In-process oracle evaluating an OrderAutomorphism, in stacks.

    Its blocks hold ``frame_capacity(dim)`` probes (the size of a stack
    frame on the pipe: 4 at d = 64, 16 at d = 32), and its hook answers a
    block with one call of ``apply``'s image function,
    ``automorphism._images``. Like ``apply``, it raises
    ``ValidationError("matrix entries must be finite")`` at the first image
    that is not finite, after the images ahead of it.
    """
    return _AutomorphismOracle(phi)


class _AutomorphismOracle(OracleHandle):
    """The handle of ``from_automorphism``."""

    def __init__(self, phi):
        from .automorphism import _images

        super().__init__(None, phi.dim)
        self._map = lambda block: _images(phi, block)
        self._per_block = frame_capacity(phi.dim)

    def _answer(self, stack: np.ndarray) -> np.ndarray:
        out, finite = self._map(stack)
        k = _leading(finite)
        if not k:
            raise ValidationError("matrix entries must be finite")
        return out[:k]


class SubprocessOracle(OracleHandle):
    """Oracle backed by a child process speaking the stdio protocol above."""

    def __init__(self, command: list[str], dim: int):
        super().__init__(None, dim)  # checks dim before the child starts
        argv = list(command) + [str(self.dim)]
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise TransportFailureError(f"failed to launch oracle: {exc}") from exc
        self._next_id = 0
        self._raw = False  # set by a response whose accept lists RAW_STACK
        self._line_cap = LINE_BYTES_PER_ENTRY * self.dim**2 + LINE_SLACK_BYTES
        self._pending = bytearray()  # bytes read from the child past the last line
        # a child that stops reading must not hold a frame larger than the
        # pipe buffer past the deadline
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _exit_status(self) -> str:
        try:
            code = self._proc.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            return f"child still running after {EXIT_WAIT_S:g} s"
        return f"child exit status {code}"  # -N: killed by signal N

    def _fault(self, message: str) -> TransportFailureError:
        """The error of a frame fault. The rest of the reply may still be in
        the pipe, where the next query would read it as its own, so the
        child is killed: every later query fails on the dead pipe."""
        self._proc.kill()
        self._proc.wait()
        self._pending.clear()
        return TransportFailureError(message)

    def _wait(self, deadline: float, read=(), write=()) -> None:
        """Block until a pipe is ready; past the deadline, kill the child."""
        left = deadline - time.monotonic()
        if left <= 0 or not any(select.select(read, write, [], left)[:2]):
            self._proc.kill()
            raise TransportFailureError(
                f"oracle gave no response within {RESPONSE_TIMEOUT_S:g} s; "
                f"killed ({self._exit_status()})"
            )

    def _write(self, parts: list, deadline: float) -> None:
        # one gathered write for the request line and its payload, with no
        # joined copy of the two
        fd = self._proc.stdin.fileno()
        views = [v for v in map(memoryview, parts) if len(v)]
        while views:
            self._wait(deadline, write=[fd])
            try:
                sent = os.writev(fd, views)
            except BlockingIOError:
                continue
            while views and sent >= len(views[0]):
                sent -= len(views.pop(0))
            if sent:
                views[0] = views[0][sent:]

    def _readline(self, deadline: float) -> bytes:
        # reads the raw fd: a buffered readline could block after select
        fd = self._proc.stdout.fileno()
        cap = self._line_cap
        scanned = 0
        while (end := self._pending.find(b"\n", scanned, cap)) < 0:
            scanned = len(self._pending)
            if scanned >= cap:  # no newline among the first cap bytes
                raise self._fault(f"oracle reply line is longer than {cap} bytes")
            self._wait(deadline, read=[fd])
            chunk = os.read(fd, 1 << 16)
            if not chunk:  # end of stream: whatever is left, maybe nothing
                line = bytes(self._pending)
                self._pending.clear()
                return line
            self._pending += chunk
        line = bytes(self._pending[: end + 1])
        del self._pending[: end + 1]
        return line

    def _readinto(self, view: memoryview, size: int, deadline: float) -> int:
        """Fill the head of ``view``, the rest of a ``size``-byte payload,
        from the bytes _readline read past its line, else from one read of
        the pipe; returns how many bytes it wrote."""
        if self._pending:
            k = min(len(view), len(self._pending))
            view[:k] = self._pending[:k]
            del self._pending[:k]
            return k
        fd = self._proc.stdout.fileno()
        self._wait(deadline, read=[fd])
        try:
            k = os.readv(fd, [view])
        except OSError as exc:
            raise self._fault(f"oracle I/O failed: {exc} ({self._exit_status()})") from exc
        if not k:
            raise self._fault(
                f"oracle closed its output stream after {size - len(view)} of {size} payload "
                f"bytes ({self._exit_status()})"
            )
        return k

    def _exchange(self, body: dict, payload: bytes | memoryview = b"") -> tuple[dict, float]:
        """Write one request frame, a JSON line and then ``payload``; return
        the reply object, id checked, and the frame's deadline, by which any
        payload after the reply line must be read too. A fault of the frame
        is a transport failure; the entries are left to ``query_many``."""
        k = self._next_id
        self._next_id += 1
        request = (json.dumps({"id": k, **body}) + "\n").encode("ascii")
        deadline = time.monotonic() + RESPONSE_TIMEOUT_S
        try:
            self._write([request, payload], deadline)
            line = self._readline(deadline)
        except (OSError, ValueError) as exc:
            raise self._fault(f"oracle I/O failed: {exc} ({self._exit_status()})") from exc
        if not line:
            raise self._fault(f"oracle closed its output stream ({self._exit_status()})")
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise self._fault(f"malformed oracle response: {exc}") from exc
        if not isinstance(obj, dict):
            raise self._fault("malformed oracle response: not a JSON object")
        if obj.get("id") != k:
            raise self._fault(
                f"out-of-order oracle response: expected id {k}, got {obj.get('id')}"
            )
        return obj, deadline

    def _answer(self, stack: np.ndarray) -> np.ndarray:
        """One frame: a stack frame once the child has offered them,
        otherwise a decimal single frame that offers them."""
        if self._raw:
            return self._exchange_stack(stack)
        obj, _ = self._exchange({"matrix": matrix_to_dict(stack[0]), "accept": [RAW_STACK]})
        try:
            out = matrix_frame_from_dict(obj["matrix"])
        except (KeyError, ValidationError) as exc:
            raise self._fault(f"malformed oracle response: {exc}") from exc
        if out.shape != (self.dim, self.dim):
            raise self._fault(
                f"oracle returned shape {out.shape}, expected ({self.dim}, {self.dim})"
            )
        accept = obj.get("accept")
        self._raw = isinstance(accept, list) and RAW_STACK in accept
        if self._raw:
            self._per_block = frame_capacity(self.dim)
        return out[None]

    def _exchange_stack(self, stack: np.ndarray) -> np.ndarray:
        """The (n, d, d) reply to a stack frame of ``stack``, frame checked."""
        n, d = len(stack), self.dim
        header, payload = stack_frame(stack)
        obj, deadline = self._exchange({"matrix": header}, payload)
        try:
            count, dim = stack_shape(obj["matrix"])
        except (KeyError, ValidationError) as exc:
            raise self._fault(f"malformed oracle response: {exc}") from exc
        if dim != d:
            raise self._fault(f"oracle stack response has dim {dim}, expected {d}")
        if count != n:
            raise self._fault(f"oracle stack response has {count} matrices, expected {n}")
        size = len(payload)
        return read_stack(lambda view: self._readinto(view, size, deadline), n, d)

    def close(self) -> None:
        # also after a kill, so that no pipe is left open
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
