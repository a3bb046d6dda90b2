"""Black-box oracle transports.

An oracle maps Hermitian matrices to Hermitian matrices of the same
dimension. Two transports are supported: an in-process callable and a
subprocess speaking JSON lines (with raw bytes after a stack header, see
below) on stdin/stdout. An in-process ``OrderAutomorphism`` gets a handle
of its own (``from_automorphism``) that answers probes in stacks.

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
same form. ``query_many`` puts as many probes in a frame as fit in
``FRAME_BUDGET_BYTES`` (256 KiB) of payload, ``frame_capacity(d)``: the
whole 25-probe plan of ``reconstruct`` at d <= 8, 16 probes at d = 32 and
4 at d = 64; ``query`` sends a stack of one. The request line and its
payload go out in one gathered write, and a reply's payload is read
straight into the stack that is returned.

A reply whose frame is at fault (no ``matrix``, a bad grid or payload; an
id, ``dim``, ``count`` or ``bytes`` other than the request's; the end of
the stream inside a payload; a reply line longer than
``LINE_BYTES_PER_ENTRY`` * d * d + ``LINE_SLACK_BYTES``) is a
``TransportFailureError``, and the child is killed, since the rest of its
reply would be read as the next one; every later query then fails with the
child's exit status. A matrix whose entries
are non-finite or not Hermitian is an ``OracleNotAutomorphicError`` and
leaves the stream in step. Both rules are the same for single and stack
frames. Every reply matrix is checked by the rule of
``io.hermitian_from_dict`` (finite entries, relative asymmetry at most
``hermitian.ASYMMETRY_LIMIT``): a stack reply once per frame, as one
(n, d, d) array, with the images ahead of a bad matrix still yielded.

Each request must be taken and answered, the reply's payload included,
within ``RESPONSE_TIMEOUT_S``; otherwise the child is killed and the query
fails with ``TransportFailureError``. The waits use ``select`` on the
child's pipes, so this transport needs a POSIX system.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import select
import subprocess
import time
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import OracleNotAutomorphicError, TransportFailureError, ValidationError
from .hermitian import MAX_DIM, HermitianMatrix, _hermitian_stack, _leading, symmetrize
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


class OracleHandle:
    """Serial request/response channel to an order-automorphism candidate."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int):
        if not 1 <= dim <= MAX_DIM:
            raise ValidationError(f"oracle dimension must be in [1, {MAX_DIM}], got {dim}")
        self._fn = fn
        self.dim = dim
        self.calls = 0

    def _probe(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.dim, self.dim):
            raise ValidationError(f"probe has shape {a.shape}, expected ({self.dim}, {self.dim})")
        return a

    def _check_shape(self, out: np.ndarray) -> None:
        if out.shape != (self.dim, self.dim):
            raise TransportFailureError(
                f"oracle returned shape {out.shape}, expected ({self.dim}, {self.dim})"
            )

    def _image(self, out) -> np.ndarray:
        """The check every in-process answer passes: d x d, finite and
        Hermitian to 1e-9 max-abs; returns its Hermitian part."""
        out = np.asarray(out, dtype=np.complex128)
        self._check_shape(out)
        peak = float(np.max(np.abs(out)))  # NaN propagates through max
        if not math.isfinite(peak):
            raise OracleNotAutomorphicError("oracle response has non-finite entries")
        asym = float(np.max(np.abs(out - out.conj().T)))
        if asym > 1e-9 * max(1.0, peak):
            raise OracleNotAutomorphicError(
                f"oracle response is not Hermitian (asymmetry {asym:.3e})"
            )
        return symmetrize(out)

    def query(self, a: np.ndarray) -> np.ndarray:
        a = self._probe(a)
        self.calls += 1
        return self._image(self._fn(a))

    def query_many(self, probes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """The answers to ``probes``, in order. Here each probe is one
        ``query``, drawn only as its answer is taken; the handles of
        ``from_automorphism`` and ``SubprocessOracle`` draw and answer up to
        ``frame_capacity(dim)`` probes at a time."""
        for a in probes:
            yield self.query(a)

    def close(self) -> None:
        pass

    def __enter__(self) -> "OracleHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def from_automorphism(phi) -> OracleHandle:
    """In-process oracle evaluating an OrderAutomorphism, in stacks.

    ``query_many`` takes ``frame_capacity(dim)`` probes at a time (the
    size of a stack frame on the pipe: 4 at d = 64, 16 at d = 32), checks
    them as one (n, d, d) array by ``HermitianMatrix.from_array``'s rule
    (``hermitian._hermitian_stack``) and answers them with one call of
    ``apply``'s image function, ``automorphism._images``, whose finiteness
    flags it checks as ``apply`` does. From the first probe of a block that
    fails a check (its shape, non-finite entries, asymmetry or a non-finite
    image) on, each probe takes the per-matrix path of an ``OracleHandle``
    over ``apply``, which raises that probe's error, after the images ahead
    of it, with the class and message of the per-matrix path. ``query`` is
    a block of one, and ``calls`` counts probes.
    """
    return _AutomorphismOracle(phi)


class _AutomorphismOracle(OracleHandle):
    """The handle of ``from_automorphism``."""

    def __init__(self, phi):
        from .automorphism import _images, apply

        super().__init__(lambda a: apply(phi, a).mat, phi.dim)
        self._map = lambda block: _images(phi, block)
        self._per_block = frame_capacity(phi.dim)

    def query(self, a: np.ndarray) -> np.ndarray:
        return next(self.query_many([a]))

    def query_many(self, probes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        probes = iter(probes)
        shape = (self.dim, self.dim)
        while block := [np.asarray(a, dtype=np.complex128)
                        for a in itertools.islice(probes, self._per_block)]:
            k = next((i for i, a in enumerate(block) if a.shape != shape), len(block))
            if k:
                good, k = _hermitian_stack(np.stack(block[:k]))
                out, finite = self._map(good)
                k = _leading(finite)
                self.calls += k
                yield from out[:k]
            for a in block[k:]:
                yield OracleHandle.query(self, a)


class SubprocessOracle(OracleHandle):
    """Oracle backed by a child process speaking the stdio protocol above."""

    def __init__(self, command: list[str], dim: int):
        super().__init__(self._roundtrip, dim)  # checks dim before the child starts
        argv = list(command) + [str(dim)]
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise TransportFailureError(f"failed to launch oracle: {exc}") from exc
        self._next_id = 0
        self._raw = False  # set by a response whose accept lists RAW_STACK
        self._per_frame = frame_capacity(dim)
        self._line_cap = LINE_BYTES_PER_ENTRY * dim * dim + LINE_SLACK_BYTES
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
        is a transport failure; the entries are left to ``_image``."""
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

    def _image(self, out) -> np.ndarray:
        # the entry check of io.hermitian_from_dict on a d x d reply; its
        # result is finite and exactly Hermitian
        try:
            return HermitianMatrix.from_array(out).mat
        except ValidationError as exc:
            raise OracleNotAutomorphicError(
                f"oracle response is not a valid Hermitian matrix: {exc}"
            ) from exc

    def _roundtrip(self, a: np.ndarray) -> np.ndarray:
        if self._raw:
            return self._exchange_stack(a[None])[0]
        obj, _ = self._exchange({"matrix": matrix_to_dict(a), "accept": [RAW_STACK]})
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
        return out

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

    def query_many(self, probes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """The answers to ``probes``, in order. Until the child has offered
        stack frames each probe is one ``query``; from then on probes go
        ``FRAME_BUDGET_BYTES`` at a time, so up to one frame of probes is
        sent before the answers ahead of it are taken."""
        probes = iter(probes)
        while not self._raw:
            a = next(probes, None)
            if a is None:
                return
            yield self.query(a)
        while chunk := [self._probe(a) for a in itertools.islice(probes, self._per_frame)]:
            self.calls += len(chunk)
            stack = self._exchange_stack(np.stack(chunk))
            images, k = _hermitian_stack(stack)
            yield from images
            # the first bad matrix raises _image's error, as a lone reply does
            for m in stack[k:]:
                yield self._image(m)

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
