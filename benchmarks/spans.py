"""Spans and counters for the traced run, recorded from outside the library.

The tracer wraps the public functions of each obsorder module. Python binds
a name again in every module that imports it (``from .loewner import leq``
puts ``leq`` into order_rank, automorphism and harness), so a wrapper
replaces the original in every obsorder namespace that holds it, and
classmethods and methods are replaced on their class. ``numpy.linalg``
functions are wrapped in the ``numpy.linalg`` namespace the library calls
through. The JSON module the oracle transport uses is swapped for one that
counts frame bytes.

Spans (name, start, end, parent, request id) go into flat arrays in memory
and are written out at the end. Wrappers record only while ``active`` is
set, which the benchmark sets around each timed request, so its own input
generation and answer checks are not counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = {
    "hermitian": ("HermitianMatrix.from_array", "PsdMatrix.from_hermitian", "as_hermitian",
                  "as_psd", "herm_array", "eig", "sqrt_psd", "pinv", "rank_numeric",
                  "range_basis", "spectral_norm", "rank_one", "projector"),
    "loewner": ("leq", "compare", "max_lambda", "range_dominates", "quadratic_form"),
    "order_rank": ("is_rank_one_by_order", "rank_two_counterexample", "rank_gt_np1_witness",
                   "check_rank_witness", "no_common_rank1_minorant",
                   "ranges_linearly_independent", "acts_on"),
    "automorphism": ("OrderAutomorphism.create", "identity_automorphism", "apply", "compose",
                     "invert", "gauge_fix", "reconstruct", "check_order_automorphism",
                     "preserves_order_pair"),
    "oracle": ("OracleHandle.query", "from_automorphism"),
    "io": ("matrix_to_dict", "vector_to_list", "dumps", "hermitian_from_dict",
           "complex_matrix_from_dict", "matrix_from_dict", "vector_from_list", "load_hermitian"),
    "preservers": ("commute", "orthogonal", "complementary", "local_linear_dependence_scalar",
                   "preserves_relation"),
    "harness": ("generate", "bisection_max_lambda", "run_suite", "replay_trial", "local_scalar"),
    "cli": ("main", "build_parser", "cmd_order", "cmd_lambda_max", "cmd_rank_order",
            "cmd_reconstruct", "cmd_preserver", "cmd_verify"),
}
LAPACK = ("eigvalsh", "eigh", "svd", "eig", "eigvals", "inv", "solve", "lstsq", "qr",
          "cholesky", "det", "slogdet", "pinv", "matrix_rank", "cond")

IO_ENCODE = ("io.matrix_to_dict", "io.vector_to_list", "io.dumps", "io.json_dumps")
IO_DECODE = ("io.hermitian_from_dict", "io.complex_matrix_from_dict", "io.matrix_from_dict",
             "io.vector_from_list", "io.load_hermitian", "io.json_loads")
HERMITIAN_WRAP = ("hermitian.from_array", "hermitian.from_hermitian", "hermitian.as_hermitian",
                  "hermitian.as_psd", "hermitian.herm_array")
RELATION_PREDICATES = ("preservers.commute", "preservers.orthogonal", "preservers.complementary")


class Tracer:
    """Span recorder; ``install`` wraps the library, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.frame_bytes = 0
        self.frames = 0
        self.suite_trials = 0
        self.active = False
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "obsorder" or n.startswith("obsorder.")) and m is not None]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"obsorder.{layer}")
            if module is None:
                continue
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self.wrap(f"{layer}.{attr}", raw.__func__)))
                    else:
                        self._set(cls, attr, self.wrap(f"{layer}.{attr}", raw))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                on_result = self._count_trials if qual == "run_suite" else None
                wrapper = self.wrap(f"{layer}.{attr}", original, on_result)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapper)
        linalg = np.linalg
        for fname in LAPACK:
            if hasattr(linalg, fname):
                self._set(linalg, fname, self.wrap(f"lapack.{fname}", getattr(linalg, fname)))
        self._set(linalg, "norm", self._svd_norm(linalg.norm))
        oracle = sys.modules.get("obsorder.oracle")
        if oracle is not None and getattr(oracle, "json", None) is json:
            self._set(oracle, "json", self._counting_json())

    def _count_trials(self, report) -> None:
        self.suite_trials += len(report.dims) * report.trials

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _svd_norm(self, norm):
        """Matrix 2-norms and nuclear norms are SVDs; count them as such."""
        traced = self.wrap("lapack.svd", norm)

        @functools.wraps(norm)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if ord in (2, -2, "nuc") and axis is None and np.ndim(x) == 2:
                return traced(x, ord, axis, keepdims)
            return norm(x, ord, axis, keepdims)

        return wrapper

    def _counting_json(self):
        dumps = self.wrap("io.json_dumps", json.dumps)
        loads = self.wrap("io.json_loads", json.loads)

        # json.dumps escapes to ASCII, so characters are bytes
        def counting_dumps(obj, *args, **kwargs):
            text = dumps(obj, *args, **kwargs)
            if self.active:
                self.frames += 1
                self.frame_bytes += len(text) + 1  # the newline
            return text

        def counting_loads(text, *args, **kwargs):
            if self.active:
                self.frame_bytes += len(text)
            return loads(text, *args, **kwargs)

        return types.SimpleNamespace(dumps=counting_dumps, loads=counting_loads,
                                     JSONDecodeError=json.JSONDecodeError)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32), req=np.frombuffer(self.req, np.int32))

    def metrics(self, requests: int, overhead_frac: float, spawn_ms: float) -> dict[str, float]:
        """Per-request layer metrics over ``requests`` traced requests."""
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_by_name = np.bincount(name, weights=self_s, minlength=len(self.names))

        def ids(names) -> list[int]:
            return [self._ids[x] for x in names if x in self._ids]

        def count(names) -> float:
            return float(sum(calls[i] for i in ids(names)))

        def self_ms(names) -> float:
            return 1e3 * float(sum(self_by_name[i] for i in ids(names)))

        def layer(prefix: str) -> list[str]:
            return [x for x in self.names if x.startswith(prefix + ".")]

        # which spans run inside an order_rank call or a relation search
        is_rank = np.isin(name, ids(layer("order_rank")))
        is_search = np.isin(name, ids(["preservers.preserves_relation"]))
        rank_root = _enclosing(parent.tolist(), is_rank.tolist())
        search_root = _enclosing(parent.tolist(), is_search.tolist())
        in_rank = rank_root >= 0
        leq_in_rank = int(np.count_nonzero(np.isin(name, ids(["loewner.leq"])) & in_rank))
        verdicts = int(np.count_nonzero(is_rank & ~in_rank))
        predicate = np.isin(name, ids(RELATION_PREDICATES)) & (search_root >= 0)
        candidates = int(np.count_nonzero(predicate)) // 2
        searches = len(np.unique(search_root[predicate]))

        lapack_named = ("lapack.eigvalsh", "lapack.eigh", "lapack.svd")
        per = 1.0 / requests
        return {
            "lapack.eigvalsh.calls": count(["lapack.eigvalsh"]) * per,
            "lapack.eigh.calls": count(["lapack.eigh"]) * per,
            "lapack.svd.calls": count(["lapack.svd"]) * per,
            "lapack.other.calls": count([x for x in layer("lapack") if x not in lapack_named]) * per,
            "lapack.self_ms": self_ms(layer("lapack")) * per,
            "hermitian.from_array.calls": count(["hermitian.from_array"]) * per,
            "hermitian.from_hermitian.calls": count(["hermitian.from_hermitian"]) * per,
            "hermitian.wrap.self_ms": self_ms(HERMITIAN_WRAP) * per,
            "hermitian.eig.calls": count(["hermitian.eig"]) * per,
            "hermitian.sqrt_psd.calls": count(["hermitian.sqrt_psd"]) * per,
            "hermitian.pinv.calls": count(["hermitian.pinv"]) * per,
            "loewner.leq.calls": count(["loewner.leq"]) * per,
            "loewner.compare.calls": count(["loewner.compare"]) * per,
            "loewner.max_lambda.calls": count(["loewner.max_lambda"]) * per,
            "loewner.self_ms": self_ms(layer("loewner")) * per,
            "io.encode.calls": count(IO_ENCODE) * per,
            "io.encode.self_ms": self_ms(IO_ENCODE) * per,
            "io.decode.calls": count(IO_DECODE) * per,
            "io.decode.self_ms": self_ms(IO_DECODE) * per,
            "oracle.bytes_per_probe": self.frame_bytes / self.frames if self.frames else 0.0,
            "oracle.query.calls": count(["oracle.query"]) * per,
            "oracle.wait_ms": self_ms(["oracle.query"]) * per,
            "oracle.spawn_ms": spawn_ms,
            "automorphism.apply.calls": count(["automorphism.apply"]) * per,
            "automorphism.apply.self_ms": self_ms(["automorphism.apply"]) * per,
            "automorphism.reconstruct.self_ms": self_ms(["automorphism.reconstruct"]) * per,
            "order_rank.self_ms": self_ms(layer("order_rank")) * per,
            "order_rank.leq_per_verdict": leq_in_rank / verdicts if verdicts else 0.0,
            "preservers.candidates_tried": candidates * per,
            "preservers.candidates_per_counterexample": candidates / searches if searches else 0.0,
            "preservers.self_ms": self_ms(layer("preservers")) * per,
            "harness.trials": self.suite_trials * per,
            "harness.self_ms": self_ms(layer("harness")) * per,
            "cli.self_ms": self_ms(layer("cli")) * per,
            "trace.overhead_frac": overhead_frac,
        }


def _enclosing(parent: list[int], marked: list[bool]) -> np.ndarray:
    """For each span, the index of its nearest marked ancestor, or -1.

    Parents are recorded before their children, so one forward pass works.
    """
    out = [-1] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = p if marked[p] else out[p]
    return np.array(out, dtype=np.int64)
