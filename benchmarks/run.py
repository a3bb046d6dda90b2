#!/usr/bin/env python3
"""obsorder benchmark: one closed-loop caller per workload, checked answers.

    python3 benchmarks/run.py --workload order-api --seed 1 --seconds 30 --trace 0

Run from a checkout root; the library is imported from ``src/`` next to this
directory, never from an installed copy. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0 when the
run completed (wrong answers included, reported through ``correct`` and
``failed``), 2 when the library cannot be found and 3 on an error or time
out. See benchmarks/README.md for workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("order-api", "oracle-pipe", "verify-cli")
SETUP_REPEATS = 5
DEADLINE_S = 170
BLAS_THREADS = "1"
# An untraced run goes on past --seconds until it holds this many requests,
# so that at least ten lie beyond its p90.
MIN_REQUESTS = 100


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so request handlers pass it on."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _vm_hwm_mb(pid) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _child_pids() -> list[int]:
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        pids.extend(int(p) for p in (task / "children").read_text().split())
    return pids


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live child (the oracles)."""
    return _vm_hwm_mb("self") + sum(_vm_hwm_mb(pid) for pid in _child_pids())


def environment(np) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "pinning": "own processes' affinity only (cpus_used); no isolation, frequency or cache control",
    }


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Loop:
    """Closed loop over whole rounds: each request is timed alone, then its
    answer is checked with tracing off."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[tuple[object, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.timed_s = 0.0

    def run_round(self, requests, traced: bool = False) -> float:
        tracer = self.tracer
        spent = 0.0
        for req in requests:
            if tracer is not None:
                tracer.request = self.attempted
                tracer.active = traced
            t0 = time.perf_counter()
            try:
                result = req.call()
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = req.check(result)
                except Exception as exc:  # an answer of the wrong shape
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{req.kind} d={req.dim}: {error}")
            self.latencies.append((req, elapsed))
            spent += elapsed
        self.timed_s += spent
        return spent


def setup_once(workloads, name: str, seed: int, workdir: Path, warm: Loop):
    """One set-up: import numpy and obsorder in a fresh interpreter (which
    inherits the environment set in main), build the inputs, write files,
    spawn oracles and warm up. Returns the workload and the seconds taken.
    The warm-up answers are checked in ``warm`` like the timed ones."""
    code = ("import time; t = time.perf_counter(); import numpy, obsorder.cli; "
            "print(time.perf_counter() - t)")
    import_s = float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    check=True, timeout=60).stdout)
    t0 = time.perf_counter()
    wl = workloads.BUILDERS[name](seed, workdir)
    try:
        warm.run_round(wl.warmup)
    except BaseException:
        wl.close()
        raise
    return wl, import_s + time.perf_counter() - t0


def measure(wl, seconds: float, tracer, resetup):
    """Untraced: whole rounds until ``seconds`` of request time and
    MIN_REQUESTS requests. Traced: each round runs once traced and once
    with the tracer uninstalled, over whole passes of the input variants,
    so per-request counts do not depend on run length.

    ``resetup`` is called between rounds, SETUP_REPEATS - 1 times spread
    over the run, so that the best set-up time is taken over the same
    stretch of time as the requests (see end_to_end)."""
    loop = Loop(tracer)
    n_rounds = len(wl.rounds)
    r = extra = 0
    traced_s = untraced_s = 0.0
    while True:
        rnd = wl.rounds[r % n_rounds]
        if tracer is None:
            loop.run_round(rnd)
        else:
            # the tracer is installed only for the traced half; the two
            # halves take turns at running first on the round's inputs
            for traced in ((True, False) if r % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                    try:
                        traced_s += loop.run_round(rnd, traced=True)
                    finally:
                        tracer.uninstall()
                else:
                    untraced_s += loop.run_round(rnd)
        r += 1
        if extra < SETUP_REPEATS - 1 and loop.timed_s >= (extra + 1) * seconds / SETUP_REPEATS:
            resetup()
            extra += 1
        if loop.timed_s >= seconds and (loop.attempted >= MIN_REQUESTS if tracer is None
                                        else r % n_rounds == 0):
            break
    return loop, r, traced_s, untraced_s


def end_to_end(loop: Loop, best_of_repeats: bool, setup_s: float, rss_mb: float) -> dict:
    """End-to-end metrics over the timed requests.

    With ``best_of_repeats`` each request counts at the best time its input
    took in the run. Other tenants of a shared host slow whole stretches of a
    run, by up to 1.6x on Python-bound requests in stretches of a fraction of
    a second to ten seconds (seen on a 2-vCPU VM), and the share of slow
    stretches differs from run to run. A median over a tight group of raw
    times then jumps between the fast and the slow level. Interference only
    adds time, so an input that repeats often enough to meet a fast stretch
    has its cost to the program as its best time, and a slower program
    still raises it.
    """
    if best_of_repeats:
        best: dict[int, float] = {}
        for req, s in loop.latencies:
            best[id(req)] = min(s, best.get(id(req), s))
        timed = [(req.dim, best[id(req)] * 1e3) for req, _ in loop.latencies]
    else:
        timed = [(req.dim, s * 1e3) for req, s in loop.latencies]
    lat = sorted(ms for _, ms in timed)
    dims = [d for d, _ in timed]
    small, large = min(dims), max(dims)
    p90, beyond = percentile(lat, 0.9)
    return {
        "throughput_rps": 1e3 * len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "latency_p50_small_ms": statistics.median(ms for d, ms in timed if d == small),
        "latency_p50_large_ms": statistics.median(ms for d, ms in timed if d == large),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }, {"requests": len(lat), "inputs": len({id(req) for req, _ in loop.latencies}),
        "beyond_p90": beyond, "raw_rps": len(lat) / loop.timed_s,
        "small_dim": small, "large_dim": large}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "obsorder" / "__init__.py").is_file():
        print(f"error: no obsorder sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)

    if args.workload == "oracle-pipe":
        # The benchmark and, by inheritance, its oracle children share one
        # CPU, so a probe hands over within it; see README, Environment.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # One BLAS thread for the benchmark and, through the inherited
    # environment, its oracle children; numpy reads it when it loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import numpy as np
    import obsorder
    import obsorder.cli  # noqa: F401
    if Path(obsorder.__file__).resolve().parent != SRC / "obsorder":
        print(f"error: imported obsorder from {obsorder.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    env = environment(np)
    print("environment " + json.dumps(env))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = None
    warm = Loop()
    setup_times = []

    def resetup():
        other, seconds = setup_once(workloads, args.workload, args.seed, workdir, warm)
        other.close()
        setup_times.append(seconds)

    try:
        wl, seconds = setup_once(workloads, args.workload, args.seed, workdir, warm)
        setup_times.append(seconds)
        tracer = spans.Tracer() if args.trace else None
        loop, rounds, traced_s, untraced_s = measure(wl, args.seconds, tracer, resetup)
        rss_mb = peak_rss_mb()
        spawn_ms = statistics.median(wl.spawn_ms) if wl.spawn_ms else 0.0
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    signal.alarm(0)

    failures = warm.failures + loop.failures
    attempted = warm.attempted + loop.attempted
    for line in failures[:20]:
        print(f"wrong: {line}")
    values, info = end_to_end(loop, wl.best_of_repeats, min(setup_times), rss_mb)
    print(f"run {args.workload} seed={args.seed} rounds={rounds} requests={info['requests']} "
          f"inputs={info['inputs']} timed_s={loop.timed_s:.3f} raw_rps={info['raw_rps']:.3f} "
          f"setups={len(setup_times)} beyond_p90={info['beyond_p90']} "
          f"small_dim={info['small_dim']} large_dim={info['large_dim']} "
          f"error_rate={len(failures) / attempted!r} ratio")
    if args.trace:
        overhead = 1.0 - untraced_s / traced_s
        values = tracer.metrics(loop.attempted // 2, overhead, spawn_ms)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    # names and units as BENCHMARK.json declares them, in its order
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, never print a result line
        traceback.print_exc()
        sys.exit(3)
