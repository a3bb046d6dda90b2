#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark's answer checks.

    python3 benchmarks/selfcheck.py

Builds every workload at small dims, runs each request once and requires
its check to accept the library's answer and to reject each corrupted copy
of it: a flipped verdict, a dropped or bent witness, a moved lambda, a
rank witness that no longer sits below A, a perturbed T, a flipped
conjugation flag, a failing verify report. Prints one line per request and
exits 0 only when every check behaved.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402

import obsorder  # noqa: E402
import workloads  # noqa: E402


def _other_relation(result):
    relations = list(type(result.relation))
    flipped = relations[(relations.index(result.relation) + 1) % len(relations)]
    return replace(result, relation=flipped)


def _bend_witnesses(result):
    """Each present witness made non-unit, and each one given a wrong gap."""
    out = []
    for field in ("witness_ab", "witness_ba"):
        w = getattr(result, field)
        if w is not None:
            out.append(replace(result, **{field: replace(w, x=2.0 * np.asarray(w.x))}))
            out.append(replace(result, **{field: replace(w, gap=w.gap + 1.0)}))
            out.append(replace(result, **{field: None}))
    return out


def _compare(result, dim):
    """Another relation, bent witnesses, and a witness against A <= B where
    A <= B holds."""
    out = [_other_relation(result)] + _bend_witnesses(result)
    if result.witness_ab is None:
        x = np.zeros(dim, dtype=np.complex128)
        x[0] = 1.0
        out.append(replace(result, witness_ab=obsorder.OrderWitness(x=x, gap=0.0)))
    return out


def _max_lambda(result, dim):
    return [1.0] if result is None else [None, result * (1.0 + 1e-4)]


def _rank_witness(w, dim):
    if w is None:
        return ["a witness"]
    bigger = obsorder.PsdMatrix.from_hermitian(2.0 * np.asarray(w.E.mat))
    return [None, replace(w, E=bigger), replace(w, n=w.n + 1), replace(w, F=w.E)]


def _order_check(report, dim):
    if report.violations:
        return [replace(report, violations=[])]
    return [replace(report, violations=[{"trial": 0, "before": "LEQ", "after": "GEQ"}])]


def _reconstruction(report, dim):
    rec = report.recovered
    t = np.asarray(rec.T)
    x = np.asarray(rec.X.mat)
    return [
        replace(report, recovered=replace(rec, T=t + 1e-4 * np.abs(t).max())),
        replace(report, recovered=replace(rec, conjugate=not rec.conjugate)),
        replace(report, recovered=replace(rec, X=obsorder.HermitianMatrix.from_array(x + np.eye(len(x))))),
    ]


def _verify(result, dim):
    code, text = result
    report = json.loads(text)
    failing = dict(report, failures=[{"seed": 0, "dim": 2, "trial": 0, "violated": "x"}])
    return [(1, text), (code, json.dumps(failing)), (code, json.dumps(dict(report, trials=0))),
            (code, "")]


CORRUPTIONS = {
    "leq": lambda r, dim: [not r],
    "range_dominates": lambda r, dim: [not r],
    "compare": _compare,
    "max_lambda": _max_lambda,
    "rank_gt_np1_witness": _rank_witness,
    "check_order_automorphism": _order_check,
    "reconstruct": _reconstruction,
    "verify": _verify,
}


def check_workload(name: str, wl) -> int:
    bad = 0
    for req in [r for rnd in wl.rounds for r in rnd]:
        result = req.call()
        accepted = req.check(result)
        corrupted = CORRUPTIONS[req.kind.split("/")[0]](result, req.dim)
        missed = [c for c in corrupted if req.check(c) is None]
        ok = accepted is None and corrupted and not missed
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} {req.kind} d={req.dim}: "
              f"answer {'accepted' if accepted is None else 'rejected: ' + accepted}, "
              f"{len(corrupted) - len(missed)}/{len(corrupted)} corruptions rejected")
    return bad


def main() -> int:
    workdir = ROOT / ".bench_out" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tiny = {
        "order-api": lambda: workloads.build_order_api(7, workdir, dims=(2, 4), variants=1),
        "oracle-pipe": lambda: workloads.build_oracle_pipe(7, workdir, mix={2: (1, 1), 3: (1, 1)}),
        "verify-cli": lambda: workloads.build_verify_cli(7, workdir, dims=(2,), trials=1, variants=1),
    }
    bad = 0
    try:
        for name, build in tiny.items():
            wl = build()
            try:
                bad += check_workload(name, wl)
            finally:
                wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check", "passed" if not bad else f"FAILED in {bad} requests")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
