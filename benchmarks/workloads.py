"""Seeded inputs, requests and answer checks for the three workloads.

Every input is built here with plain numpy, and its expected answer is fixed
at the same time from the construction (a known relation, a known spectrum,
a known map), never by asking the library. Checks use tolerances, never bit
equality, so a refactor that moves the last bits of a result still passes.
Inputs keep their verdicts far from the library's tolerances, so the
expected answer does not hinge on round-off.

Only public obsorder names are used. Library functions are looked up on the
``obsorder`` package (or ``obsorder.cli``) when a request runs, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import obsorder
import obsorder.cli

CHILD = Path(__file__).resolve().parent / "oracle_child.py"

ORDER_API_DIMS = (2, 8, 32, 64)
ORDER_API_VARIANTS = 4
ORDER_CASES = ("LEQ", "GEQ", "EQUAL", "INCOMPARABLE")
# check_order_automorphism samples this many pairs per request; at d = 64
# each pair costs two compare calls through the oracle.
AUTOMORPHISM_TRIALS = 2

# reconstruct inputs per dim and how often each repeats in a round. A round
# takes about 7 s, so each d = 2 input repeats about 64 times in a 30 s run
# and its best time is steady (run.end_to_end). Of 114 requests a round, 16
# are at d = 8 and 2 above it, so the p90 falls inside the d = 8 group rather
# than on the edge between two dims.
ORACLE_PIPE_MIX = {2: (6, 16), 8: (2, 8), 32: (1, 1), 64: (1, 1)}
# condition number of T in the oracle-pipe maps
PIPE_COND = 1e4

VERIFY_DIMS = (2, 4, 8, 12)
VERIFY_SUITES = ("thm1", "thm2", "thm2-illcond", "lemma-rng", "lemma-rank", "cor3", "cor4", "cor5")
VERIFY_TRIALS = 2
# Suite work depends on the seed (drawn ranks, conditioning retries, search
# length), so each run cycles through many seeds to average it out.
VERIFY_VARIANTS = 16


@dataclass(frozen=True)
class Request:
    """One closed-loop call. ``check`` returns None for a right answer and
    otherwise says what is wrong; it runs outside the timed interval."""

    kind: str
    dim: int
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


@dataclass
class Workload:
    """Rounds of requests (one round per input variant) and what they hold."""

    rounds: list[list[Request]]
    warmup: list[Request]
    handles: list = field(default_factory=list)
    spawn_ms: list[float] = field(default_factory=list)
    # count each request at its input's best time in the run (run.end_to_end)
    best_of_repeats: bool = False

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
        self.handles = []


# ---------------------------------------------------------------------------
# Generators (the benchmark's own; the library's are not used)
# ---------------------------------------------------------------------------

def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
    return (g + g.conj().T) / 2.0


def spectral(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """U diag(mu) U*, made exactly Hermitian."""
    m = (u * mu) @ u.conj().T
    return (m + m.conj().T) / 2.0


def unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    return c / np.linalg.norm(c)


def invertible(rng: np.random.Generator, d: int, cond: float) -> np.ndarray:
    """U diag(s) V* with s geometric from 1/sqrt(cond) to sqrt(cond). The
    spectrum is fixed so that the size of T's entries, and with it the
    length of their decimal form on the wire, does not vary with the seed."""
    s = np.geomspace(cond ** -0.5, cond ** 0.5, d)
    return (unitary(rng, d) * s) @ unitary(rng, d).conj().T


def phase_distance(t_rec: np.ndarray, t_gen: np.ndarray) -> float:
    """min over unit phases c of ||t_rec - c t_gen||_F / ||t_gen||_F."""
    inner = complex(np.vdot(t_gen, t_rec))
    c = inner / abs(inner) if abs(inner) > 0.0 else 1.0
    return float(np.linalg.norm(t_rec - c * t_gen) / np.linalg.norm(t_gen))


def _scale(*mats: np.ndarray) -> float:
    return max([1.0] + [float(np.max(np.abs(np.linalg.eigvalsh(m)))) for m in mats])


def _rank(m: np.ndarray, scale: float) -> int:
    # inputs have eigenvalues >= 0.5 or at round-off level, so any cut in
    # between gives the same count
    return int(np.count_nonzero(np.linalg.eigvalsh(m) > 1e-6 * scale))


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


# ---------------------------------------------------------------------------
# order-api: in-process Loewner-order, rank and automorphism-check calls
# ---------------------------------------------------------------------------

def _order_pair(rng: np.random.Generator, d: int, case: str) -> tuple[np.ndarray, np.ndarray]:
    """A pair whose relation is ``case`` with every eigenvalue of B - A at
    least 0.5 away from zero, or (EQUAL) at most 1e-12."""
    a = hermitian(rng, d)
    if case == "EQUAL":
        h = hermitian(rng, d)
        return a, a + 1e-12 * h / np.linalg.norm(h, 2)
    mu = rng.uniform(0.5, 2.0, d)
    if case == "GEQ":
        mu = -mu
    elif case == "INCOMPARABLE":
        mu[rng.permutation(d)[: d // 2]] *= -1.0
    return a, a + spectral(unitary(rng, d), mu)


def _witness_error(w, p: np.ndarray, q: np.ndarray, label: str, scale: float) -> str | None:
    """A witness refuting P <= Q is a unit x with <(P - Q)x, x> > 0."""
    x = np.asarray(w.x, dtype=np.complex128).reshape(-1)
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-8:
        return f"witness refuting {label} is not a unit vector"
    form = float(np.real(np.vdot(x, (p - q) @ x)))
    if not form > 0.0:
        return f"witness refuting {label} does not refute it: <(P-Q)x,x> = {form:.3e}"
    if abs(float(w.gap) - form) > 1e-8 * scale:
        return f"witness refuting {label} reports gap {w.gap!r}, recomputed {form!r}"
    return None


def _check_leq(expected: bool):
    def check(result) -> str | None:
        if not _is_bool(result) or bool(result) != expected:
            return f"leq returned {result!r}, expected {expected}"
        return None

    return check


def _check_compare(a: np.ndarray, b: np.ndarray, case: str):
    scale = _scale(a, b)
    ab_false = case in ("GEQ", "INCOMPARABLE")
    ba_false = case in ("LEQ", "INCOMPARABLE")

    def check(result) -> str | None:
        if result.relation.value != case:
            return f"compare returned {result.relation.value}, expected {case}"
        # GEQ must refute A <= B, INCOMPARABLE both; a witness against a
        # relation that holds is wrong whatever it contains
        for w, false, needed, p, q, label in (
            (result.witness_ab, ab_false, ab_false, a, b, "A <= B"),
            (result.witness_ba, ba_false, case == "INCOMPARABLE", b, a, "B <= A"),
        ):
            if w is None:
                if needed:
                    return f"compare gave no witness refuting {label}"
            elif not false:
                return f"compare gave a witness refuting {label}, which holds"
            else:
                err = _witness_error(w, p, q, label, scale)
                if err:
                    return err
        return None

    return check


def _range_case(rng: np.random.Generator, d: int, inside: bool):
    """B = U diag(mu) U* of rank max(1, d/2) and a unit x = U c, inside rng B
    or with half its weight in ker B. Returns B, x and the closed-form
    lambda = 1 / sum |c_i|^2 / mu_i (None when x is outside)."""
    r = max(1, d // 2)
    u = unitary(rng, d)
    mu = np.zeros(d)
    mu[:r] = rng.uniform(0.5, 2.0, r)
    c = np.zeros(d, dtype=np.complex128)
    if inside:
        c[:r] = unit_vector(rng, r)
        lam = 1.0 / float(np.sum(np.abs(c[:r]) ** 2 / mu[:r]))
    else:
        c[:r] = unit_vector(rng, r) * np.sqrt(0.5)
        c[r:] = unit_vector(rng, d - r) * np.sqrt(0.5)
        lam = None
    return spectral(u, mu), u @ c, lam


def _check_max_lambda(expected: float | None):
    def check(result) -> str | None:
        if expected is None:
            return None if result is None else f"max_lambda returned {result!r} for x outside rng B"
        if not isinstance(result, float) or abs(result - expected) > 1e-6 * expected:
            return f"max_lambda returned {result!r}, expected {expected!r}"
        return None

    return check


def _rank_case(rng: np.random.Generator, d: int, witness: bool):
    """PSD A of known rank r and an n with r > n + 1 (witness) or r <= n + 1."""
    if witness and d >= 3:
        r = int(rng.integers(3, d + 1))
        n = int(rng.integers(1, r - 1))
    else:
        r = int(rng.integers(1, d + 1))
        n = max(1, r - 1)
    mu = np.zeros(d)
    mu[:r] = rng.uniform(0.5, 2.0, r)
    return spectral(unitary(rng, d), mu), n, r


def _check_rank_witness(a: np.ndarray, n: int, r: int):
    scale = _scale(a)

    def check(w) -> str | None:
        if r <= n + 1:
            return None if w is None else f"witness returned although rank {r} <= n + 1 = {n + 1}"
        if w is None:
            return f"no witness although rank {r} > n + 1 = {n + 1}"
        if w.n != n:
            return f"witness is for n = {w.n}, asked n = {n}"
        e = np.asarray(w.E.mat)
        f = np.asarray(w.F.mat)
        for name, m in (("E", e), ("F", f)):
            if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
                return f"{name} is not Hermitian"
            if float(np.linalg.eigvalsh(m)[0]) < -1e-9 * scale:
                return f"{name} is not PSD"
            if float(np.linalg.eigvalsh(a - m)[0]) < -1e-9 * scale:
                return f"{name} <= A fails"
        rank_e, rank_f = _rank(e, scale), _rank(f, scale)
        if rank_e != n:
            return f"rank E = {rank_e}, expected n = {n}"
        if rank_f < 2:
            return f"rank F = {rank_f}, expected > 1"
        if _rank(e + f, scale) != rank_e + rank_f:
            return "ranges of E and F intersect"
        return None

    return check


def _check_automorphism_report(preserving: bool, trials: int):
    def check(report) -> str | None:
        if report.trials != trials:
            return f"report covers {report.trials} trials, asked {trials}"
        if preserving:
            if report.violations or not report.passed:
                return f"order-automorphism reported violations: {report.violations!r}"
            return None
        if report.passed or not report.violations:
            return "order-reversing map passed the order check"
        if any(v["before"] == v["after"] for v in report.violations):
            return "a reported violation does not change the relation"
        return None

    return check


def _order_api_requests(rng: np.random.Generator, d: int) -> list[Request]:
    reqs: list[Request] = []
    for case in ORDER_CASES:
        a, b = _order_pair(rng, d, case)
        reqs.append(Request(f"leq/{case}", d, lambda a=a, b=b: obsorder.leq(a, b),
                            _check_leq(case in ("LEQ", "EQUAL"))))
        a, b = _order_pair(rng, d, case)
        reqs.append(Request(f"compare/{case}", d, lambda a=a, b=b: obsorder.compare(a, b),
                            _check_compare(a, b, case)))
    for inside in (True, False):
        where = "in" if inside else "out"
        b, x, lam = _range_case(rng, d, inside)
        reqs.append(Request(f"max_lambda/{where}", d, lambda x=x, b=b: obsorder.max_lambda(x, b),
                            _check_max_lambda(lam)))
        b, x, lam = _range_case(rng, d, inside)
        a = float(rng.uniform(0.5, 2.0)) * np.outer(x, x.conj())
        reqs.append(Request(f"range_dominates/{where}", d,
                            lambda a=a, b=b: obsorder.range_dominates(a, b),
                            _check_leq(inside)))
    for witness in (True, False):
        a, n, r = _rank_case(rng, d, witness)
        reqs.append(Request(f"rank_gt_np1_witness/{'yes' if r > n + 1 else 'no'}", d,
                            lambda a=a, n=n: obsorder.rank_gt_np1_witness(a, n),
                            _check_rank_witness(a, n, r)))
    seed = int(rng.integers(2**31))
    phi = obsorder.OrderAutomorphism.create(
        invertible(rng, d, 3.0), conjugate=bool(rng.integers(0, 2)), x=hermitian(rng, d)
    )
    reqs.append(Request(
        "check_order_automorphism/automorphism", d,
        lambda phi=phi, seed=seed: obsorder.check_order_automorphism(
            obsorder.from_automorphism(phi), trials=AUTOMORPHISM_TRIALS, seed=seed),
        _check_automorphism_report(True, AUTOMORPHISM_TRIALS)))
    reqs.append(Request(
        "check_order_automorphism/reversal", d,
        lambda d=d, seed=seed: obsorder.check_order_automorphism(
            obsorder.OracleHandle(np.negative, d), trials=AUTOMORPHISM_TRIALS, seed=seed),
        _check_automorphism_report(False, AUTOMORPHISM_TRIALS)))
    return reqs


def build_order_api(seed: int, workdir: Path, dims=ORDER_API_DIMS,
                    variants: int = ORDER_API_VARIANTS) -> Workload:
    rounds = []
    for v in range(variants):
        rnd: list[Request] = []
        for d in dims:
            rnd.extend(_order_api_requests(np.random.default_rng([seed, 1, v, d]), d))
        rounds.append(rnd)
    # Each input repeats about 36 times in a run, so its best time is steady;
    # see run.end_to_end for why order-api is counted that way.
    return Workload(rounds=rounds, warmup=rounds[0], best_of_repeats=True)


# ---------------------------------------------------------------------------
# oracle-pipe: reconstruct over the stdio subprocess oracle
# ---------------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def _check_reconstruction(t: np.ndarray, conjugate: bool, x: np.ndarray):
    x_scale = max(1.0, float(np.max(np.abs(x))))

    def check(report) -> str | None:
        rec = report.recovered
        dist = phase_distance(np.asarray(rec.T), t)
        if not dist <= 1e-6:
            return f"recovered T is {dist:.3e} from the generating T up to phase"
        if rec.conjugate != conjugate:
            return f"recovered conjugate flag {rec.conjugate}, generated {conjugate}"
        err = float(np.max(np.abs(np.asarray(rec.X.mat) - x)))
        if not err <= 1e-8 * x_scale:
            return f"recovered X differs by {err:.3e}"
        return None

    return check


def spawn_oracle(phi_path: Path, d: int):
    """Start a benchmark-owned oracle child; returns it with the ms until its
    first reply (interpreter start, imports and one probe)."""
    start = time.perf_counter()
    handle = obsorder.SubprocessOracle([sys.executable, str(CHILD), str(phi_path)], d)
    try:
        handle.query(np.zeros((d, d), dtype=np.complex128))
    except BaseException:
        handle.close()
        raise
    return handle, (time.perf_counter() - start) * 1e3


def build_oracle_pipe(seed: int, workdir: Path, mix: dict = ORACLE_PIPE_MIX) -> Workload:
    wl = Workload(rounds=[], warmup=[], best_of_repeats=True)
    per_dim: dict[int, list[Request]] = {}
    try:
        for d, (count, repeats) in mix.items():
            rng = np.random.default_rng([seed, 2, d])
            t = invertible(rng, d, PIPE_COND)
            conjugate = bool(rng.integers(0, 2))
            x = hermitian(rng, d)
            path = workdir / f"phi-{d}.json"
            path.write_text(json.dumps({"T": _matrix_json(t), "conjugate": conjugate,
                                        "X": _matrix_json(x)}))
            handle, ms = spawn_oracle(path, d)
            wl.handles.append(handle)
            wl.spawn_ms.append(ms)
            check = _check_reconstruction(t, conjugate, x)
            inputs = [
                Request("reconstruct", d,
                        lambda h=handle, s=int(s): obsorder.reconstruct(h, seed=s), check)
                for s in rng.integers(2**31, size=count)
            ]
            per_dim[d] = inputs * repeats
    except BaseException:
        wl.close()
        raise
    # spread each dim's requests, and each input's repeats, evenly over the round
    slots = sorted(((i + 0.5) / len(reqs), n, req) for n, reqs in enumerate(per_dim.values())
                   for i, req in enumerate(reqs))
    wl.rounds = [[req for _, _, req in slots]]
    wl.warmup = per_dim[min(mix)][:1]
    return wl


# ---------------------------------------------------------------------------
# verify-cli: in-process `obsorder verify` over every suite
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = obsorder.cli.main(argv)
    return code, buf.getvalue()


def _check_verify(suite: str, d: int, trials: int):
    def check(result) -> str | None:
        code, text = result
        try:
            report = json.loads(text.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return f"verify {suite} printed no JSON report (exit {code})"
        if code != 0 or report.get("failures") != []:
            return f"verify {suite} d={d} exit {code}, failures {report.get('failures')!r}"
        if report.get("suite") != suite or report.get("dims") != [d] or report.get("trials") != trials:
            return f"verify {suite} d={d} reported another run: {report!r}"
        return None

    return check


def build_verify_cli(seed: int, workdir: Path, dims=VERIFY_DIMS, trials: int = VERIFY_TRIALS,
                     variants: int = VERIFY_VARIANTS) -> Workload:
    rounds = []
    for v in range(variants):
        suite_seed = int(np.random.default_rng([seed, 3, v]).integers(2**31))
        rounds.append([
            Request(f"verify/{suite}", d,
                    lambda argv=["verify", suite, "--dims", str(d), "--trials", str(trials),
                                 "--seed", str(suite_seed)]: run_cli(argv),
                    _check_verify(suite, d, trials))
            for d in dims for suite in VERIFY_SUITES
        ])
    return Workload(rounds=rounds, warmup=rounds[0])


BUILDERS = {
    "order-api": build_order_api,
    "oracle-pipe": build_oracle_pipe,
    "verify-cli": build_verify_cli,
}
