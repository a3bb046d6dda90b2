"""Command-line surface.

Subcommands: order, lambda-max, rank-order, reconstruct, preserver, verify.
Matrices travel as JSON files ("-" reads standard input). Exit codes are a
stable contract per subcommand; input problems always exit 2 with a message
on standard error and no partial output.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from pathlib import Path

from . import harness
from .automorphism import OrderAutomorphism, reconstruct
from .errors import (
    ObsOrderError,
    OracleNotAutomorphicError,
    TransportFailureError,
    ValidationError,
)
from .hermitian import as_psd, rank_numeric
from .io import (
    complex_matrix_from_dict,
    dumps,
    hermitian_from_dict,
    matrix_to_dict,
    vector_from_list,
    vector_to_list,
)
from .loewner import Relation, compare, max_lambda
from .oracle import SubprocessOracle
from .order_rank import rank_gt_np1_witness
from .preservers import RelationKind, preserves_relation
from .tolerances import DEFAULT_TOLERANCES, Tolerances

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NOT_AUTOMORPHIC = 3
EXIT_TRANSPORT = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_hermitian(path: str):
    return hermitian_from_dict(_load_json(path))


def _tolerances(args) -> Tolerances:
    return Tolerances(
        tol_psd=args.tol_psd,
        tol_rank=args.tol_rank,
        tol_range=args.tol_range,
    )


def _witness_dict(w) -> dict:
    return {"x": vector_to_list(w.x), "gap": w.gap}


def cmd_order(args) -> int:
    tol = _tolerances(args)
    a = _load_hermitian(args.a)
    b = _load_hermitian(args.b)
    result = compare(a, b, tol)
    witnesses = []
    if result.witness_ab is not None:
        witnesses.append({"direction": "refutes_a_leq_b", **_witness_dict(result.witness_ab)})
    if result.witness_ba is not None:
        witnesses.append({"direction": "refutes_b_leq_a", **_witness_dict(result.witness_ba)})
    print(dumps({"relation": result.relation.value, "witnesses": witnesses}))
    return EXIT_NEGATIVE if result.relation is Relation.INCOMPARABLE else EXIT_OK


def cmd_lambda_max(args) -> int:
    tol = _tolerances(args)
    b = as_psd(_load_hermitian(args.b), tol)  # non-PSD input exits 2
    try:
        x = vector_from_list(json.loads(args.x))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"inline vector: {exc}") from exc
    lam = max_lambda(x, b, tol)
    print(dumps({"lambda": lam}))
    return EXIT_OK


def cmd_rank_order(args) -> int:
    tol = _tolerances(args)
    a = as_psd(_load_hermitian(args.a), tol)
    witness = rank_gt_np1_witness(a, args.n, tol)
    payload: dict = {"rank_gt_np1": witness is not None}
    if witness is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        e_path = out_dir / "E.json"
        f_path = out_dir / "F.json"
        e_path.write_text(dumps(matrix_to_dict(witness.E.mat)) + "\n")
        f_path.write_text(dumps(matrix_to_dict(witness.F.mat)) + "\n")
        payload["witness"] = {
            "E": str(e_path),
            "F": str(f_path),
            "n": witness.n,
            "rank_E": rank_numeric(witness.E, tol),
            "rank_F": rank_numeric(witness.F, tol),
        }
    print(dumps(payload))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    tol = _tolerances(args)
    command = shlex.split(args.oracle)
    if not command:
        raise ValidationError("empty oracle command line")
    with SubprocessOracle(command, args.dim) as handle:
        report = reconstruct(handle, seed=args.seed, tol=tol)
    rec = report.recovered
    print(
        dumps(
            {
                "T": matrix_to_dict(rec.T),
                "conjugate": rec.conjugate,
                "X": matrix_to_dict(rec.X.mat),
                "phase_gauge": report.phase_gauge,
                "max_residual": report.max_residual,
                "probes_used": report.probes_used,
                "conjugate_degenerate": report.conjugate_degenerate,
            }
        )
    )
    return EXIT_OK


def cmd_preserver(args) -> int:
    tol = _tolerances(args)
    obj = _load_json(args.phi)
    try:
        t = complex_matrix_from_dict(obj["T"])
        conjugate = bool(obj["conjugate"])
        x = hermitian_from_dict(obj["X"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"automorphism file: {exc}") from exc
    phi = OrderAutomorphism.create(t, conjugate=conjugate, x=x, tol=tol)
    kind = RelationKind(args.kind.upper())
    cls = preserves_relation(phi, kind, trials=args.trials, seed=args.seed, tol=tol)
    payload: dict = {"preserves": cls.preserves}
    if cls.canonical_form is not None:
        form = cls.canonical_form
        payload["canonical_form"] = {
            "U": matrix_to_dict(form.U),
            "antiunitary": form.antiunitary,
            "lambda": form.lam,
            "mu": form.mu,
        }
    else:
        payload["canonical_form"] = None
    if cls.counterexample is not None:
        ce = cls.counterexample
        payload["counterexample"] = {
            "A": matrix_to_dict(ce.a),
            "B": matrix_to_dict(ce.b),
            "holds_before": ce.holds_before,
            "holds_after": ce.holds_after,
        }
    else:
        payload["counterexample"] = None
    print(dumps(payload))
    return EXIT_OK if cls.preserves else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    dims = [int(p) for p in args.dims.split(",") if p]
    report = harness.run_suite(args.suite, dims, args.trials, seed=args.seed, tolerances=tol)
    print(dumps(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it (each
    ``add_argument`` makes a help formatter) costs over twenty times as much
    as parsing with it, 1.3 against 0.06 ms on one CPU of a shared 2-vCPU
    VM. ``parse_args`` returns a fresh namespace on every call and leaves
    the parser as it was, so ``main`` can be called repeatedly."""
    parser = argparse.ArgumentParser(
        prog="obsorder",
        description="Loewner-order toolkit: order predicates, order-rank tests, "
        "congruence automorphisms and preserver classifiers on JSON matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOLERANCES.tol_psd)
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOLERANCES.tol_rank)
    common.add_argument("--tol-range", type=float, default=DEFAULT_TOLERANCES.tol_range)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common], help="compare two observables")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("lambda-max", parents=[common], help="extremal lambda with lambda x(x)x <= B")
    p.add_argument("b")
    p.add_argument("x", help="inline vector JSON: [[re,im],...]")
    p.set_defaults(fn=cmd_lambda_max)

    p = sub.add_parser("rank-order", parents=[common], help="order-theoretic rank > n+1 test")
    p.add_argument("a")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_rank_order)

    p = sub.add_parser("reconstruct", parents=[common], help="recover (T, X) from a subprocess oracle")
    p.add_argument("--oracle", required=True, help="oracle command line; dim is appended")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("preserver", parents=[common], help="classify a relation preserver")
    p.add_argument("phi", help="automorphism JSON file {T, conjugate, X}")
    p.add_argument(
        "--kind",
        required=True,
        choices=["commutativity", "complementarity", "orthogonality"],
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_preserver)

    p = sub.add_parser("verify", parents=[common], help="run a theorem suite")
    p.add_argument("suite")
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TransportFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OracleNotAutomorphicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_AUTOMORPHIC
    except (ObsOrderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
