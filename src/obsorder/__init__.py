"""Order structure of bounded observables at finite dimension.

Loewner-order predicates with refuting witnesses, order-theoretic rank
detection, congruence order-automorphisms A -> T A T* + X (with a
conjugate-linear branch), black-box reconstruction of (T, X), and
classifiers for maps that additionally preserve commutativity,
complementarity, or orthogonality.

Names load on first use: ``import obsorder`` imports no submodule, and
``obsorder.leq`` (or ``obsorder.loewner``) imports the module that defines
it the first time it is looked up (PEP 562). An oracle child that imports
``obsorder.demo_oracles`` thus loads only the wire format and what it
rests on, not the order, reconstruction or transport code.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "automorphism": (
        "OrderAutomorphism",
        "ReconstructionReport",
        "apply",
        "check_order_automorphism",
        "compose",
        "invert",
        "reconstruct",
    ),
    "errors": (
        "DimensionMismatchError",
        "InternalInconsistencyError",
        "NumericalFailureError",
        "ObsOrderError",
        "OracleNotAutomorphicError",
        "SearchExhaustedError",
        "TransportFailureError",
        "ValidationError",
    ),
    "harness": ("SuiteReport", "run_suite"),
    "hermitian": (
        "Eigendecomposition",
        "HermitianMatrix",
        "PsdMatrix",
        "eig",
        "range_basis",
        "rank_numeric",
        "rank_one",
    ),
    "loewner": (
        "OrderResult",
        "OrderWitness",
        "Relation",
        "compare",
        "leq",
        "max_lambda",
        "range_dominates",
    ),
    "oracle": ("OracleHandle", "SubprocessOracle", "from_automorphism"),
    "order_rank": (
        "RankWitness",
        "is_rank_one_by_order",
        "no_common_rank1_minorant",
        "rank_gt_np1_witness",
    ),
    "preservers": (
        "PreserverClassification",
        "RelationKind",
        "commute",
        "complementary",
        "local_linear_dependence_scalar",
        "orthogonal",
        "preserves_relation",
    ),
    "tolerances": ("DEFAULT_TOLERANCES", "Tolerances"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "demo_oracles", "generators", "io"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
