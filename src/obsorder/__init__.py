"""Order structure of bounded observables at finite dimension.

Loewner-order predicates with refuting witnesses, order-theoretic rank
detection, congruence order-automorphisms A -> T A T* + X (with a
conjugate-linear branch), black-box reconstruction of (T, X), and
classifiers for maps that additionally preserve commutativity,
complementarity, or orthogonality.
"""

from .automorphism import (
    OrderAutomorphism,
    ReconstructionReport,
    apply,
    check_order_automorphism,
    compose,
    invert,
    reconstruct,
)
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NumericalFailureError,
    ObsOrderError,
    OracleNotAutomorphicError,
    SearchExhaustedError,
    TransportFailureError,
    ValidationError,
)
from .harness import SuiteReport, run_suite
from .hermitian import (
    Eigendecomposition,
    HermitianMatrix,
    PsdMatrix,
    eig,
    range_basis,
    rank_numeric,
    rank_one,
)
from .loewner import (
    OrderResult,
    OrderWitness,
    Relation,
    compare,
    leq,
    max_lambda,
    range_dominates,
)
from .oracle import OracleHandle, SubprocessOracle, from_automorphism
from .order_rank import (
    RankWitness,
    is_rank_one_by_order,
    no_common_rank1_minorant,
    rank_gt_np1_witness,
)
from .preservers import (
    PreserverClassification,
    RelationKind,
    commute,
    complementary,
    local_linear_dependence_scalar,
    orthogonal,
    preserves_relation,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
