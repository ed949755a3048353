"""Hyperspaces of closed sets and closed limit sets of finite topological
spaces, together with an exhaustive checking suite for their structural
properties under the lower semifinite and Fell topologies."""

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    DuplicateLabel,
    GroundMismatch,
    InvariantViolation,
    LimHyperError,
    NotInCarrier,
    NotOpen,
    ParseError,
)
from .finspace import (
    FinTopSpace,
    closed_sets,
    closure,
    digest,
    enumerate_topologies,
    from_preorder,
    is_T0,
    is_connected,
    min_nbhd,
    separated_points,
    specialization_pairs,
    validate_topology,
)
from .hyperspace import (
    EvPerSeq,
    HyperTopology,
    basic_open_membership,
    build_topology,
    conv1_conditions,
    hyper_closure,
    hyper_component,
    identity_continuous_at,
    inclusion_relation,
    is_closed_sub,
    is_compact_cover,
    is_connected_hyper,
    is_dense,
    is_hausdorff,
    is_primitive,
    is_separated_in,
    min_nbhd_oracle,
    product_closure,
    product_is_closed,
    product_min_nbhd,
    S_of,
    seq_clusters,
    seq_limits,
)
from .limitsets import (
    HyperCarrier,
    carrier,
    carriers,
    eta,
    is_limit_set,
    is_limit_set_oracle,
    limit_witness,
)
from .spaceio import LabeledSpace, emit_report, parse_report, parse_space
from .theorems import (
    CheckResult,
    SweepResult,
    VerificationReport,
    mine_check_failures,
    run_check,
    sweep,
    verify_all,
)

__version__ = "0.1.0"
