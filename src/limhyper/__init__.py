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
    HyperTopology,
    build_topology,
    hyper_closure,
    hyper_component,
    is_closed_sub,
    is_connected_hyper,
    is_dense,
    is_separated_in,
    product_closure,
    seq_limits,
)
from .limitsets import (
    HyperCarrier,
    carrier,
    carriers,
    eta,
    is_limit_set,
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
