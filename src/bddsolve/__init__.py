"""Solver for 0-1 integer linear programs via Lagrangean decomposition over
per-constraint binary decision diagrams with min-marginal averaging."""

from .model import (
    ILPInstance,
    LinearConstraint,
    Relation,
    Decomposition,
    LpParseError,
    ModelError,
    parse_lp,
    write_lp,
    decompose,
    presolve_free,
    order_variables,
)
from .bdd import Bdd, BddError, BddBuildError, build_bdd
from .dual import (
    UNIFORM,
    SRMP,
    TraceEntry,
    DualReport,
    DualState,
    init_duals,
    mma_update,
    forward_pass,
    backward_pass,
    run,
)
from .primal import (
    NEG_MARGIN,
    ABS_MARGIN,
    COUNT_ALIGNED,
    PrimalScores,
    PrimalResult,
    compute_scores,
    restriction_propagation,
    primal_search,
)
from .solver import SolveOptions, RunReport, solve_instance

__version__ = "0.1.0"
