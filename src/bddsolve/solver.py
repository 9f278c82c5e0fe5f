"""End-to-end pipeline: instance -> diagrams -> dual ascent -> rounding.

Free variables (covered by no row) are fixed to their cheapest value up
front; their cost and the instance's constant offset shift every reported
bound, so bounds and objective values are always in the instance's own
scale.  Any returned solution has been re-checked against the original
rows and costed exactly.

`solve_instance` pauses CPython's cyclic garbage collector for the whole
pipeline: the rows, diagrams, dual tables, trail and cost lists it makes
form no reference cycles, so every automatic collection during a solve
walks a large live heap and frees nothing.  The pause is process-wide.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import dual as _dual
from . import primal as _primal
from .bdd import DEFAULT_STATE_BUDGET, build_bdd
from .dual import init_duals
from .model import ORDERS, ILPInstance, decompose, order_variables, presolve_free

SOLVED = "solved"
INFEASIBLE = "infeasible"
DUAL_ONLY = "dual_only"


@dataclass(frozen=True)
class SolveOptions:
    max_passes: int = _dual.DEFAULT_MAX_PASSES
    tolerance: float = _dual.DEFAULT_TOLERANCE
    smoothing: float = 0.0
    averaging: str = _dual.UNIFORM
    strategy: str = _primal.NEG_MARGIN
    primal_budget: int | None = None  # None -> 10 * num_vars; 0 -> unlimited
    order: str = "input"
    state_budget: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        if self.max_passes < 0:
            raise ValueError(f"max_passes must be nonnegative, got {self.max_passes}")
        if self.state_budget < 1:
            raise ValueError(f"state_budget must be positive, got {self.state_budget}")
        if self.primal_budget is not None and self.primal_budget < 0:
            raise ValueError(f"primal_budget must be nonnegative, got {self.primal_budget}")
        if not self.tolerance >= 0:  # NaN fails too
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance!r}")
        _dual.check_modes(self.smoothing, self.averaging)
        if self.strategy not in _primal.STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.order not in ORDERS:
            raise ValueError(f"unknown ordering strategy {self.order!r}")


@dataclass
class RunReport:
    instance_name: str
    num_vars: int
    num_constraints: int
    num_nodes: int
    status: str  # "solved" | "infeasible" | "dual_only"
    termination: str
    passes: int
    lower_bound: float  # +inf when infeasibility was proven
    solution: list | None = None
    objective_value: Fraction | None = None
    primal_attempts: int = 0
    build_time_ms: float = 0.0
    dual_time_ms: float = 0.0
    primal_time_ms: float = 0.0
    primal_conflicts: int = 0
    primal_backtracks: int = 0
    primal_max_depth: int = 0
    primal_propagated: int = 0
    trace: list = field(default_factory=list)

    @property
    def gap(self):
        """min(1, (ub - lb) / max(|ub|, |lb|)); 0 once infeasibility is proven, None without a solution.

        Both bounds 0 read as 0, and a lower bound within the solver's
        tolerance above the solution clamps to 0.
        """
        if self.status == INFEASIBLE:
            return 0.0
        if self.objective_value is None:
            return None
        ub = float(self.objective_value)
        scale = max(abs(ub), abs(self.lower_bound))
        if scale == 0:
            return 0.0
        return min(1.0, max(0.0, (ub - self.lower_bound) / scale))


def _effective_budget(option_value, num_vars):
    if option_value is None:
        return 10 * num_vars
    if option_value == 0:
        return None
    return option_value


def solve_instance(instance: ILPInstance, options: SolveOptions = None) -> RunReport:
    """Run the whole pipeline on one instance, with automatic collection paused.

    If the cyclic garbage collector is enabled, it is disabled for the
    solve and enabled again on return or raise; a collector the caller
    disabled (or an enclosing solve paused) is left alone.  The pipeline
    makes no reference cycles, so the pause delays no memory the collector
    would have freed.  It is process-wide: cycles made meanwhile by other
    threads wait until the solve returns, and of solves overlapping in
    several threads the one that paused the collector ends the pause when
    it returns, whether or not the others have.  `parse_lp` is not
    paused: the instance it returns is the caller's, who may keep it,
    and pausing the parse as well measured no clear further gain.
    """
    if not gc.isenabled():
        return _solve(instance, options)
    gc.disable()
    try:
        return _solve(instance, options)
    finally:
        gc.enable()


def _solve(instance, options):
    if options is None:
        options = SolveOptions()
    order = order_variables(instance, options.order)
    dec = decompose(instance, order)
    free_fixes, free_gain = presolve_free(instance, dec)
    shift = float(instance.objective_offset + free_gain)

    t0 = time.perf_counter()
    shapes = {}  # every template of this instance, dropped once the rows are built
    bdds = [
        build_bdd(c, support, options.state_budget, shapes)
        for c, support in zip(instance.constraints, dec.subproblem_vars)
    ]
    build_ms = (time.perf_counter() - t0) * 1000.0
    del shapes
    # a fresh diagram is empty with every node removed, or has none removed
    live = [b for b in bdds if not b.is_empty()]
    # the report of the build exit, filled in as the dual and the search finish
    report = RunReport(
        instance_name=instance.name,
        num_vars=instance.num_vars,
        num_constraints=len(instance.constraints),
        num_nodes=sum(len(b.lo) - 2 for b in live),
        status=INFEASIBLE,
        termination="infeasible",
        passes=0,
        lower_bound=math.inf,
        build_time_ms=build_ms,
    )
    if len(live) < len(bdds):
        return report

    t0 = time.perf_counter()
    state = init_duals(bdds, dec, instance.objective, options.smoothing, options.averaging)
    dual_report = _dual.run(state, options.max_passes, options.tolerance)
    report.dual_time_ms = (time.perf_counter() - t0) * 1000.0
    report.passes = dual_report.passes
    report.trace = [
        _dual.TraceEntry(t.pass_index, t.direction, t.lower_bound + shift, t.time_ms)
        for t in dual_report.trace
    ]
    if dual_report.termination == "infeasible":
        return report

    t0 = time.perf_counter()
    result = _primal.primal_search(
        state,
        preassigned=free_fixes,
        strategy=options.strategy,
        budget=_effective_budget(options.primal_budget, instance.num_vars),
    )
    report.primal_time_ms = (time.perf_counter() - t0) * 1000.0
    report.primal_attempts = result.attempts
    report.primal_conflicts = result.conflicts
    report.primal_backtracks = result.backtracks
    report.primal_max_depth = result.max_depth
    report.primal_propagated = result.propagated
    if result.status == _primal.INFEASIBLE:
        # Exhausting the search tree is a complete proof: no assignment
        # satisfies all rows, whatever the dual bound said.
        return report

    report.termination = dual_report.termination
    report.lower_bound = dual_report.lower_bound + shift
    if result.status == _primal.SOLVED:
        solution = [result.assignment[i] for i in range(instance.num_vars)]
        if not instance.check_assignment(solution):
            raise RuntimeError("internal error: rounded assignment fails the constraints")
        report.solution = solution
        report.objective_value = instance.objective_value(solution)
        report.status = SOLVED
    else:
        report.status = DUAL_ONLY
    return report
