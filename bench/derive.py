"""Pure derivations of the benchmark's metrics from solver outputs and spans.

Nothing here times or runs anything, so every formula can be checked on
hand-made inputs (see test_derive.py).
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

SOLVED = "solved"
INFEASIBLE = "infeasible"
DUAL_ONLY = "dual_only"


def instance_gap(status, lower_bound, upper_bound):
    """Relative optimality gap of one instance, in [0, 1].

    A proven infeasible instance has gap 0 and an instance without a
    solution has gap 1, so turning a failure into any solution can only
    lower the gap.  Otherwise min(1, (ub - lb) / max(|ub|, |lb|)), with
    ub = lb = 0 read as 0 and a negative difference (lb within the solver's
    tolerance above ub) clamped to 0.
    """
    if status == INFEASIBLE:
        return 0.0
    if status != SOLVED or upper_bound is None:
        return 1.0
    scale = max(abs(upper_bound), abs(lower_bound))
    if scale == 0:
        return 0.0
    return min(1.0, max(0.0, (upper_bound - lower_bound) / scale))


def failed_frac(outcomes):
    """Share of instances that ended dual_only or failed the correctness gate.

    `outcomes` holds one (status, ok) pair per attempted instance, where ok
    is False when the instance raised, disagreed with the oracle or failed
    the re-check.
    """
    if not outcomes:
        raise ValueError("no instances attempted")
    bad = sum(1 for status, ok in outcomes if not ok or status == DUAL_ONLY)
    return bad / len(outcomes)


def phase_split(solve_s, dual_ms, primal_ms):
    """(setup_s, bound_s) of one instance from its wall time and report.

    Set-up is everything before `init_duals` (parse, order, decompose,
    presolve, diagram build); the bound is available once the dual is done.
    """
    setup_s = solve_s - (dual_ms + primal_ms) / 1000.0
    return setup_s, setup_s + dual_ms / 1000.0


def rep_totals(instances, at_reference_speed=True):
    """Solve/setup/bound seconds summed over one repetition's instances.

    By default each instance's times are divided by its "slowdown", how
    many times slower than the reference speed the machine ran meanwhile,
    so the sums are seconds at the reference speed.
    """
    solve = setup = bound = 0.0
    for inst in instances:
        scale = inst["slowdown"] if at_reference_speed else 1.0
        s, b = phase_split(inst["solve_s"], inst["dual_ms"], inst["primal_ms"])
        solve += inst["solve_s"] / scale
        setup += s / scale
        bound += b / scale
    return {"solve_s": solve, "setup_s": setup, "bound_s": bound}


def mean_slowdown(instances):
    """Time-weighted mean slowdown of one repetition."""
    wall = sum(i["solve_s"] for i in instances)
    return wall / sum(i["solve_s"] / i["slowdown"] for i in instances)


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def _ratio(num, den):
    return num / den if den else 0.0


def lower_bound_sum(instances):
    """Sum of the finite lower bounds (proven-infeasible instances drop out)."""
    return sum(i["lower_bound"] for i in instances if math.isfinite(i["lower_bound"]))


def mean_gap(instances):
    """Mean `instance_gap` over one repetition's outcomes."""
    gaps = []
    for inst in instances:
        ub = None if inst.get("objective") is None else float(Fraction(inst["objective"]))
        gaps.append(instance_gap(inst["status"], inst["lower_bound"], ub))
    return statistics.fmean(gaps)


def layer_metrics(spans, instances):
    """Per-layer metrics of one traced repetition.

    `spans` is a `Tracer.snapshot()`: per span name its call count,
    inclusive and self seconds, the median call in ms where kept, plus the
    counters the wrappers add.  `instances` are that repetition's per-
    instance outputs (passes, num_nodes, attempts).  A span that never ran,
    for example because a later version removed the function it wraps,
    reads 0.
    """
    calls, total, self_s = spans["calls"], spans["total_s"], spans["self_s"]
    med, counts = spans["median_ms"], spans["counts"]

    def t(name):
        return total.get(name, 0.0)

    nodes = sum(i["num_nodes"] for i in instances)
    passes = sum(i["passes"] for i in instances)
    node_passes = sum(i["num_nodes"] * i["passes"] for i in instances)
    attempts = sum(i["attempts"] for i in instances)
    conflicts = counts.get("primal.conflicts", 0)
    sweep_s = t("dual.forward_pass") + t("dual.backward_pass")
    return {
        "model.parse_s": t("model.parse"),
        "model.order_s": t("model.order_variables") + t("model.decompose") + t("model.presolve_free"),
        "bdd.build_s": t("bdd.build"),
        "bdd.nodes": nodes,
        "bdd.build_ns_per_node": _ratio(t("bdd.build") * 1e9, nodes),
        "bdd.max_row_nodes": counts.get("bdd.max_row_nodes", 0),
        "bdd.fix_calls": calls.get("bdd.fix", 0),
        "bdd.fix_s": t("bdd.fix"),
        "bdd.forced_literals_calls": calls.get("bdd.forced_literals", 0),
        "bdd.forced_literals_s": t("bdd.forced_literals"),
        "bdd.checkpoints": counts.get("bdd.checkpoints", 0),
        "dual.init_s": t("dual.init"),
        "dual.passes": passes,
        "dual.sweep_s": sweep_s,
        "dual.fw_pass_ms": med.get("dual.forward_pass", 0.0),
        "dual.bw_pass_ms": med.get("dual.backward_pass", 0.0),
        "dual.ns_per_node_pass": _ratio(sweep_s * 1e9, node_passes),
        "primal.scores_s": t("primal.scores"),
        "primal.search_self_s": self_s.get("primal.search", 0.0),
        "primal.attempts": attempts,
        "primal.conflicts": conflicts,
        "primal.success_ratio": 1.0 - _ratio(conflicts, attempts),
        "primal.us_per_attempt": _ratio((t("primal.search") - t("primal.scores")) * 1e6, attempts),
        "primal.checkpoint_all_s": t("primal.checkpoint_all"),
        "primal.rollback_all_calls": calls.get("primal.rollback_all", 0),
        "primal.rollback_all_s": t("primal.rollback_all"),
        "primal.propagate_s": t("primal.propagate"),
        "solver.other_s": self_s.get("solver.solve_instance", 0.0),
    }


LAYER_UNITS = {
    "model.parse_s": "s",
    "model.order_s": "s",
    "bdd.build_s": "s",
    "bdd.nodes": "count",
    "bdd.build_ns_per_node": "ns",
    "bdd.max_row_nodes": "count",
    "bdd.fix_calls": "count",
    "bdd.fix_s": "s",
    "bdd.forced_literals_calls": "count",
    "bdd.forced_literals_s": "s",
    "bdd.checkpoints": "count",
    "dual.init_s": "s",
    "dual.passes": "count",
    "dual.sweep_s": "s",
    "dual.fw_pass_ms": "ms",
    "dual.bw_pass_ms": "ms",
    "dual.ns_per_node_pass": "ns",
    "dual.lower_bound": "objective",
    "primal.scores_s": "s",
    "primal.search_self_s": "s",
    "primal.attempts": "count",
    "primal.conflicts": "count",
    "primal.success_ratio": "fraction",
    "primal.us_per_attempt": "us",
    "primal.checkpoint_all_s": "s",
    "primal.rollback_all_calls": "count",
    "primal.rollback_all_s": "s",
    "primal.propagate_s": "s",
    "solver.other_s": "s",
    "solver.gap": "fraction",
    "solver.failed_frac": "fraction",
    "trace.overhead_ratio": "ratio",
}


TIME_UNITS = frozenset({"s", "ms", "us", "ns"})


def at_reference_speed(metrics, slowdown):
    """Divide every time-valued per-layer metric by the repetition's slowdown."""
    return {k: v / slowdown if LAYER_UNITS[k] in TIME_UNITS else v for k, v in metrics.items()}


def median_metrics(per_rep):
    """Metric-wise median over repetitions (counts repeat exactly anyway)."""
    return {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
