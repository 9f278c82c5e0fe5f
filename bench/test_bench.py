"""Checks of the benchmark's own derivations on hand-made inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import derive
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# -- gap ---------------------------------------------------------------------


def test_gap_without_solution_is_one():
    assert derive.instance_gap(derive.DUAL_ONLY, -5.0, None) == 1.0
    assert derive.instance_gap("error", -math.inf, None) == 1.0


def test_gap_of_proven_infeasible_is_zero():
    assert derive.instance_gap(derive.INFEASIBLE, math.inf, None) == 0.0


def test_gap_zero_bound_and_objective():
    assert derive.instance_gap(derive.SOLVED, 0.0, 0.0) == 0.0


def test_gap_opposite_signs_clamps_to_one():
    assert derive.instance_gap(derive.SOLVED, -58.4, 9.0) == 1.0
    assert derive.instance_gap(derive.SOLVED, -0.5, 0.25) == 1.0


def test_gap_same_sign_is_relative():
    assert derive.instance_gap(derive.SOLVED, -10.0, -8.0) == pytest.approx(0.2)
    assert derive.instance_gap(derive.SOLVED, 8.0, 10.0) == pytest.approx(0.2)


def test_gap_bound_within_tolerance_above_objective_is_zero():
    assert derive.instance_gap(derive.SOLVED, -3.0 + 1e-9, -3.0) == 0.0


def test_mean_gap_reads_exact_objectives():
    rep = [
        {"status": derive.SOLVED, "lower_bound": -10.0, "objective": "-8"},
        {"status": derive.DUAL_ONLY, "lower_bound": -4.0, "objective": None},
        {"status": derive.INFEASIBLE, "lower_bound": math.inf, "objective": None},
        {"status": derive.SOLVED, "lower_bound": -1.0, "objective": "-1/2"},
    ]
    assert derive.mean_gap(rep) == pytest.approx((0.2 + 1.0 + 0.0 + 0.5) / 4)


# -- failed_frac -------------------------------------------------------------


def test_failed_frac_counts_dual_only_and_gate_failures():
    outcomes = [
        (derive.SOLVED, True),
        (derive.INFEASIBLE, True),
        (derive.DUAL_ONLY, True),
        (derive.SOLVED, False),
        ("error", False),
    ]
    assert derive.failed_frac(outcomes) == pytest.approx(3 / 5)


def test_failed_frac_needs_attempts():
    with pytest.raises(ValueError):
        derive.failed_frac([])


# -- set-up and bound arithmetic ---------------------------------------------


def test_phase_split():
    setup, bound = derive.phase_split(5.0, 1500.0, 2500.0)
    assert setup == pytest.approx(1.0)
    assert bound == pytest.approx(2.5)


def test_rep_totals_sum_over_instances():
    rep = [
        {"solve_s": 5.0, "dual_ms": 1500.0, "primal_ms": 2500.0, "slowdown": 1.0},
        {"solve_s": 0.5, "dual_ms": 0.0, "primal_ms": 0.0, "slowdown": 1.0},  # infeasible at build
    ]
    assert derive.rep_totals(rep) == pytest.approx({"solve_s": 5.5, "setup_s": 1.5, "bound_s": 3.0})


def test_rep_totals_at_reference_speed():
    rep = [
        {"solve_s": 6.0, "dual_ms": 2000.0, "primal_ms": 3000.0, "slowdown": 2.0},
        {"solve_s": 1.0, "dual_ms": 500.0, "primal_ms": 0.0, "slowdown": 0.5},
    ]
    assert derive.rep_totals(rep) == pytest.approx({"solve_s": 5.0, "setup_s": 1.5, "bound_s": 3.5})
    assert derive.rep_totals(rep, at_reference_speed=False)["solve_s"] == pytest.approx(7.0)
    assert derive.mean_slowdown(rep) == pytest.approx(7.0 / 5.0)


def test_only_time_metrics_are_scaled():
    m = derive.at_reference_speed({"dual.sweep_s": 3.0, "dual.fw_pass_ms": 6.0, "dual.passes": 20}, 1.5)
    assert m == pytest.approx({"dual.sweep_s": 2.0, "dual.fw_pass_ms": 4.0, "dual.passes": 20})


# -- spans -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock, keep=("inner",))

    def inner_fn():
        clock.now += 3.0

    inner = tracer.span("inner", inner_fn)

    def outer_fn():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()
        clock.now += 1.0

    tracer.span("outer", outer_fn)()
    snap = tracer.snapshot()
    assert snap["calls"] == {"inner": 2, "outer": 1}
    assert snap["total_s"] == {"inner": 6.0, "outer": 10.0}
    assert snap["self_s"] == {"inner": 6.0, "outer": 4.0}
    assert snap["median_ms"] == {"inner": 3000.0}


def test_after_hook_is_charged_to_no_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def slow_hook(tr, args, result):
        clock.now += 5.0
        tr.counts["seen"] += result

    def inner_fn():
        clock.now += 3.0
        return 1

    inner = tracer.span("inner", inner_fn, after=slow_hook)

    def outer_fn():
        clock.now += 1.0
        inner()

    tracer.span("outer", outer_fn)()
    snap = tracer.snapshot()
    assert snap["total_s"] == {"inner": 3.0, "outer": 9.0}
    assert snap["self_s"] == {"inner": 3.0, "outer": 1.0}
    assert snap["counts"] == {"seen": 1}


def test_span_survives_exceptions():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    failing = tracer.span("boom", boom)

    def outer_fn():
        with pytest.raises(KeyError):
            failing()
        clock.now += 1.0

    tracer.span("outer", outer_fn)()
    snap = tracer.snapshot()
    assert snap["self_s"] == {"boom": 2.0, "outer": 1.0}
    assert tracer._open == []


def test_layer_metrics_from_hand_made_spans():
    snap = {
        "calls": {"bdd.fix": 7, "primal.rollback_all": 2},
        "total_s": {
            "dual.forward_pass": 0.3,
            "dual.backward_pass": 0.1,
            "primal.search": 1.0,
            "primal.scores": 0.2,
            "model.decompose": 0.01,
            "model.order_variables": 0.02,
        },
        "self_s": {"primal.search": 0.4, "solver.solve_instance": 0.05},
        "median_ms": {"dual.forward_pass": 1.5},
        "counts": {"primal.conflicts": 1, "bdd.checkpoints": 30},
    }
    instances = [
        {"num_nodes": 100, "passes": 2, "attempts": 4},
        {"num_nodes": 50, "passes": 4, "attempts": 0},
    ]
    m = derive.layer_metrics(snap, instances)
    assert m["dual.sweep_s"] == pytest.approx(0.4)
    assert m["dual.ns_per_node_pass"] == pytest.approx(0.4e9 / 400)
    assert m["dual.passes"] == 6
    assert m["dual.fw_pass_ms"] == 1.5
    assert m["dual.bw_pass_ms"] == 0.0  # no duration kept
    assert m["primal.success_ratio"] == pytest.approx(0.75)
    assert m["primal.us_per_attempt"] == pytest.approx(0.8e6 / 4)
    assert m["primal.search_self_s"] == 0.4
    assert m["model.order_s"] == pytest.approx(0.03)
    assert m["bdd.fix_calls"] == 7
    assert m["bdd.forced_literals_calls"] == 0  # never ran
    assert m["bdd.checkpoints"] == 30
    assert m["solver.other_s"] == 0.05
    assert set(m) | {"dual.lower_bound", "solver.gap", "solver.failed_frac", "trace.overhead_ratio"} == set(derive.LAYER_UNITS)


def test_layer_metrics_without_attempts_or_nodes():
    empty = {"calls": {}, "total_s": {}, "self_s": {}, "median_ms": {}, "counts": {}}
    m = derive.layer_metrics(empty, [{"num_nodes": 0, "passes": 0, "attempts": 0}])
    assert m["primal.success_ratio"] == 1.0
    assert m["primal.us_per_attempt"] == 0.0
    assert m["dual.ns_per_node_pass"] == 0.0


# -- wrappers on the real solver ---------------------------------------------


def test_traced_solve_reproduces_untraced_and_restores():
    from bddsolve import solver, testkit

    inst = testkit.tomography_instance(6, 3, 0)
    options = solver.SolveOptions(max_passes=10)
    plain = solver.solve_instance(inst, options)
    originals = {(o, a): o.__dict__[a] for o, a, _, _ in spans.targets()}
    tracer = spans.Tracer(keep=spans.KEEP_DURATIONS)
    restore = spans.install(tracer)
    try:
        traced = tracer.span("solver.solve_instance", solver.solve_instance)(inst, options)
    finally:
        restore()
    for owner, attr in originals:
        assert owner.__dict__[attr] is originals[owner, attr]
    for key in ("status", "passes", "lower_bound", "objective_value", "primal_attempts", "solution"):
        assert getattr(traced, key) == getattr(plain, key)
    snap = tracer.snapshot()
    assert snap["calls"]["bdd.build"] == len(inst.constraints)
    assert snap["calls"]["dual.forward_pass"] + snap["calls"]["dual.backward_pass"] == plain.passes
    assert snap["calls"]["primal.checkpoint_all"] == plain.primal_attempts
    assert snap["counts"]["bdd.checkpoints"] == plain.primal_attempts * len(inst.constraints)
    assert 0 < snap["counts"]["bdd.max_row_nodes"] <= plain.num_nodes


# -- correctness gate --------------------------------------------------------


def _tiny():
    from bddsolve import parse_lp

    return parse_lp("Minimize\n obj: - x - y\nSubject To\n c: x + y <= 1\nBinary\n x y\nEnd\n", "tiny")


def _out(**changes):
    out = {
        "status": derive.SOLVED,
        "termination": "converged",
        "passes": 2,
        "lower_bound": -1.0,
        "objective": "-1",
        "attempts": 1,
        "solution": [1, 0],
    }
    out.update(changes)
    return out


NO_SOLUTION = {"objective": None, "solution": None}


def test_gate_accepts_a_verified_solution():
    problems, outcomes, attempted, failed = run.gate(
        [_tiny()], [[_out()], [_out()]], [[_out()]], WORKLOADS["batch-small"], [Fraction(-1)]
    )
    assert problems == []
    assert outcomes == [(derive.SOLVED, True)]
    assert (attempted, failed) == (3, 0)


@pytest.mark.parametrize(
    "workload, out, optimum",
    [
        ("batch-small", _out(solution=[1, 1], objective="-2"), Fraction(-1)),  # violates c
        ("batch-small", _out(objective="-2"), Fraction(-1)),  # misreported cost
        ("batch-small", _out(lower_bound=-0.5), Fraction(-1)),  # bound above the objective
        ("batch-small", _out(status=derive.INFEASIBLE, lower_bound=math.inf, **NO_SOLUTION), Fraction(-1)),
        ("batch-small", _out(status=derive.DUAL_ONLY, lower_bound=-0.5, **NO_SOLUTION), Fraction(-1)),
        ("batch-small", _out(), None),  # a solution where the oracle found none
        ("grid", _out(status=derive.INFEASIBLE, lower_bound=math.inf, **NO_SOLUTION), None),
        ("grid", _out(status="error", error="ValueError()"), None),
    ],
)
def test_gate_rejects(workload, out, optimum):
    problems, outcomes, attempted, failed = run.gate([_tiny()], [[out]], [], WORKLOADS[workload], [optimum])
    assert problems
    assert outcomes[0][1] is False
    assert (attempted, failed) == (1, 1)


def test_gate_rejects_a_run_that_does_not_reproduce():
    problems, _, attempted, failed = run.gate(
        [_tiny()], [[_out()], [_out()]], [[_out(attempts=2)]], WORKLOADS["qap"], [None]
    )
    assert (attempted, failed) == (3, 1)
    assert problems == ["tiny: traced run does not reproduce the untraced outcome"]


def test_dual_only_passes_the_gate_but_counts_as_failed_frac():
    out = _out(status=derive.DUAL_ONLY, lower_bound=-1.5, **NO_SOLUTION)
    problems, outcomes, _, failed = run.gate([_tiny()], [[out]], [], WORKLOADS["batch-small"], [Fraction(-1)])
    assert problems == [] and failed == 0
    assert derive.failed_frac(outcomes) == 1.0


def test_proven_infeasible_agreeing_with_the_oracle_passes():
    out = _out(status=derive.INFEASIBLE, lower_bound=math.inf, **NO_SOLUTION)
    problems, outcomes, _, _ = run.gate([_tiny()], [[out]], [], WORKLOADS["batch-small"], [None])
    assert problems == []
    assert derive.failed_frac(outcomes) == 0.0


# -- the contract file -------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {n: w.why for n, w in WORKLOADS.items() if w.gated}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == gated
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == derive.LAYER_UNITS
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
