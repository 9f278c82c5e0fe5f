import dataclasses
import gc
import hashlib
import inspect
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddsolve import bdd, dual, model, solver
from bddsolve.bdd import BddBuildError
from bddsolve.cache import WeightedLru
from bddsolve.dual import DEFAULT_MAX_PASSES, DEFAULT_TOLERANCE, run
from bddsolve.model import MAX_OBJECTIVE, ILPInstance, LpParseError, parse_lp, write_lp
from bddsolve.solver import (
    DUAL_ONLY,
    INFEASIBLE,
    SOLVED,
    SolveOptions,
    solve_instance,
)
from bddsolve.testkit import (
    brute_force_solve,
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)

SMALL = """\
Minimize
 obj: - 2 x + y - z
Subject To
pick: x + y + z = 1
cap: x + y <= 1
Binary
x
y
z
End
"""


def test_small_instance_solved_to_optimality():
    instance = parse_lp(SMALL, name="small")
    report = solve_instance(instance)
    assert report.status == SOLVED
    assert report.solution == [1, 0, 0]
    assert report.objective_value == Fraction(-2)
    assert report.lower_bound <= -2 + 1e-9
    assert report.termination in ("converged", "pass_limit")
    assert report.num_nodes > 0
    assert report.trace, "dual trace should not be empty"


def test_offset_and_free_variables_shift_bounds():
    text = """\
Minimize
 obj: 2 a - 5 b + c + 3
Subject To
row: a + c >= 1
Binary
a
b
c
End
"""
    instance = parse_lp(text, name="shifted")
    report = solve_instance(instance)
    # b is in no row, so it is fixed to 1 up front (-5); best feasible is c=1.
    assert report.status == SOLVED
    assert report.objective_value == Fraction(-1)
    assert report.solution == [0, 1, 1]
    assert report.lower_bound <= -1 + 1e-9
    # the trace is reported in the instance's own scale, offset included
    assert report.trace[-1].lower_bound == pytest.approx(report.lower_bound)


def test_single_empty_row_short_circuits():
    text = """\
Minimize
 obj: x
Subject To
 bad: x >= 2
Binary
x
End
"""
    report = solve_instance(parse_lp(text, name="impossible"))
    assert report.status == INFEASIBLE
    assert report.termination == "infeasible"
    assert report.passes == 0
    assert math.isinf(report.lower_bound)
    assert report.solution is None


def test_reports_build_time():
    solved = solve_instance(parse_lp(SMALL, name="small"))
    empty = solve_instance(parse_lp(SMALL.replace("cap: x + y <= 1", "cap: x + y >= 3"), name="bad"))
    assert empty.status == INFEASIBLE and empty.passes == 0
    for report in (solved, empty):
        assert type(report.build_time_ms) is float and report.build_time_ms >= 0.0


_NO_SEARCH = dict(solution=None, objective_value=None, primal_attempts=0, primal_conflicts=0,
                  primal_backtracks=0, primal_max_depth=0, primal_propagated=0)
_UNSOLVED = dict(solution=None, objective_value=None)

# (exit of `solve_instance`, its instance and options, every report field but
# the times); `trace` is the sha256 prefix of the repr of its (pass, direction,
# bound) triples.
REPORT_EXITS = [
    ("empty", lambda: (parse_lp(SMALL.replace("cap: x + y <= 1", "cap: x + y >= 3"), name="bad"), None),
     dict(instance_name="bad", num_vars=3, num_constraints=2, num_nodes=5, status=INFEASIBLE,
          termination="infeasible", passes=0, lower_bound=math.inf, **_NO_SEARCH, trace="4f53cda18c2baa0c")),
    ("dual proof", lambda: (random_ilp(8, 5, 1), None),
     dict(instance_name="random-1", num_vars=8, num_constraints=5, num_nodes=26, status=INFEASIBLE,
          termination="infeasible", passes=1, lower_bound=math.inf, **_NO_SEARCH,
          trace="6a989e59e09c1b35")),
    ("search proof", lambda: (random_ilp(8, 5, 14), None),
     dict(instance_name="random-14", num_vars=8, num_constraints=5, num_nodes=24, status=INFEASIBLE,
          termination="infeasible", passes=40, lower_bound=math.inf, **_UNSOLVED, primal_attempts=2,
          primal_conflicts=2, primal_backtracks=0, primal_max_depth=0, primal_propagated=2,
          trace="a7e7ed373a41c79f")),
    ("budget stop",
     lambda: (tomography_instance(40, 4, 0), SolveOptions(max_passes=40, smoothing=0.1, primal_budget=1)),
     dict(instance_name="tomography-40-4-0", num_vars=784, num_constraints=411, num_nodes=5011,
          status=DUAL_ONLY, termination="pass_limit", passes=40, lower_bound=-168.7336972704913,
          **_UNSOLVED, primal_attempts=1, primal_conflicts=0, primal_backtracks=0, primal_max_depth=1,
          primal_propagated=27, trace="91d9ccadb9254d84")),
    ("solved", lambda: (parse_lp(SMALL, name="small"), None),
     dict(instance_name="small", num_vars=3, num_constraints=2, num_nodes=8, status=SOLVED,
          termination="converged", passes=2, lower_bound=-2.0, solution=[1, 0, 0],
          objective_value=Fraction(-2), primal_attempts=1, primal_conflicts=0, primal_backtracks=0,
          primal_max_depth=1, primal_propagated=2, trace="f7474986ea425b12")),
]


@pytest.mark.parametrize("case,make,expected", REPORT_EXITS, ids=[c[0] for c in REPORT_EXITS])
def test_every_exit_reports_its_fields(case, make, expected):
    report = solve_instance(*make())
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if not f.name.endswith("_time_ms")}
    triples = [(t.pass_index, t.direction, t.lower_bound) for t in report.trace]
    fields["trace"] = hashlib.sha256(repr(triples).encode()).hexdigest()[:16]
    assert fields == expected
    assert repr(report.lower_bound) == repr(expected["lower_bound"])
    assert report.build_time_ms > 0
    if case == "empty":
        assert report.dual_time_ms == 0
    if case in ("empty", "dual proof"):
        assert report.primal_time_ms == 0
    else:
        assert report.dual_time_ms > 0 and report.primal_time_ms > 0


def test_cross_row_conflict_detected():
    text = """\
Minimize
 obj: 0 x
Subject To
up: x >= 1
down: x <= 0
Binary
x
End
"""
    report = solve_instance(parse_lp(text, name="conflict"))
    assert report.status == INFEASIBLE
    assert math.isinf(report.lower_bound)


def test_zero_budget_reports_dual_only():
    instance = mrf_instance(2, 2, 2, seed=3)
    report = solve_instance(instance, SolveOptions(primal_budget=1))
    # one attempt is not enough for a 24-variable model unless propagation
    # happens to finish the whole assignment, which it does not here
    assert report.status in (SOLVED, DUAL_ONLY)
    tiny = solve_instance(instance, SolveOptions(max_passes=2, primal_budget=0))
    assert tiny.status == SOLVED  # 0 means unlimited


def test_agrees_with_brute_force_on_random_instances():
    solved = 0
    for seed in range(30):
        instance = random_ilp(6, 4, seed=seed)
        best, _ = brute_force_solve(instance)
        report = solve_instance(instance, SolveOptions(max_passes=40, primal_budget=0))
        if best is None:
            assert report.status == INFEASIBLE
            continue
        solved += 1
        assert report.status == SOLVED
        assert instance.check_assignment(report.solution)
        assert report.objective_value >= best
        assert report.lower_bound <= float(best) + 1e-6
    assert solved >= 5


# generators at brute-force size (at most 17 variables)
GENERATORS = {
    "random": None,
    "mrf": lambda seed: mrf_instance(1, 3, 2, seed),
    "matching": lambda seed: graph_matching_instance(2, seed),
    "tracking": lambda seed: cell_tracking_instance(4, seed),
    "tomography": lambda seed: tomography_instance(3, 2, seed),
}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    generator=st.sampled_from(sorted(GENERATORS)),
    num_vars=st.integers(1, 8),
    num_rows=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    permute_rows=st.booleans(),
    scale=st.sampled_from([Fraction(1), Fraction(1, 10**9), Fraction(10**6), Fraction(2**50)]),
    averaging=st.sampled_from(["uniform", "srmp"]),
    smoothing=st.sampled_from([0.0, 0.3]),
    order=st.sampled_from(["input", "cuthill_mckee"]),
)
def test_sound_and_deterministic_against_brute_force(
    generator, num_vars, num_rows, seed, permute_rows, scale, averaging, smoothing, order
):
    make = GENERATORS[generator]
    problem = random_ilp(num_vars, num_rows, seed) if make is None else make(seed)
    rows = list(problem.constraints)
    if permute_rows:
        random.Random(seed).shuffle(rows)
    instance = ILPInstance(
        list(problem.var_names),
        [c * scale for c in problem.objective],
        rows,
        problem.objective_offset * scale,
        "scaled",
    )
    options = SolveOptions(smoothing=smoothing, averaging=averaging, order=order, primal_budget=0)
    report = solve_instance(instance, options)
    best, _ = brute_force_solve(instance)
    if best is None:
        assert report.status == INFEASIBLE
    else:
        assert report.status == SOLVED
        assert instance.check_assignment(report.solution)
        assert report.objective_value >= best
        assert report.lower_bound <= float(best) + 1e-6 * max(float(scale), abs(float(best)))
    again = solve_instance(instance, options)
    assert (again.status, again.termination, again.passes, again.solution) == (
        report.status, report.termination, report.passes, report.solution
    )
    assert (again.primal_attempts, again.primal_conflicts, again.primal_backtracks) == (
        report.primal_attempts, report.primal_conflicts, report.primal_backtracks
    )
    assert repr(again.lower_bound) == repr(report.lower_bound)
    assert [repr(t.lower_bound) for t in again.trace] == [repr(t.lower_bound) for t in report.trace]


def outcome(report):
    return (
        report.status, report.termination, report.passes, repr(report.lower_bound), report.objective_value,
        report.solution, report.primal_attempts, report.num_nodes,
    )


def test_warm_caches_give_the_reports_of_cold_ones(monkeypatch):
    # a seeded stream from all five generators, read from LP text: rows of one
    # shape recur from instance to instance under other names and costs
    rng = random.Random(25)
    makers = [
        lambda s: random_ilp(rng.randint(4, 12), rng.randint(2, 8), s),
        lambda s: mrf_instance(rng.randint(1, 3), 3, rng.randint(2, 3), s),
        lambda s: graph_matching_instance(rng.randint(2, 3), s),
        lambda s: cell_tracking_instance(rng.randint(3, 5), s),
        lambda s: tomography_instance(rng.randint(3, 8), 2, s),
    ]
    texts = [write_lp(makers[k % 5](k)) for k in range(60)]
    options = SolveOptions(max_passes=20)
    compiles = []
    compile_ = bdd._compile
    monkeypatch.setattr(bdd, "_compile", lambda *args: compiles.append(args) or compile_(*args))
    cold = []
    for text in texts:
        model.SKELETONS.clear()
        bdd.TEMPLATES.clear()
        cold.append(outcome(solve_instance(parse_lp(text), options)))
    cold_compiles = len(compiles)
    del compiles[:]
    warm = [outcome(solve_instance(parse_lp(text), options)) for text in texts]
    assert warm == cold
    assert len(compiles) < cold_compiles / 2
    assert {status for status, *_ in cold} == {SOLVED, INFEASIBLE}


def test_options_reach_the_dual_loop():
    instance = mrf_instance(1, 3, 2, seed=1)
    fast = solve_instance(instance, SolveOptions(max_passes=2, tolerance=0.0))
    slow = solve_instance(instance, SolveOptions(max_passes=30, tolerance=0.0))
    assert fast.passes == 2
    assert slow.passes == 30
    assert slow.lower_bound >= fast.lower_bound - 1e-9


def test_smoothed_and_srmp_paths():
    instance = mrf_instance(1, 3, 2, seed=5)
    best, _ = brute_force_solve(instance)
    for options in (
        SolveOptions(averaging="srmp"),
        SolveOptions(smoothing=0.3),
        SolveOptions(averaging="srmp", strategy="abs_mm"),
        SolveOptions(strategy="reduction_aligned", order="cuthill_mckee"),
    ):
        report = solve_instance(instance, options)
        assert report.status == SOLVED
        assert report.lower_bound <= float(best) + 1e-6
        assert report.objective_value >= best
    # a larger grid: no oracle, but the bound must support the solution
    grid = mrf_instance(2, 2, 2, seed=5)
    report = solve_instance(grid, SolveOptions(smoothing=0.2, averaging="srmp"))
    assert report.status == SOLVED
    assert grid.check_assignment(report.solution)
    assert report.lower_bound <= float(report.objective_value) + 1e-6


def test_report_is_deterministic():
    instance = mrf_instance(2, 2, 2, seed=9)
    a = solve_instance(instance)
    b = solve_instance(instance)
    assert a.solution == b.solution
    assert a.lower_bound == b.lower_bound
    assert a.passes == b.passes
    assert [t.lower_bound for t in a.trace] == [t.lower_bound for t in b.trace]


def test_max_passes_default_is_shared():
    defaults = inspect.signature(run).parameters
    assert SolveOptions().max_passes == defaults["max_passes"].default == DEFAULT_MAX_PASSES == 1000
    assert SolveOptions().tolerance == defaults["tolerance"].default == DEFAULT_TOLERANCE == 1e-6


def test_smoothing_at_the_objective_cap_is_sound():
    # 2^60 is the largest accepted temperature: every dual sum stays finite,
    # so there is no false infeasibility proof and the bound stays valid
    cap = float(MAX_OBJECTIVE)
    feasible = 0
    for seed in range(60):
        instance = random_ilp(8, 4, seed)
        best, _ = brute_force_solve(instance)
        report = solve_instance(instance, SolveOptions(smoothing=cap))
        if best is None:
            assert report.status == INFEASIBLE
            continue
        feasible += 1
        assert report.status != INFEASIBLE
        assert report.lower_bound <= best
        if report.status == SOLVED:
            assert report.objective_value >= best
    assert feasible >= 20
    for smoothing in (math.nextafter(cap, math.inf), math.inf, math.nan, 1e308, -1.0):
        with pytest.raises(ValueError, match="smoothing"):
            solve_instance(mrf_instance(1, 3, 2, 0), SolveOptions(smoothing=smoothing))


def test_nonpositive_state_budget_is_rejected_up_front():
    # before any diagram is built, not as a budget error at the first row
    for budget in (0, -5):
        with pytest.raises(ValueError, match="state_budget must be positive"):
            SolveOptions(state_budget=budget)
    assert SolveOptions(state_budget=1).state_budget == 1


@pytest.mark.parametrize("field, match", [
    ("strategy", "unknown strategy"),
    ("averaging", "unknown averaging mode"),
    ("order", "unknown ordering strategy"),
])
def test_unknown_modes_are_rejected_up_front(field, match):
    # before any diagram is built: the dual could prove infeasibility and
    # return before the rounding search ever read the strategy
    with pytest.raises(ValueError, match=match):
        SolveOptions(**{field: "typo"})
    for smoothing in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="smoothing"):
            SolveOptions(smoothing=smoothing)


def test_tiny_costs_stop_at_the_same_pass():
    # a stopping rule that is absolute below |lb| = 1 stops the scaled run
    # after 2 passes, and rounding then finds -73 instead of -88
    problem = cell_tracking_instance(30, 0)
    k = Fraction(1, 10**9)
    scaled = ILPInstance(
        list(problem.var_names),
        [c * k for c in problem.objective],
        problem.constraints,
        problem.objective_offset * k,
        "scaled",
    )
    options = SolveOptions(max_passes=200)
    plain = solve_instance(problem, options)
    tiny = solve_instance(scaled, options)
    assert plain.status == tiny.status == SOLVED
    assert (tiny.passes, tiny.termination) == (plain.passes, plain.termination) == (20, "converged")
    assert tiny.lower_bound / float(k) == pytest.approx(plain.lower_bound, abs=1e-6)
    assert tiny.objective_value / k == plain.objective_value == -88
    assert tiny.solution == plain.solution


def test_report_carries_search_counters():
    report = solve_instance(random_ilp(6, 4, seed=77))
    assert report.status == INFEASIBLE
    counters = (report.primal_attempts, report.primal_conflicts, report.primal_backtracks,
                report.primal_max_depth)
    assert counters == (8, 5, 3, 3)


def test_report_counts_propagated_literals():
    problem = parse_lp("Minimize\n obj: x0 + 2 x1\nSubject To\n pick: x0 + x1 = 1\nBinary\n x0 x1\nEnd\n")
    report = solve_instance(problem)
    assert report.status == SOLVED and report.solution == [1, 0]
    assert (report.primal_attempts, report.primal_propagated) == (1, 1)


@pytest.mark.parametrize(
    "instance",
    [
        mrf_instance(3, 4, 3, 0),
        graph_matching_instance(4, 0),
        cell_tracking_instance(6, 0),
        tomography_instance(8, 3, 0),
        random_ilp(12, 10, 0),
        random_ilp(6, 4, 77),  # infeasible
    ],
    ids=lambda inst: inst.name,
)
def test_num_nodes_counts_the_live_nodes_of_the_fresh_diagrams(instance, monkeypatch):
    # the report reads each diagram's arc-list length, which counts live nodes
    # only because a fresh diagram has no removed node
    counted = []
    build = solver.build_bdd

    def counting(*args):
        diagram = build(*args)
        counted.append(diagram.node_count())
        return diagram

    monkeypatch.setattr(solver, "build_bdd", counting)
    report = solve_instance(instance, SolveOptions(max_passes=4))
    assert len(counted) == len(instance.constraints)
    assert report.num_nodes == sum(counted) > 0


def test_unconstrained_instance():
    text = """\
Minimize
 obj: - u + 2 v + 1
Subject To
Binary
u
v
End
"""
    report = solve_instance(parse_lp(text, name="free"))
    assert report.status == SOLVED
    assert report.solution == [1, 0]
    assert report.objective_value == Fraction(0)
    assert report.lower_bound == pytest.approx(0.0)


def test_report_gap():
    solved = solve_instance(parse_lp(SMALL, name="small"))
    ub, lb = float(solved.objective_value), solved.lower_bound
    assert solved.gap == min(1.0, max(0.0, (ub - lb) / max(abs(ub), abs(lb))))
    infeasible = solve_instance(random_ilp(6, 4, seed=77))
    assert infeasible.status == INFEASIBLE and infeasible.gap == 0.0
    unsolved = solve_instance(mrf_instance(2, 2, 2, seed=1), SolveOptions(primal_budget=1))
    assert unsolved.status == DUAL_ONLY and unsolved.gap is None

    def report(lb, ub):
        return replace(solved, lower_bound=lb, objective_value=Fraction(ub))

    assert report(-4.0, -2).gap == 0.5
    assert report(-100.0, 10).gap == 1.0  # capped
    assert report(0.0, 0).gap == 0.0
    assert report(3.0 + 1e-9, 3).gap == 0.0  # a bound within tolerance above the solution


@pytest.fixture
def collector():
    """The cyclic collector, enabled for the test and left as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_solve_runs_with_the_collector_paused_and_restores_it(collector):
    grid = mrf_instance(30, 30, 2, seed=0)
    text = write_lp(grid)
    malformed = text.replace(" = 1", " ? 1", 1)
    starts = []  # per collection started, the functions on the stack

    def hook(phase, info):
        if phase == "start":
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            starts.append(names)

    gc.collect()  # so that no collection is due at the parse's first allocation
    gc.callbacks.append(hook)
    try:
        # the collector, enabled again, walks the new instance at the first
        # allocation after the parse (here, the options), outside either call
        report = solve_instance(parse_lp(text), SolveOptions(max_passes=3))
    finally:
        gc.callbacks.remove(hook)
    assert report.passes == 3
    # unpaused, the parse alone starts about 120 collections
    assert not any(names & {"parse_lp", "solve_instance"} for names in starts), starts
    assert gc.isenabled()
    with pytest.raises(BddBuildError):
        solve_instance(grid, SolveOptions(state_budget=1))
    assert gc.isenabled()
    with pytest.raises(LpParseError):
        parse_lp(malformed)
    assert gc.isenabled()
    # a collector the caller disabled stays disabled, on return and on raise
    gc.disable()
    solve_instance(parse_lp(write_lp(mrf_instance(2, 2, 2, seed=0))))
    assert not gc.isenabled()
    with pytest.raises(BddBuildError):
        solve_instance(grid, SolveOptions(state_budget=1))
    assert not gc.isenabled()
    with pytest.raises(LpParseError):
        parse_lp(malformed)
    assert not gc.isenabled()


def test_overlapping_solves_in_threads_leave_the_collector_enabled(collector, monkeypatch):
    # the threads also share the process-wide caches, warm and small enough to evict often
    monkeypatch.setattr(bdd, "TEMPLATES", WeightedLru(64))
    monkeypatch.setattr(model, "SKELETONS", WeightedLru(32))
    texts = [
        write_lp(make(seed))
        for seed in range(2)
        for make in (lambda s: mrf_instance(3, 3, 2, s), lambda s: cell_tracking_instance(4, s),
                     lambda s: random_ilp(10, 6, s))
    ]
    expected = [outcome(solve_instance(parse_lp(text))) for text in texts]
    results = []

    def solve_some():
        for _ in range(2):
            for k, text in enumerate(texts):
                results.append((k, outcome(solve_instance(parse_lp(text)))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * 2 * len(texts)
    assert all(got == expected[k] for k, got in results)
    assert gc.isenabled()
    for cache in (bdd.TEMPLATES, model.SKELETONS):  # a lost update would break the weight's sum
        assert 0 < cache.weight == sum(weight for _, weight in cache._entries.values()) <= cache.budget


@pytest.fixture(scope="module")
def warmed_up():
    # the first array-store solve imports numpy, which leaves cyclic garbage once
    solve_instance(mrf_instance(30, 30, 2, seed=1), SolveOptions(max_passes=2))
    gc.collect()


LIST_STORE_OPTIONS = {
    "uniform": SolveOptions(max_passes=20),
    "srmp": SolveOptions(max_passes=20, averaging="srmp"),
    "smoothing": SolveOptions(max_passes=20, smoothing=0.1),
}


GENERATED = (
    mrf_instance(3, 3, 3, 0),
    graph_matching_instance(4, 0),
    tomography_instance(8, 3, 0),
    cell_tracking_instance(6, 0),
    random_ilp(12, 10, 0),
)


@pytest.mark.parametrize(
    "instance, options, store",
    [
        pytest.param(instance, options, "list", id=f"{instance.name}-{key}")
        for instance in GENERATED
        for key, options in LIST_STORE_OPTIONS.items()
    ]
    + [pytest.param(mrf_instance(30, 30, 2, 0), SolveOptions(max_passes=5), "array", id="grid30-array")]
    + [
        pytest.param(instance, None, None, id=f"parse-{instance.name}")
        for instance in (*GENERATED, mrf_instance(30, 30, 2, 0))
    ],
)
def test_a_solve_leaves_no_cyclic_garbage(instance, options, store, collector, warmed_up):
    # the premise of the collector pause: nothing a parse (options None) or
    # the pipeline makes waits for the cyclic collector, so pausing it
    # delays no memory
    text = write_lp(instance)
    gc.collect()
    gc.disable()
    if options is None:
        parsed = parse_lp(text)
        assert gc.collect() == 0
        assert len(parsed.constraints) == len(instance.constraints)
        return
    report = solve_instance(instance, options)
    assert gc.collect() == 0
    assert (report.num_nodes >= dual.ARRAY_MIN_NODES) == (store == "array")
