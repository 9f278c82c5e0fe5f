"""The min-sum array store against the list kernels it replaces on large states.

A state takes the array store when it is min-sum, has at least
`ARRAY_MIN_NODES` diagram nodes and at least `ARRAY_MIN_WAVE_NODES` nodes
per wave.  The tests force either path by patching those constants, and
require every result to be equal to the bit: pass bounds, cost copies,
energies, rounding margins, reports and search outcomes.
"""

import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from bddsolve import dual
from bddsolve.bdd import Trail, build_bdd
from bddsolve.dual import SRMP, UNIFORM, backward_pass, forward_pass, init_duals, mma_update, run
from bddsolve.model import ILPInstance, LinearConstraint, Relation, decompose, order_variables, write_lp
from bddsolve.primal import checkpoint_all, compute_scores, primal_search, restriction_propagation, rollback_all
from bddsolve.solver import SolveOptions, solve_instance
from bddsolve.testkit import (
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)
from bdd_queries import slot_map

GENERATORS = (
    lambda s: random_ilp(9, 5, s),
    lambda s: mrf_instance(2, 3, 3, s),
    lambda s: graph_matching_instance(3, s),
    lambda s: cell_tracking_instance(5, s),
    lambda s: tomography_instance(6, 3, s),
)


def use(monkeypatch, array):
    """Make every state built from here on take the array store, or the lists."""
    if array:
        monkeypatch.setattr(dual, "ARRAY_MIN_NODES", 0)
        monkeypatch.setattr(dual, "ARRAY_MIN_WAVE_NODES", 1)
    else:
        monkeypatch.setattr(dual, "ARRAY_MIN_NODES", 1 << 62)


def build_state(monkeypatch, instance, array, averaging=UNIFORM):
    use(monkeypatch, array)
    dec = decompose(instance)
    bdds = [build_bdd(c, support) for c, support in zip(instance.constraints, dec.subproblem_vars)]
    state = init_duals(bdds, dec, instance.objective, 0.0, averaging)
    assert (state.store is not None) == array
    return state


def bounds(report):
    return [(t.pass_index, t.direction, repr(t.lower_bound)) for t in report.trace]


def outcome(report):
    """Everything a solve reports except its times."""
    return (
        report.status, report.termination, report.passes, repr(report.lower_bound), report.num_nodes,
        [(t.pass_index, t.direction, repr(t.lower_bound)) for t in report.trace],
        report.objective_value, report.solution, report.primal_attempts, report.primal_conflicts,
        report.primal_backtracks, report.primal_max_depth,
    )


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
def test_runs_equal_the_list_kernels(averaging, monkeypatch):
    # with no tolerance every run goes to the pass limit or a proof; with one,
    # some converge before it, and must stop at the same pass on both stores
    kinds = Counter()
    ends = Counter()
    forcing = dual._forcing

    def counted(diffs):
        result = forcing(diffs)
        kinds["proof" if result is None else "forced"] += 1
        return result

    for tolerance in (0.0, 1e-6):
        for make in GENERATORS:
            for seed in range(6):
                problem = make(700 + seed)
                lists = build_state(monkeypatch, problem, False, averaging)
                want = run(lists, max_passes=30, tolerance=tolerance)
                array = build_state(monkeypatch, problem, True, averaging)
                with monkeypatch.context() as m:
                    m.setattr(dual, "_forcing", counted)
                    got = run(array, max_passes=30, tolerance=tolerance)
                assert (got.termination, got.passes, bounds(got)) == (want.termination, want.passes, bounds(want))
                assert repr(array.duals) == repr(lists.duals)
                assert repr(array.energies) == repr(lists.energies)
                assert array.infeasible == lists.infeasible
                ends[tolerance, got.termination] += 1
    assert kinds["forced"] >= 500
    assert kinds["proof"] >= 5
    assert ends[0.0, "converged"] == 0
    assert ends[1e-6, "converged"] >= 3
    assert ends[1e-6, "pass_limit"] >= 3


def test_run_computes_the_cost_scale_only_under_a_tolerance(monkeypatch):
    # the scale is read only by the stopping rule, which a zero tolerance turns off
    scale = dual.cost_scale
    calls = []

    def refuse(state):
        raise AssertionError("computed a stopping scale no rule reads")

    for array in (False, True):
        state = build_state(monkeypatch, mrf_instance(3, 3, 2, seed=4), array)
        with monkeypatch.context() as m:
            m.setattr(dual, "cost_scale", refuse)
            assert run(state, 6, 0.0).termination == "pass_limit"
        with monkeypatch.context() as m:
            m.setattr(dual, "cost_scale", lambda s: calls.append(s) or scale(s))
            run(state, 6, 1e-6)
        assert calls == [state]
        calls.clear()


def _two_proofs():
    # forward pass order a, B, c, d, A.  A proves infeasibility (r0 against r1)
    # in the first wave, B (r2 against r3) in the second; the sequential pass
    # stops at B, so the wave steps of c and d (r4 and r5) must be undone
    names = ["a", "B", "c", "d", "A"]
    a, b, c, d, big_a = range(5)
    rows = [
        ((big_a, 1),), Relation.GE, 1,
        ((big_a, 1),), Relation.LE, 0,
        ((a, 1), (b, 1)), Relation.GE, 2,
        ((b, 1),), Relation.LE, 0,
        ((c, 1), (d, 1)), Relation.LE, 1,
        ((c, 2), (d, 1)), Relation.GE, 1,
    ]
    rows = [rows[k : k + 3] for k in range(0, len(rows), 3)]
    return ILPInstance(
        names,
        [Fraction(v) for v in (3, -1, -2, 5, 1)],
        tuple(LinearConstraint(f"r{k}", t, rel, rhs) for k, (t, rel, rhs) in enumerate(rows)),
    )


def test_a_proof_undoes_the_steps_after_the_first_prover(monkeypatch):
    problem = _two_proofs()
    lists = build_state(monkeypatch, problem, False)
    array = build_state(monkeypatch, problem, True)
    assert list(array.store.wave) == [0, 1, 0, 1, 0]  # A proves in the first wave, B in the second
    before = [list(costs) for costs in array.duals]
    assert forward_pass(lists) == forward_pass(array) == math.inf
    assert array.infeasible and lists.infeasible
    assert repr(array.duals) == repr(lists.duals)
    # a's forced step moved nothing; c and d stepped in the waves, but come
    # after B in pass order, so their steps are undone
    assert array.duals == before


def test_public_functions_equal_the_list_kernels(monkeypatch):
    problem = mrf_instance(4, 4, 2, seed=5)
    lists = build_state(monkeypatch, problem, False)
    array = build_state(monkeypatch, problem, True)

    def same():
        assert repr(array.duals) == repr(lists.duals)
        assert repr(array.energies) == repr(lists.energies)
        assert repr(array.dual_value()) == repr(lists.dual_value())

    same()
    for a_pass in (forward_pass, backward_pass, forward_pass):
        assert repr(a_pass(array)) == repr(a_pass(lists))
        same()
    array.refresh()
    lists.refresh()
    same()
    # run twice, the first ending on a forward pass: the second starts from
    # backward values older than the copies, on both paths alike
    for passes in (5, 6):
        want, got = run(lists, passes, 0.0), run(array, passes, 0.0)
        assert (got.termination, got.passes, bounds(got)) == (want.termination, want.passes, bounds(want))
        same()
    for strategy in ("neg_mm", "abs_mm", "reduction_aligned"):
        want, got = compute_scores(lists, strategy), compute_scores(array, strategy)
        assert (repr(got.margins), got.preference, got.order) == (repr(want.margins), want.preference, want.order)
    want, got = primal_search(lists, budget=200), primal_search(array, budget=200)
    assert (got.status, got.assignment, got.attempts, got.conflicts, got.backtracks, got.max_depth) == (
        want.status, want.assignment, want.attempts, want.conflicts, want.backtracks, want.max_depth)
    assert repr(run(array, 4, 0.0).lower_bound) == repr(run(lists, 4, 0.0).lower_bound)
    same()


def test_refresh_reads_restricted_diagrams(monkeypatch):
    # the store reads the arcs at `refresh`, so after fixing or rolling back
    # diagrams `refresh` brings the passes up to date, as on the lists
    problem = mrf_instance(3, 3, 2, seed=2)
    states = [build_state(monkeypatch, problem, array) for array in (False, True)]
    for state in states:
        run(state, 4, 0.0)
        Trail().attach(state.bdds)
    marks = [checkpoint_all(state.bdds) for state in states]
    for state in states:
        assignment = {}
        for var in range(0, problem.num_vars, 4):
            if var not in assignment:
                restriction_propagation(state.bdds, state.covering, assignment, var, 1, [])
    rounds = []
    for restricted in (True, False):
        for state in states:
            state.refresh()
        got = [[repr(p(state)) for p in (forward_pass, backward_pass) * 2] for state in states]
        assert got[0] == got[1], restricted
        assert repr(states[0].duals) == repr(states[1].duals)
        rounds.append(got[0])
        for state, mark in zip(states, marks):
            if restricted:
                rollback_all(state.bdds, mark)
    assert rounds[0] != rounds[1]  # the restriction moved the bounds


def swept(state):
    """Each covered variable's margin in `active` order: its m1 - m0 over one
    `min_marginals` sweep per diagram, added in diagram order from 0.0."""
    pairs = [dual.min_marginals(bdd, costs) for bdd, costs in zip(state.bdds, state.duals)]
    slots = slot_map(state.bdds)
    margins = {}
    for var in state.active:
        total = 0.0
        for j, lev in slots[var]:
            m0, m1 = pairs[j][lev]
            total += m1 - m0
        margins[var] = total
    return margins


def margin_kinds(margins):
    return Counter("nan" if math.isnan(m) else "inf" if math.isinf(m) else "finite" for m in margins.values())


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
def test_margins_equal_the_per_diagram_sums(averaging, monkeypatch):
    # after 0 passes the refreshed backward values are current, after 7 the
    # forward ones, after 8 the backward ones; some instances here are proven
    # infeasible, and have no margins
    kinds = Counter()
    for make in GENERATORS:
        for seed in range(6):
            problem = make(900 + seed)
            for passes in (0, 7, 8):
                lists = build_state(monkeypatch, problem, False, averaging)
                array = build_state(monkeypatch, problem, True, averaging)
                run(lists, passes, 0.0)
                run(array, passes, 0.0)
                assert array.infeasible == lists.infeasible
                if array.infeasible:
                    kinds["proof"] += 1
                    continue
                got = array.margins()
                assert repr(got) == repr(swept(array)) == repr(lists.margins()) == repr(swept(lists))
                kinds.update(margin_kinds(got))
                for strategy in ("neg_mm", "abs_mm", "reduction_aligned"):
                    want, got = compute_scores(lists, strategy), compute_scores(array, strategy)
                    assert (repr(got.margins), got.preference, got.order) == (
                        repr(want.margins), want.preference, want.order)
    # forced variables give infinite margins, and forcings both ways nan
    # ones where no pass ran to prove them
    assert kinds["finite"] > 3000 and kinds["inf"] >= 40 and kinds["nan"] >= 1 and kinds["proof"] >= 5


def test_margins_follow_passes_and_refresh(monkeypatch):
    # margins are read afresh from the cost copies whichever step came last,
    # and reading them leaves the store's messages as the passes left them
    problem = mrf_instance(3, 3, 2, seed=4)
    lists, array = (build_state(monkeypatch, problem, a) for a in (False, True))
    run(lists, 3, 0.0)
    run(array, 3, 0.0)
    seen = []
    for step in (lambda s: s.refresh(), forward_pass, backward_pass, forward_pass):
        assert repr(step(array)) == repr(step(lists))
        messages = repr((array.store.fw.tolist(), array.store.bw.tolist(), array.energies))
        got = array.margins()
        assert repr(got) == repr(swept(array)) == repr(lists.margins())
        assert repr((array.store.fw.tolist(), array.store.bw.tolist(), array.energies)) == messages
        seen.append(got)
    assert seen[0] != seen[1]  # the pass moved the cost copies, and the margins with them


def test_margins_follow_fixes_refresh_and_rollback(monkeypatch):
    problem = mrf_instance(3, 3, 2, seed=2)
    states = [build_state(monkeypatch, problem, array) for array in (False, True)]
    for state in states:
        run(state, 4, 0.0)
        Trail().attach(state.bdds)
    lists, array = states
    unrestricted = array.margins()
    marks = [checkpoint_all(state.bdds) for state in states]
    for state in states:
        assignment = {}
        for var in (0, 8):
            assert restriction_propagation(state.bdds, state.covering, assignment, var, 1, [])
    seen = []
    for restricted in (True, False):
        for state in states:
            state.refresh()
            run(state, 5, 0.0)
        assert not array.infeasible
        assert repr(array.margins()) == repr(swept(array)) == repr(swept(lists)) == repr(lists.margins())
        seen.append(array.margins())
        if restricted:
            assert margin_kinds(seen[-1])["inf"] >= 2  # the fixed variables at least
            for state, mark in zip(states, marks):
                rollback_all(state.bdds, mark)
    assert seen[0] != seen[1]
    assert margin_kinds(seen[1]) == margin_kinds(unrestricted)


def test_refresh_builds_no_wave_tables(monkeypatch):
    # every wave table but the arcs depends only on levels and supports, so
    # the store builds them once, with the state, one table set per wave for
    # both directions; a refresh after a fix or a rollback re-reads the cost
    # copies and arcs into the same tables
    built = []
    wave = dual._wave

    def counted(*args):
        built.append(1)
        return wave(*args)

    monkeypatch.setattr(dual, "_wave", counted)
    state = build_state(monkeypatch, mrf_instance(4, 4, 2, seed=3), True)
    waves = list(state.store.waves)
    assert len(built) == len(waves) == int(state.store.wave.max()) + 1 > 1
    tables = [(w.slots, w.nodes, w.groups) for w in waves]

    def arcs():
        return [(w.lo.tolist(), w.hi.tolist()) for w in waves]

    unrestricted = arcs()
    run(state, 6, 0.0)
    Trail().attach(state.bdds)
    mark = checkpoint_all(state.bdds)
    assert restriction_propagation(state.bdds, state.covering, {}, 0, 1, [])
    state.refresh()
    assert arcs() != unrestricted
    run(state, 2, 0.0)
    state.margins()
    rollback_all(state.bdds, mark)
    state.refresh()
    assert arcs() == unrestricted
    assert len(built) == len(waves)
    assert state.store.waves == waves
    assert all(x is y for old, w in zip(tables, waves) for x, y in zip(old, (w.slots, w.nodes, w.groups)))


def per_diagram_reads(bdds):
    """Sizes, levels and roots per diagram, widths and nodes per slot, read diagram by diagram."""
    return [
        [len(b.lo) for b in bdds],
        [len(b.support) for b in bdds],
        [b.root for b in bdds],
        [len(nodes) for b in bdds for nodes in b.level_nodes],
        [v for b in bdds for nodes in b.level_nodes for v in nodes],
    ]


def test_tables_tiled_from_templates_equal_per_diagram_reads(monkeypatch):
    # rows of shared and of unshared shapes, a row with no variables,
    # unsatisfiable rows whose every node is removed, and diagrams a fix has
    # restricted or emptied, which keep their template's levels
    def r(name, terms, relation, rhs):
        return LinearConstraint(name, tuple(terms), relation, rhs)

    rows = [
        r("p0", [(0, 1), (1, 1), (2, 1)], Relation.EQ, 1),
        r("p1", [(3, 1), (4, 1), (5, 1)], Relation.EQ, 1),
        r("p2", [(6, 1), (7, 1), (8, 1)], Relation.EQ, 1),
        r("empty", [], Relation.LE, 0),
        r("unsat", [(6, 1)], Relation.GE, 2),
        r("unsat_dp", [(7, 2), (8, 3)], Relation.EQ, 1),
    ]
    rows += random_ilp(9, 5, 3).constraints + mrf_instance(1, 3, 3, 1).constraints
    calls = []
    flat = dual._flat_levels
    monkeypatch.setattr(dual, "_flat_levels", lambda t: calls.append(t) or flat(t))
    bdds = [build_bdd(c) for c in rows]
    templates = {id(b.template) for b in bdds}
    assert len(templates) < len(bdds)
    assert [a.tolist() for a in dual._tile(bdds)] == per_diagram_reads(bdds)
    assert len(calls) == len(templates)
    trail = Trail()
    trail.attach(bdds)
    trail.checkpoint()
    assert bdds[0].fix(0, 0)
    assert bdds[1].fix(3, 0) and bdds[1].fix(4, 0) and not bdds[1].fix(5, 0)
    assert not bdds[0].as_built() and bdds[1].is_empty() and bdds[2].as_built()
    assert [a.tolist() for a in dual._tile(bdds)] == per_diagram_reads(bdds)
    assert len(calls) == len(templates)  # each template's tables are read once


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
@pytest.mark.parametrize("order", ["input", "cuthill_mckee"])
def test_backward_passes_run_the_forward_waves_reversed(order, averaging, monkeypatch):
    # a diagram's levels have strictly increasing forward wave numbers, so
    # the forward waves reversed are a valid backward order, and one table
    # set per wave serves both directions; the passes equal the lists'
    seen = []
    diffs = dual._diffs
    monkeypatch.setattr(dual, "_diffs", lambda w, *args: seen.append(w) or diffs(w, *args))
    feasible = 0
    for make in GENERATORS:
        problem = make(710)
        dec = decompose(problem, order_variables(problem, order))
        states = []
        for array in (False, True):
            use(monkeypatch, array)
            bdds = [build_bdd(c, support) for c, support in zip(problem.constraints, dec.subproblem_vars)]
            states.append(init_duals(bdds, dec, problem.objective, 0.0, averaging))
        lists, array = states
        store = array.store
        for b in array.bdds:
            numbers = store.wave[list(b.support)].tolist()
            assert all(x < y for x, y in zip(numbers, numbers[1:]))
        for a_pass, waves in ((forward_pass, store.waves), (backward_pass, store.waves[::-1])) * 2:
            seen.clear()
            proven = array.infeasible  # a pass on a proven state sweeps nothing
            assert repr(a_pass(array)) == repr(a_pass(lists))
            assert [id(w) for w in seen] == ([] if proven else [id(w) for w in waves])
        assert repr(array.duals) == repr(lists.duals)
        assert repr(array.energies) == repr(lists.energies)
        feasible += not array.infeasible
    assert feasible >= 3


def test_scoring_sweeps_no_diagram(monkeypatch):
    state = build_state(monkeypatch, mrf_instance(4, 4, 2, seed=3), True)
    run(state, 6, 0.0)

    def refuse(*args):
        raise AssertionError("scored by sweeping diagrams")

    monkeypatch.setattr(dual, "min_marginals", refuse)
    for strategy in ("neg_mm", "abs_mm", "reduction_aligned"):
        compute_scores(state, strategy)
    assert primal_search(state, budget=100).status == "solved"


def test_list_totals_fold_left_like_the_store(monkeypatch):
    # the store adds each variable's diffs column by column from 0.0; a
    # compensated total (math.fsum, or `sum` from Python 3.12 on) in the list
    # kernels would part the stores in the last bits
    monkeypatch.setattr(dual, "sum", math.fsum, raising=False)
    problem = mrf_instance(4, 4, 3, seed=6)
    lists = build_state(monkeypatch, problem, False)
    array = build_state(monkeypatch, problem, True)
    want, got = run(lists, 12, 0.0), run(array, 12, 0.0)
    assert bounds(got) == bounds(want)
    assert repr(array.duals) == repr(lists.duals)
    assert repr(array.energies) == repr(lists.energies)
    assert repr(forward_pass(array)) == repr(forward_pass(lists))
    assert repr(array.energies) == repr(lists.energies)
    # the store folds its optima by one accumulate from 0.0, as `dual_value`
    # folds the energies: all -0.0 reads 0.0 (np.sum, or a fold from the first
    # optimum, reads -0.0), +inf stays +inf, and 1e16 + 1.0 - 1e16 reads 0.0
    # (fsum reads 1.0)
    n = len(lists.energies)
    for optima, total in (
        ([-0.0] * n, "0.0"),
        ([1.5, math.inf] + [0.5] * (n - 2), "inf"),
        ([1e16, 1.0, -1e16] + [0.5] * (n - 3), repr(0.5 * (n - 3))),
    ):
        lists.energies[:] = optima
        array.store.optima[:] = optima
        assert repr(array.store.bound()) == repr(lists.dual_value()) == total


def test_an_empty_diagram_proves_infeasibility_on_both_stores(monkeypatch):
    # r0 has no solution: its diagram has every node removed
    problem = ILPInstance(
        ["a", "b", "c"],
        [Fraction(1), Fraction(-1), Fraction(2)],
        (LinearConstraint("r0", ((0, 1), (1, 1)), Relation.GE, 3),
         LinearConstraint("r1", ((1, 1), (2, 1)), Relation.LE, 1)),
    )
    for array in (False, True):
        state = build_state(monkeypatch, problem, array)
        assert state.infeasible and state.energies[0] == math.inf
        report = run(state, 4, 0.0)
        assert (report.termination, report.passes, report.lower_bound) == ("infeasible", 0, math.inf)


def test_mma_update_refuses_an_array_state(monkeypatch):
    state = build_state(monkeypatch, mrf_instance(2, 2, 2, seed=0), True)
    with pytest.raises(ValueError, match="array store"):
        mma_update(state, state.active[0])


def test_soft_min_and_small_states_keep_the_lists(monkeypatch):
    problem = graph_matching_instance(3, seed=1)
    use(monkeypatch, True)
    dec = decompose(problem)
    bdds = [build_bdd(c, support) for c, support in zip(problem.constraints, dec.subproblem_vars)]
    assert init_duals(bdds, dec, problem.objective, 0.3).store is None
    monkeypatch.undo()
    assert init_duals(bdds, dec, problem.objective).store is None  # far below ARRAY_MIN_NODES


def test_deep_schedules_keep_the_lists():
    # a chain in Cuthill-McKee order steps one variable after another: thousands
    # of waves of a few nodes each, where per-wave numpy calls cost more than lists
    problem = mrf_instance(1, 3000, 2, seed=0)
    dec = decompose(problem, order_variables(problem, "cuthill_mckee"))
    bdds = [build_bdd(c, support, shapes={}) for c, support in zip(problem.constraints, dec.subproblem_vars)]
    assert sum(len(b.lo) - 2 for b in bdds) >= dual.ARRAY_MIN_NODES
    assert init_duals(bdds, dec, problem.objective).store is None
    dec = decompose(problem)
    bdds = [build_bdd(c, support, shapes={}) for c, support in zip(problem.constraints, dec.subproblem_vars)]
    assert init_duals(bdds, dec, problem.objective).store is not None


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_solves_equal_the_list_kernels(seed, monkeypatch):
    problem = mrf_instance(30, 30, 2, seed)
    options = SolveOptions(max_passes=20, tolerance=0.0)
    got = solve_instance(problem, options)  # the default path: grid is above both thresholds
    use(monkeypatch, False)
    want = solve_instance(problem, options)
    assert outcome(got) == outcome(want)
    assert got.status == "solved"


def test_small_solves_leave_numpy_unimported(cli_env, tmp_path):
    path = tmp_path / "small.lp"
    path.write_text(write_lp(mrf_instance(3, 3, 2, seed=8)))
    code = (
        "import sys; from bddsolve import model, solver; "
        f"report = solver.solve_instance(model.parse_lp(open({str(path)!r}).read())); "
        "print(report.status, 'numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["solved", "False"]
