import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bddsolve import dual
from bddsolve.bdd import FALSE, TRUE, Trail, build_bdd
from bddsolve.dual import (
    SRMP,
    UNIFORM,
    DualReport,
    backward_pass,
    cost_scale,
    forward_pass,
    init_duals,
    mma_update,
    run,
)
from bddsolve.model import ILPInstance, LinearConstraint, Relation, decompose, presolve_free
from bddsolve.primal import checkpoint_all, restriction_propagation, rollback_all
from bddsolve.testkit import (
    brute_force_solve,
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)
from bdd_queries import slot_map
from reference_algebra import (
    level_kernels,
    predicted_increase,
    scratch_dual_value,
    scratch_energy,
    scratch_marginals,
    slot_pass,
    update_pass,
    watch_updates,
)

INF = math.inf


def build_state(instance, smoothing=0.0, averaging=UNIFORM, order=None):
    dec = decompose(instance, order)
    bdds = [build_bdd(c, support) for c, support in zip(instance.constraints, dec.subproblem_vars)]
    return init_duals(bdds, dec, instance.objective, smoothing, averaging), dec


def inst(names, objective, rows):
    return ILPInstance(
        list(names),
        [Fraction(c) for c in objective],
        tuple(LinearConstraint(f"r{k}", tuple(t), rel, rhs) for k, (t, rel, rhs) in enumerate(rows)),
    )


class Checker:
    """Revalidates every update against fresh sweeps (install with `watch_updates`)."""

    def __init__(self, state, tol=1e-7):
        self.state = state
        self.tol = tol
        self.pre = None
        self.updates = 0
        self.infinite_diffs = 0

    def marginals(self, var, items):
        for j, lev, m0, m1 in items:
            want0, want1 = scratch_marginals(self.state, j)[lev]
            assert m0 == pytest.approx(want0, abs=self.tol)
            assert m1 == pytest.approx(want1, abs=self.tol)
        self.pre = scratch_dual_value(self.state)

    def updated(self, var, diffs, predicted):
        self.updates += 1
        self.infinite_diffs += sum(1 for d in diffs if d in (INF, -INF))
        if predicted is None:  # smoothed: only monotonicity is claimed
            post = scratch_dual_value(self.state)
            assert post >= self.pre - 1e-9
        elif predicted == INF:
            assert self.state.infeasible
        else:
            post = scratch_dual_value(self.state)
            assert post - self.pre == pytest.approx(predicted, abs=self.tol)


def test_two_copy_frozen_example():
    problem = inst(
        ["x"],
        [-1],
        [((((0, 1),)), Relation.LE, 1), ((((0, 1),)), Relation.LE, 1)],
    )
    state, _ = build_state(problem)
    # equal split puts -0.5 on each copy
    assert state.duals == [[-0.5], [-0.5]]
    state.duals[0][0] = 2.0
    state.duals[1][0] = -3.0
    state.refresh()
    assert state.dual_value() == -3.0
    diffs = mma_update(state, 0, forward=True)
    assert diffs == [2.0, -3.0]
    assert predicted_increase(diffs) == 2.0
    assert state.duals == [[-0.5], [-0.5]]
    assert scratch_dual_value(state) == -1.0


def test_init_splits_objective_equally():
    problem = random_ilp(8, 5, seed=42)
    state, dec = build_state(problem)
    for i in range(problem.num_vars):
        slots = slot_map(state.bdds).get(i, [])
        assert len(slots) == len(dec.var_subproblems[i])
        if slots:
            total = sum(state.duals[j][lev] for j, lev in slots)
            assert total == pytest.approx(float(problem.objective[i]))


def test_a_state_is_ready_when_built():
    # a state built directly passes exactly as `init_duals`' does: the
    # constructor refreshes, so its first pass reads seeded roots, not +inf
    problem = mrf_instance(1, 3, 2, 0)
    ready, dec = build_state(problem)
    bdds = [build_bdd(c, support) for c, support in zip(problem.constraints, dec.subproblem_vars)]
    duals = [costs[:] for costs in ready.duals]
    direct = dual.DualState(bdds, dec, duals, 0.0, UNIFORM)

    def outcome(state):
        report = run(state, 4)
        return repr((report.termination, report.passes, [t.lower_bound for t in report.trace], state.duals))

    want = outcome(ready)
    assert "infeasible" not in want
    assert outcome(direct) == want
    for smoothing, averaging in ((0.0, "bogus"), (-1.0, UNIFORM)):
        with pytest.raises(ValueError):
            dual.DualState(bdds, dec, duals, smoothing, averaging)
    with pytest.raises(ValueError, match="subproblems"):
        dual.DualState(bdds[1:], dec, duals[1:], 0.0, UNIFORM)
    swapped = bdds[-1:] + bdds[1:-1] + bdds[:1]
    assert swapped[0].support != bdds[0].support
    with pytest.raises(ValueError, match="diagram 0 disagrees"):
        dual.DualState(swapped, dec, duals, 0.0, UNIFORM)


def test_bound_folds_left_from_zero(monkeypatch):
    # `sum` compensates float sums from Python 3.12 on; the bound adds the
    # energies left to right from 0.0, so it reads the same on every version
    monkeypatch.setattr(dual, "sum", math.fsum, raising=False)
    state, _ = build_state(mrf_instance(1, 3, 2, seed=0))
    state.energies[:] = [1e16, 1.0, -1e16] + [0.5] * (len(state.energies) - 3)
    total = 0.0
    for e in state.energies:
        total += e
    assert math.fsum(state.energies) != total
    assert state.dual_value() == total


def test_initial_bound_matches_scratch():
    state, _ = build_state(random_ilp(7, 4, seed=7))
    assert state.dual_value() == pytest.approx(scratch_dual_value(state))


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
def test_passes_monotone_and_match_scratch(averaging):
    rng = random.Random(1311)
    for _ in range(12):
        problem = random_ilp(rng.randint(3, 7), rng.randint(2, 5), seed=rng.randint(0, 10**6))
        state, _ = build_state(problem, averaging=averaging)
        if state.infeasible:
            continue
        lb = state.dual_value()
        for _ in range(3):
            for a_pass in (forward_pass, backward_pass):
                cur = a_pass(state)
                if state.infeasible:
                    break
                assert cur >= lb - 1e-9
                assert cur == pytest.approx(scratch_dual_value(state), abs=1e-8)
                lb = cur
            if state.infeasible:
                break


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
@pytest.mark.parametrize("smoothing", [0.0, 0.35, 1e-3, 50.0])
def test_every_update_is_validated_by_fresh_sweeps(averaging, smoothing, monkeypatch):
    rng = random.Random(1312)
    seen_infinite = 0
    for _ in range(8):
        problem = random_ilp(rng.randint(3, 6), rng.randint(2, 4), seed=rng.randint(0, 10**6))
        state, _ = build_state(problem, smoothing=smoothing, averaging=averaging)
        if state.infeasible:
            continue
        checker = Checker(state)
        with monkeypatch.context() as patch:
            watch_updates(patch, checker)
            forward_pass(state)
            if not state.infeasible:
                backward_pass(state)
        assert checker.updates > 0
        seen_infinite += checker.infinite_diffs
    assert seen_infinite > 0  # equality rows must have exercised forced variables


def _messages(state):
    return repr((state.fw, state.bw, state.duals, state.energies, state.infeasible))


# x1 + x2 = 2 forces x1 to 1 and x1 + x3 <= 0 forces it to 0; each row alone
# is feasible, so only the step on x1, after the one on x0, proves it empty
PROVEN_MIDWAY = inst(
    ["x0", "x1", "x2", "x3"],
    [-1, 1, 1, 1],
    [
        ((((0, 1), (1, 1))), Relation.LE, 1),
        ((((1, 1), (2, 1))), Relation.EQ, 2),
        ((((1, 1), (3, 1))), Relation.LE, 0),
    ],
)


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
@pytest.mark.parametrize("smoothing", [0.0, 0.35])
def test_passes_equal_the_update_sequence(averaging, smoothing):
    # a pass runs the state's step schedule in one loop; stepping each
    # variable by `mma_update` in `active` order, or its reverse, must give
    # the same messages, copies, energies and bound to the bit
    rng = random.Random(1317)
    problems = [random_ilp(rng.randint(3, 7), rng.randint(2, 5), seed=rng.randint(0, 10**6)) for _ in range(6)]
    problems += [make(s) for s in range(2) for make in GENERATORS] + [PROVEN_MIDWAY]
    proofs = 0
    for problem in problems:
        pair = [build_state(problem, smoothing, averaging)[0] for _ in range(2)]
        if pair[0].infeasible:
            continue
        for _ in range(3):
            for a_pass, forward in ((forward_pass, True), (backward_pass, False)):
                got = a_pass(pair[0])
                want = update_pass(pair[1], forward)
                assert repr(got) == repr(want)
                assert _messages(pair[0]) == _messages(pair[1])
            if pair[0].infeasible:
                proofs += 1
                break
    assert proofs


def test_a_pass_proves_infeasibility_midway(monkeypatch):
    state, _ = build_state(PROVEN_MIDWAY)
    assert not state.infeasible and state.active[:2] == [0, 1]
    checker = Checker(state)
    watch_updates(monkeypatch, checker)
    assert forward_pass(state) == INF
    assert state.infeasible
    assert checker.updates == 2


def test_forced_value_update_moves_cost_to_forcing_row(monkeypatch):
    # r0 forces x0 = 1, so the finite diff from r1 lands on r0's copy
    problem = inst(
        ["x0", "x1", "x2"],
        [1, 2, -1],
        [
            ((((0, 1), (1, 1))), Relation.EQ, 2),
            ((((0, 1), (2, 1))), Relation.LE, 1),
        ],
    )
    state, _ = build_state(problem)
    checker = Checker(state)
    watch_updates(monkeypatch, checker)
    forward_pass(state)
    assert not state.infeasible
    assert checker.updates > 0
    assert checker.infinite_diffs > 0


def test_forced_zero_update(monkeypatch):
    problem = inst(
        ["x0", "x1", "x2"],
        [-3, 1, 1],
        [
            ((((0, 1), (1, 1))), Relation.LE, 0),
            ((((0, 1), (2, 1))), Relation.LE, 1),
        ],
    )
    state, _ = build_state(problem)
    checker = Checker(state)
    watch_updates(monkeypatch, checker)
    forward_pass(state)
    backward_pass(state)
    assert checker.updates > 0
    assert checker.infinite_diffs > 0
    assert not state.infeasible


def test_conflicting_forcings_prove_infeasibility():
    problem = inst(
        ["x0", "x1", "x2"],
        [1, 1, 1],
        [
            ((((0, 1), (1, 1))), Relation.EQ, 2),
            ((((0, 1), (2, 1))), Relation.LE, 0),
        ],
    )
    state, _ = build_state(problem)
    report = run(state, max_passes=10)
    assert state.infeasible
    assert report.termination == "infeasible"
    assert report.lower_bound == INF
    assert brute_force_solve(problem) == (None, None)


def test_bound_never_exceeds_optimum():
    rng = random.Random(1313)
    checked = 0
    for _ in range(60):
        if checked >= 8:
            break
        problem = random_ilp(rng.randint(3, 8), rng.randint(2, 6), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_solve(problem)
        state, dec = build_state(problem)
        report = run(state, max_passes=20, tolerance=0.0)
        if opt is None:
            continue  # dual may or may not prove infeasibility; nothing to compare
        _, free_gain = presolve_free(problem, dec)
        assert report.lower_bound + float(free_gain) <= float(opt) + 1e-7
        checked += 1
    assert checked >= 8


def test_structured_instances_bound_quality():
    for problem in (mrf_instance(1, 3, 2, seed=5), graph_matching_instance(2, seed=5)):
        opt, _ = brute_force_solve(problem)
        state, _ = build_state(problem, averaging=SRMP)
        report = run(state, max_passes=200, tolerance=1e-12)
        assert report.lower_bound <= float(opt) + 1e-7
        # every variable is covered here, so the raw bound is the whole bound
        assert report.lower_bound >= float(opt) - 2.0  # sane gap on tiny instances


def test_cost_scale_follows_the_largest_cost():
    rows = [((((0, 1), (1, 1))), Relation.LE, 1), ((((1, 1), (2, 1))), Relation.LE, 1)]
    for objective, want in (([3, -5, 1], 1.0), ([0, 0, 0], 1.0), (["1/8", "-1/4", 0], 0.25)):
        state, _ = build_state(inst(["x0", "x1", "x2"], objective, rows))
        assert cost_scale(state) == want
        run(state, max_passes=6, tolerance=0.0)
        assert cost_scale(state) == pytest.approx(want)  # the copies keep their sums


def test_zero_tolerance_still_runs_to_the_limit_on_tiny_costs():
    problem = mrf_instance(1, 3, 2, seed=5)
    tiny = ILPInstance(problem.var_names, [c / 10**9 for c in problem.objective], problem.constraints)
    state, _ = build_state(tiny)
    report = run(state, max_passes=30, tolerance=0.0)
    assert (report.passes, report.termination) == (30, "pass_limit")


def test_smoothed_energies_below_hard():
    problem = random_ilp(6, 4, seed=77)
    hard, _ = build_state(problem, smoothing=0.0)
    soft, _ = build_state(problem, smoothing=0.5)
    for j in range(len(hard.bdds)):
        assert scratch_energy(soft, j) <= scratch_energy(hard, j) + 1e-12


def test_smoothed_run_monotone_and_valid():
    rng = random.Random(1314)
    for _ in range(6):
        problem = random_ilp(rng.randint(3, 6), rng.randint(2, 4), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_solve(problem)
        state, dec = build_state(problem, smoothing=0.2)
        if state.infeasible:
            continue
        lb = state.dual_value()
        bounds = [lb]
        for _ in range(4):
            bounds.append(forward_pass(state))
            if state.infeasible:
                break
            bounds.append(backward_pass(state))
            if state.infeasible:
                break
        if state.infeasible:
            assert opt is None
            continue
        for a, b in zip(bounds, bounds[1:]):
            assert b >= a - 1e-9
        if opt is not None:
            _, free_gain = presolve_free(problem, dec)
            assert bounds[-1] + float(free_gain) <= float(opt) + 1e-7


def test_smoothed_srmp_runs():
    problem = mrf_instance(1, 3, 2, seed=4)
    state, _ = build_state(problem, smoothing=0.3, averaging=SRMP)
    report = run(state, max_passes=6, tolerance=0.0)
    assert report.passes == 6
    assert math.isfinite(report.lower_bound)
    opt, _ = brute_force_solve(problem)
    assert report.lower_bound <= float(opt) + 1e-7


def test_run_report_and_trace_shape():
    problem = mrf_instance(1, 3, 2, seed=1)
    state, _ = build_state(problem)
    report = run(state, max_passes=40, tolerance=1e-9)
    assert isinstance(report, DualReport)
    assert report.termination in ("converged", "pass_limit")
    assert report.passes == len(report.trace)
    directions = [t.direction for t in report.trace]
    assert directions[::2] == ["forward"] * len(directions[::2])
    assert directions[1::2] == ["backward"] * len(directions[1::2])
    assert [t.pass_index for t in report.trace] == list(range(1, report.passes + 1))
    assert all(t.time_ms >= 0 for t in report.trace)
    assert report.lower_bound == report.trace[-1].lower_bound
    entry = report.trace[0]
    assert entry == dual.TraceEntry(pass_index=1, direction="forward", lower_bound=entry.lower_bound,
                                    time_ms=entry.time_ms)
    with pytest.raises(AttributeError):
        entry.lower_bound = 0.0


def test_runs_are_deterministic():
    problem = graph_matching_instance(2, seed=8)
    state1, _ = build_state(problem, averaging=SRMP)
    state2, _ = build_state(problem, averaging=SRMP)
    r1 = run(state1, max_passes=12, tolerance=0.0)
    r2 = run(state2, max_passes=12, tolerance=0.0)
    assert [t.lower_bound for t in r1.trace] == [t.lower_bound for t in r2.trace]
    assert state1.duals == state2.duals


def test_refresh_is_idempotent_after_passes():
    problem = random_ilp(6, 4, seed=13)
    state, _ = build_state(problem)
    forward_pass(state)
    backward_pass(state)
    lb = state.dual_value()
    state.refresh()
    assert state.dual_value() == pytest.approx(lb, abs=1e-9)


def test_uncovered_variable_update_rejected():
    problem = inst(["x0", "x1"], [1, 1], [((((0, 1),)), Relation.LE, 1)])
    state, _ = build_state(problem)
    with pytest.raises(ValueError):
        mma_update(state, 1)


GENERATORS = (
    lambda s: random_ilp(9, 5, s),
    lambda s: mrf_instance(2, 3, 3, s),
    lambda s: graph_matching_instance(3, s),
    lambda s: cell_tracking_instance(5, s),
    lambda s: tomography_instance(6, 3, s),
)


def _message_digest(state):
    return repr((state.duals, state.fw, state.bw, state.energies, state.infeasible))


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_fused_passes_match_the_per_level_loop(averaging, smoothing):
    # the fused coordinate step against the per-level loop it replaced:
    # bounds, cost copies and every message equal to the bit
    kinds = Counter()
    for make in GENERATORS:
        for seed in range(6):
            problem = make(700 + seed)
            fused, _ = build_state(problem, smoothing, averaging)
            slot, _ = build_state(problem, smoothing, averaging)
            for k in range(8):
                forward = k % 2 == 0
                got = forward_pass(fused) if forward else backward_pass(fused)
                want = slot_pass(slot, forward, kinds)
                assert repr(got) == repr(want)
                assert _message_digest(fused) == _message_digest(slot)
    assert kinds["average"] > 5000
    assert kinds["forced"] >= 50
    assert kinds["infeasible"] >= 2


@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_passes_follow_diagrams_restricted_after_the_state_was_built(smoothing):
    # `refresh` rebuilds the level records from the arcs, so fixation and
    # rollback after the state was built must show in the passes that follow
    # it; each pass leaves every optimum at the true terminal (forward) or the
    # root (backward)
    def optima(state, forward):
        # (value where the pass left it, stored energy) per non-sentinel diagram
        return [
            (fw[TRUE] if forward else bw[b.root], e)
            for fw, bw, b, e in zip(state.fw, state.bw, state.bdds, state.energies)
            if b.root >= 2
        ]

    moved = 0
    for seed in range(6):
        problem = mrf_instance(1, 3, 2, seed)
        state, _ = build_state(problem, smoothing)
        forward_pass(state)
        backward_pass(state)
        _, best = brute_force_solve(problem)
        before = scratch_dual_value(state)
        Trail().attach(state.bdds)
        mark = checkpoint_all(state.bdds)
        assignment, newly = {}, []
        for var in range(0, problem.num_vars, 3):
            assert restriction_propagation(state.bdds, state.covering, assignment, var, best[var], newly)
        restricted = scratch_dual_value(state)
        moved += restricted > before + 1e-6
        for label in ("restricted", "restored"):
            state.refresh()
            assert state.dual_value() == pytest.approx(scratch_dual_value(state), abs=1e-8)
            for _ in range(3):
                for a_pass in (forward_pass, backward_pass):
                    lb = a_pass(state)
                    assert not state.infeasible, label
                    assert lb == pytest.approx(scratch_dual_value(state), abs=1e-8), label
                    for read, stored in optima(state, a_pass is forward_pass):
                        assert read == stored, label
            if label == "restricted":
                rollback_all(state.bdds, mark)
    assert moved >= 4


def _restricted(problem, dec, best, bdds=None):
    # fresh diagrams (or `bdds`) on one trail, a third of the variables fixed
    # toward a known optimum by propagation; returns the diagrams and the mark
    if bdds is None:
        bdds = [build_bdd(c, support) for c, support in zip(problem.constraints, dec.subproblem_vars)]
    Trail().attach(bdds)
    mark = checkpoint_all(bdds)
    assignment, newly = {}, []
    for var in range(0, problem.num_vars, 3):
        assert restriction_propagation(bdds, dec.var_subproblems, assignment, var, best[var], newly)
    return bdds, mark


def _passes(state, count=4):
    bounds = [(forward_pass if k % 2 == 0 else backward_pass)(state) for k in range(count)]
    return repr((bounds, state.fw, state.bw, state.duals, state.energies))


@pytest.mark.parametrize("averaging", [UNIFORM, SRMP])
@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_refresh_reads_the_arcs_as_a_fresh_state_would(averaging, smoothing):
    # the list store builds its level records from the arcs at `refresh`: a
    # state restricted and refreshed after it was built must pass exactly as
    # a state built on diagrams restricted the same way, and after a rollback
    # and a refresh exactly as one built on unrestricted diagrams
    checked = 0
    for problem in (mrf_instance(1, 3, 2, 2), graph_matching_instance(2, 1), tomography_instance(3, 2, 0)):
        _, best = brute_force_solve(problem)
        state, dec = build_state(problem, smoothing, averaging)
        assert state.store is None
        _passes(state, 3)
        copies = [costs[:] for costs in state.duals]
        _, mark = _restricted(problem, dec, best, state.bdds)
        state.refresh()
        fresh = init_duals(_restricted(problem, dec, best)[0], dec, problem.objective, smoothing, averaging)
        assert [b.lo for b in fresh.bdds] == [b.lo for b in state.bdds]
        assert [b.lo for b in state.bdds] != [b.lo for b in build_state(problem)[0].bdds]
        fresh.duals[:] = [costs[:] for costs in copies]
        fresh.refresh()
        assert _passes(state) == _passes(fresh)
        copies = [costs[:] for costs in state.duals]
        rollback_all(state.bdds, mark)
        state.refresh()
        fresh, _ = build_state(problem, smoothing, averaging)
        fresh.duals[:] = copies
        fresh.refresh()
        assert _passes(state) == _passes(fresh)
        checked += 1
    assert checked == 3


def _fields(state, j, k):
    # field k of diagram j's level records
    return [state.records[var][state.covering[var].index(j)][k] for var in state.bdds[j].support]


def _rests(state, j):
    # diagram j's `rest` tuples (the node triples past each level's first node)
    return _fields(state, j, 7)


def _resets(state, j):
    # diagram j's forward resets (the nodes below each level its first node does not write)
    return _fields(state, j, 8)


def test_rows_of_one_shape_share_their_node_triples():
    state, _ = build_state(mrf_instance(1, 4, 3, 0))
    rows = {}
    for j, b in enumerate(state.bdds):
        rows.setdefault((tuple(b.lo), tuple(b.hi)), []).append(j)
    group = max(rows.values(), key=len)
    assert len(group) >= 3
    before = [_rests(state, j) for j in group]
    wide = [lev for lev, rest in enumerate(before[0]) if rest]
    assert wide  # levels with more than one node
    for rests in before[1:]:
        assert all(x is y for x, y in zip(rests, before[0]))
    resets = [_resets(state, j) for j in group]
    assert any(resets[0])  # levels whose first node leaves nodes below it unwritten
    for row in resets[1:]:
        assert all(x is y for x, y in zip(row, resets[0]))
    fixed = state.bdds[group[0]]
    Trail().attach(state.bdds)
    checkpoint_all(state.bdds)
    assert fixed.fix(fixed.support[wide[0]], 0)
    state.refresh()
    after = [_rests(state, j) for j in group]
    assert after[0] != before[0]
    for rests, old in zip(after[1:], before[1:]):
        assert rests == old and all(x is y for x, y in zip(rests, after[1]))
    for j, old in zip(group[1:], resets[1:]):
        row = _resets(state, j)
        assert row == old and all(x is y for x, y in zip(row, _resets(state, group[1])))


def _parts(state, j):
    # diagram j's level parts: its records less the messages, copies and level
    return list(zip(*(_fields(state, j, k) for k in range(4, 9))))


@pytest.mark.parametrize("make", [lambda: mrf_instance(1, 4, 3, 0), lambda: tomography_instance(6, 3, 1)])
def test_records_take_template_parts_while_the_arcs_are_as_built(make):
    # a diagram whose arcs equal its template's takes the template's level
    # parts, the same objects for every row of the shape; a fixed diagram
    # derives its own from its live arcs, and after a rollback takes the
    # template's again; either way they equal the parts of the live arcs
    state, dec = build_state(make())

    def check():
        for j, bdd in enumerate(state.bdds):
            live = list(dual._level_parts(bdd))
            template = list(bdd.template.derived(dual._level_parts))
            got = _parts(state, j)
            assert got == live
            if bdd.as_built():
                assert all(x is y for got_part, part in zip(got, template) for x, y in zip(got_part[3:], part[3:]))
            else:
                assert got != template

    check()
    Trail().attach(state.bdds)
    mark = checkpoint_all(state.bdds)
    assignment = {}
    for var in state.active[::3]:
        if var not in assignment and not restriction_propagation(
            state.bdds, state.covering, assignment, var, 1, []
        ):
            break
    state.refresh()
    assert sum(not b.as_built() for b in state.bdds) >= 2
    check()
    rollback_all(state.bdds, mark)
    state.refresh()
    assert all(b.as_built() for b in state.bdds)
    check()


def _first_node_shapes(bdd, lev):
    # the shapes of level lev's first node that decide what a forward step resets
    nodes = bdd.level_nodes
    v = nodes[lev][0]
    l, h = bdd.lo[v], bdd.hi[v]
    shapes = set()
    if l == h == FALSE:
        shapes.add("removed")
    elif l == h:
        shapes.add("arcs meet")
    elif FALSE in (l, h):
        shapes.add("one arc on FALSE")
    if lev + 1 == len(nodes):
        shapes.add("into TRUE")
    elif len(nodes[lev]) >= 3 and not set(nodes[lev + 1]) <= {l, h}:
        shapes.add("wide, part below")
    return shapes


@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_a_forward_step_writes_the_level_below_as_the_reference_does(smoothing):
    # a forward step resets only the nodes below that the level's first node
    # does not write without a compare; with the level below (or the true
    # terminal) poisoned first, the step must leave it equal to the bit to
    # the reference's forward step, on unrestricted and restricted diagrams
    shapes = Counter()
    for seed in range(8):
        problem = random_ilp(9, 5, 700 + seed)
        _, best = brute_force_solve(problem)
        for restrict in (False, True) if best is not None else (False,):
            state, dec = build_state(problem, smoothing)
            if restrict:
                _restricted(problem, dec, best, state.bdds)
                state.refresh()
            _, scatter, _, readout = level_kernels(state)
            slots = slot_map(state.bdds)
            for var in state.active:
                for j, lev in slots[var]:
                    bdd = state.bdds[j]
                    below = bdd.level_nodes[lev + 1] if lev + 1 < bdd.num_levels else [TRUE]
                    for c in below:
                        state.fw[j][c] = -7.0
                before = [fwj[:] for fwj in state.fw]
                mma_update(state, var)
                if state.infeasible:
                    break
                for j, lev in slots[var]:
                    bdd, want, cost = state.bdds[j], before[j], state.duals[j][lev]
                    if lev + 1 < bdd.num_levels:
                        scatter(bdd, want, lev, cost)
                    else:
                        want[TRUE] = readout(bdd, want, cost)
                    assert repr(state.fw[j]) == repr(want)
                    shapes.update(_first_node_shapes(bdd, lev))
    for shape in ("arcs meet", "one arc on FALSE", "removed", "wide, part below", "into TRUE"):
        assert shapes[shape] >= 5, shape
