import random
from fractions import Fraction

import pytest

from bddsolve import dual, primal
from bddsolve.bdd import Bdd, BddError, Trail, build_bdd
from bddsolve.dual import init_duals, run
from bddsolve.model import ILPInstance, LinearConstraint, Relation, decompose, presolve_free
from bddsolve.primal import (
    ABS_MARGIN,
    COUNT_ALIGNED,
    NEG_MARGIN,
    STRATEGIES,
    PrimalResult,
    checkpoint_all,
    compute_scores,
    primal_search,
    rollback_all,
)
from bddsolve.testkit import brute_force_solve, graph_matching_instance, mrf_instance, random_ilp
from bdd_queries import journal
from reference_algebra import COUNTING, MIN_MARGINAL, MessageStore, marginal_sweep


def build_state(instance, passes=6):
    dec = decompose(instance, None)
    bdds = [build_bdd(c, support) for c, support in zip(instance.constraints, dec.subproblem_vars)]
    state = init_duals(bdds, dec, instance.objective)
    if passes and not state.infeasible:
        run(state, max_passes=passes, tolerance=0.0)
    return state, dec


def inst(names, objective, rows):
    return ILPInstance(
        list(names),
        [Fraction(c) for c in objective],
        tuple(LinearConstraint(f"r{k}", tuple(t), rel, rhs) for k, (t, rel, rhs) in enumerate(rows)),
    )


def snapshot_all(bdds):
    return [
        (list(b.lo), list(b.hi), b.root, len(journal(b)))
        for b in bdds
    ]


def full_vector(instance, assignment):
    return [assignment[i] for i in range(instance.num_vars)]


def test_margin_guided_pick():
    problem = inst(["x0", "x1"], [-2, -1], [((((0, 1), (1, 1))), Relation.LE, 1)])
    state, _ = build_state(problem, passes=0)
    scores = compute_scores(state)
    assert scores.margins[0] == pytest.approx(-1.0)
    assert scores.margins[1] == pytest.approx(1.0)
    assert scores.preference == {0: 1, 1: 0}
    assert scores.order == [0, 1]
    result = primal_search(state)
    assert result.status == "solved"
    assert result.assignment == {0: 1, 1: 0}
    assert result.attempts == 1


def test_propagation_cascades_through_shared_variables():
    problem = inst(
        ["x0", "x1", "x2", "x3"],
        [5, 5, -9, 5],
        [
            ((((0, 1), (1, 1), (2, 1))), Relation.EQ, 1),
            ((((2, 1), (3, 1))), Relation.EQ, 1),
        ],
    )
    state, _ = build_state(problem, passes=0)
    result = primal_search(state)
    assert result.status == "solved"
    assert result.assignment == {0: 0, 1: 0, 2: 1, 3: 0}
    assert result.attempts == 1


def test_backtracks_to_feasibility():
    # objective pulls x0 to 1, but only x0 = 0 extends to a full solution
    problem = inst(
        ["x0", "x1", "x2"],
        [-10, 1, 1],
        [
            ((((0, 1), (1, 1))), Relation.EQ, 1),
            ((((0, 1), (2, 1))), Relation.EQ, 1),
            ((((1, 1), (2, 1))), Relation.GE, 1),
        ],
    )
    state, _ = build_state(problem, passes=0)
    result = primal_search(state)
    assert result.status == "solved"
    vec = full_vector(problem, result.assignment)
    assert problem.check_assignment(vec)
    assert result.conflicts >= 1
    assert result.assignment[0] == 0


def test_exhaustion_proves_infeasibility():
    problem = inst(
        ["x0", "x1", "x2"],
        [-1, 1, 1],
        [
            ((((0, 1), (1, 1))), Relation.EQ, 1),
            ((((0, 1), (2, 1))), Relation.EQ, 1),
            ((((1, 1), (2, 1))), Relation.EQ, 1),
        ],
    )
    assert brute_force_solve(problem) == (None, None)
    state, _ = build_state(problem, passes=0)
    result = primal_search(state)
    assert result.status == "infeasible"
    assert result.assignment is None
    # a budget too small to finish the proof must report budget instead
    capped = primal_search(state, budget=1)
    assert capped.status == "budget"
    assert capped.attempts <= 1


def test_budget_zero_attempts_nothing():
    problem = inst(["x0"], [1], [((((0, 1),)), Relation.LE, 1)])
    state, _ = build_state(problem, passes=0)
    result = primal_search(state, budget=0)
    assert result == PrimalResult("budget", None, 0)


def test_random_instances_match_brute_force():
    rng = random.Random(2718)
    solved = infeasible = 0
    for _ in range(40):
        problem = random_ilp(rng.randint(3, 8), rng.randint(2, 5), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_solve(problem)
        state, dec = build_state(problem, passes=4)
        if state.infeasible:
            assert opt is None
            infeasible += 1
            continue
        fixes, _ = presolve_free(problem, dec)
        before = snapshot_all(state.bdds)
        result = primal_search(state, preassigned=fixes)
        assert snapshot_all(state.bdds) == before
        if opt is None:
            assert result.status == "infeasible"
            infeasible += 1
        else:
            assert result.status == "solved"
            vec = full_vector(problem, result.assignment)
            assert problem.check_assignment(vec)
            solved += 1
    assert solved >= 5 and infeasible >= 5


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_all_solve(strategy):
    rng = random.Random(2719)
    solved = 0
    for _ in range(20):
        problem = random_ilp(rng.randint(3, 7), rng.randint(2, 4), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_solve(problem)
        if opt is None:
            continue
        state, dec = build_state(problem, passes=4)
        fixes, _ = presolve_free(problem, dec)
        result = primal_search(state, preassigned=fixes, strategy=strategy)
        assert result.status == "solved"
        assert problem.check_assignment(full_vector(problem, result.assignment))
        solved += 1
    assert solved >= 5


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scores_match_the_reference_sweeps(monkeypatch, strategy):
    rng = random.Random(2721)
    problems = [
        random_ilp(rng.randint(4, 12), rng.randint(2, 6), seed=rng.randint(0, 10**6)) for _ in range(20)
    ]
    problems += [mrf_instance(2, 3, 3, seed=5), graph_matching_instance(3, seed=2)]
    states = [build_state(problem)[0] for problem in problems]
    fast = [compute_scores(state, strategy) for state in states]

    def reference_min_marginals(bdd, costs):
        return marginal_sweep(bdd, MessageStore(bdd, MIN_MARGINAL), costs, MIN_MARGINAL)

    def reference_counts(bdd):
        return marginal_sweep(bdd, MessageStore(bdd, COUNTING), [0] * len(bdd.level_nodes), COUNTING)

    monkeypatch.setattr(dual, "min_marginals", reference_min_marginals)
    monkeypatch.setattr(primal, "_path_counts", reference_counts)
    for state, got in zip(states, fast):
        want = compute_scores(state, strategy)
        assert repr(got.margins) == repr(want.margins)
        assert got.preference == want.preference
        assert got.order == want.order
    assert sum(len(got.margins) for got in fast) >= 100


def test_count_imbalance_equals_the_per_diagram_counts(monkeypatch):
    # rows of one shape share a template, which is swept once for every
    # diagram whose arcs are as built; a fixed diagram gets its own sweep
    sweeps = []
    path_counts = primal._path_counts
    monkeypatch.setattr(primal, "_path_counts", lambda d: sweeps.append(d) or path_counts(d))
    problem = mrf_instance(3, 3, 3, seed=4)
    dec = decompose(problem, None)
    shapes = {}
    bdds = [build_bdd(c, support, shapes=shapes) for c, support in zip(problem.constraints, dec.subproblem_vars)]

    def per_diagram():
        counts = {}
        for bdd in bdds:
            if bdd.root >= 2:
                for var, (n0, n1) in zip(bdd.support, primal._path_counts(bdd)):
                    counts[var] = counts.get(var, 0) + (n1 - n0)
        return counts

    assert len({id(b.level_nodes) for b in bdds}) < len(bdds)
    counts = primal._count_imbalance(bdds)
    assert sweeps == list({id(b.template): b.template for b in bdds if b.root >= 2}.values())
    assert counts == per_diagram()
    trail = Trail()
    trail.attach(bdds)
    trail.checkpoint()
    rng = random.Random(5)
    for bdd in rng.sample(bdds, len(bdds) // 3):
        bdd.fix(rng.choice(bdd.support), rng.randint(0, 1))
    variants = {(id(b.level_nodes), tuple(b.lo), tuple(b.hi)) for b in bdds}
    assert len(variants) > len({id(b.level_nodes) for b in bdds})  # a shape now has unequal arcs
    del sweeps[:]
    counts = primal._count_imbalance(bdds)
    assert sweeps == [b for b in bdds if b.root >= 2 and not b.as_built()]  # the templates' counts are kept
    assert counts == per_diagram()


def test_search_is_deterministic():
    problem = mrf_instance(1, 4, 3, seed=21)
    state1, _ = build_state(problem)
    state2, _ = build_state(problem)
    r1 = primal_search(state1)
    r2 = primal_search(state2)
    assert (r1.status, r1.assignment, r1.attempts) == (r2.status, r2.assignment, r2.attempts)


def test_structured_instance_rounds_cleanly():
    problem = mrf_instance(1, 4, 2, seed=31)
    state, _ = build_state(problem, passes=10)
    result = primal_search(state)
    assert result.status == "solved"
    assert problem.check_assignment(full_vector(problem, result.assignment))


def test_preassigned_values_are_kept():
    # x2 appears in no row: the caller decides it, the search keeps it
    problem = inst(
        ["x0", "x1", "x2"],
        [1, 1, -4],
        [((((0, 1), (1, 1))), Relation.GE, 1)],
    )
    state, dec = build_state(problem, passes=0)
    fixes, gain = presolve_free(problem, dec)
    assert fixes == {2: 1} and gain == Fraction(-4)
    result = primal_search(state, preassigned=fixes)
    assert result.status == "solved"
    assert result.assignment[2] == 1
    assert problem.check_assignment(full_vector(problem, result.assignment))


# -- counters -------------------------------------------------------------------


def test_counters_on_a_search_that_backtracks():
    problem = random_ilp(5, 3, seed=67)
    state, _ = build_state(problem, passes=0)
    result = primal_search(state)
    assert result.status == "solved"
    assert problem.check_assignment(full_vector(problem, result.assignment))
    assert (result.attempts, result.conflicts, result.backtracks, result.max_depth) == (6, 2, 1, 3)


def test_propagated_counts_the_literals_a_decision_forces():
    # x0 + x1 = 1: deciding either variable forces the other
    problem = inst(["x0", "x1"], [1, 2], [((((0, 1), (1, 1))), Relation.EQ, 1)])
    state, _ = build_state(problem)
    result = primal_search(state)
    assert result.status == "solved" and result.assignment == {0: 1, 1: 0}
    assert (result.attempts, result.conflicts, result.propagated) == (1, 0, 1)


def test_propagated_sums_every_attempt_undone_ones_included(monkeypatch):
    # each attempt assigns its decision and what propagation forces, kept or
    # undone; without conflicts every covered variable is assigned once
    calls = []
    propagate = primal.restriction_propagation

    def counted(bdds, covering, assignment, var, value, newly):
        ok = propagate(bdds, covering, assignment, var, value, newly)
        calls.append((ok, len(newly) - 1))
        return ok

    monkeypatch.setattr(primal, "restriction_propagation", counted)
    rng = random.Random(2721)
    undone = 0
    for _ in range(30):
        problem = random_ilp(rng.randint(3, 8), rng.randint(2, 5), seed=rng.randint(0, 10**6))
        state, _ = build_state(problem, passes=2)
        if state.infeasible:
            continue
        calls.clear()
        r = primal_search(state)
        assert len(calls) == r.attempts
        assert r.propagated == sum(n for _, n in calls)
        if r.status == "solved" and r.conflicts == 0:
            assert r.attempts + r.propagated == len(state.active)
        undone += sum(n for ok, n in calls if not ok)
    assert undone > 0


def test_counters_when_the_tree_is_exhausted():
    problem = random_ilp(5, 3, seed=13)
    assert brute_force_solve(problem) == (None, None)
    state, _ = build_state(problem, passes=0)
    result = primal_search(state)
    assert result.status == "infeasible"
    assert (result.attempts, result.conflicts, result.backtracks, result.max_depth) == (6, 4, 2, 2)


def test_counters_balance_on_random_instances():
    # every successful attempt pushes a frame; exhaustion pops them all
    rng = random.Random(2720)
    for _ in range(30):
        problem = random_ilp(rng.randint(3, 8), rng.randint(2, 5), seed=rng.randint(0, 10**6))
        state, _ = build_state(problem, passes=2)
        if state.infeasible:
            continue
        r = primal_search(state)
        pushed = r.attempts - r.conflicts
        assert 0 <= r.conflicts <= r.attempts
        assert r.max_depth <= pushed
        if r.status == "infeasible":
            assert pushed == r.backtracks
        else:
            assert 0 < pushed - r.backtracks <= r.max_depth


def rescanning_propagation(bdds, covering, assignment, var, value, newly):
    """`restriction_propagation` that reads a diagram's forced literals after every fix."""
    queue = [(var, value)]
    qi = 0
    while qi < len(queue):
        v, b = queue[qi]
        qi += 1
        prev = assignment.get(v)
        if prev is not None:
            if prev != b:
                return False
            continue
        assignment[v] = b
        newly.append(v)
        for j in covering[v]:
            bdd = bdds[j]
            if not bdd.fix(v, b):
                return False
            for fv, fb in bdd.forced_literals():
                prev = assignment.get(fv)
                if prev is None:
                    queue.append((fv, fb))
                elif prev != fb:
                    return False
    return True


def _with_forced_rows(problem, rng):
    """`problem` plus a few rows that force literals as built."""
    n = problem.num_vars
    rows = list(problem.constraints)
    for k in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        terms, relation, rhs = rng.choice([
            (((i, 1), (j, 1)), Relation.GE, 2),  # x_i = x_j = 1
            (((i, 2), (j, 1)), Relation.LE, 1),  # x_i = 0
            (((i, 1), (j, -1)), Relation.GE, 1),  # x_i = 1, x_j = 0
            (((i, 1),), Relation.EQ, 1),
        ])
        rows.append(LinearConstraint(f"forced{k}", terms, relation, rhs))
    return ILPInstance(problem.var_names, problem.objective, rows)


def test_propagation_reads_forced_literals_only_after_a_change_or_when_forced_as_built(monkeypatch):
    # skipping the read after a fix that wrote no trail record must change no
    # step of the search: every call's outcome and assigned literals, and the
    # result, equal those of a propagation that reads after every fix
    reads = []
    forced_literals = Bdd.forced_literals

    def counted(self):
        reads.append(self)
        return forced_literals(self)

    monkeypatch.setattr(Bdd, "forced_literals", counted)
    propagate = primal.restriction_propagation

    def search(state, propagation):
        calls = []

        def recorded(bdds, covering, assignment, var, value, newly):
            ok = propagation(bdds, covering, assignment, var, value, newly)
            calls.append((var, value, ok, tuple(newly)))
            return ok

        monkeypatch.setattr(primal, "restriction_propagation", recorded)
        reads.clear()
        result = primal_search(state)
        return result, calls, len(reads)

    rng = random.Random(2722)
    searched = skipped = forced_built = 0
    for _ in range(150):
        problem = random_ilp(rng.randint(4, 9), rng.randint(2, 6), seed=rng.randint(0, 10**6))
        if rng.random() < 0.7:
            problem = _with_forced_rows(problem, rng)
        state, _ = build_state(problem, passes=2)
        if state.infeasible:
            continue
        result, calls, read = search(state, propagate)
        want, want_calls, want_read = search(state, rescanning_propagation)
        assert result == want
        assert calls == want_calls
        searched += 1
        skipped += want_read - read
        forced_built += any(b.template.forced for b in state.bdds)
    assert searched > 30 and forced_built > 20
    assert skipped > 20  # the rule did skip reads


# -- the shared trail -------------------------------------------------------------


def test_checkpoint_all_adds_one_mark_and_no_per_diagram_state():
    bdds = [build_bdd(LinearConstraint(f"r{i}", ((i, 1), (i + 1, 1)), Relation.LE, 1)) for i in range(40)]
    trail = Trail()
    trail.attach(bdds)
    before = [[(slot, repr(getattr(b, slot))) for slot in type(b).__slots__] for b in bdds]
    mark = checkpoint_all(bdds)
    assert trail.marks == [(mark, 0)] and trail.records == []
    assert [[(slot, repr(getattr(b, slot))) for slot in type(b).__slots__] for b in bdds] == before
    rollback_all(bdds, mark)
    assert trail.marks == []
    with pytest.raises(BddError):
        rollback_all(bdds, mark)


@pytest.mark.parametrize(
    "seed, budget, status",
    [(67, None, "solved"), (67, 5, "budget"), (13, None, "infeasible")],
)
def test_search_leaves_the_shared_trail_empty(monkeypatch, seed, budget, status):
    # the search attaches one fresh trail, leaves every diagram on it, and
    # empties it on every exit, restoring the arcs bit for bit
    problem = random_ilp(5, 3, seed=seed)
    state, _ = build_state(problem, passes=0)
    bdds = state.bdds
    earlier = Trail()
    earlier.attach(bdds)
    before = [(list(b.lo), list(b.hi)) for b in bdds]
    seen = []
    real = primal.checkpoint_all

    def spy(diagrams):
        seen.append(diagrams[0].trail)
        return real(diagrams)

    monkeypatch.setattr(primal, "checkpoint_all", spy)
    result = primal_search(state, budget=budget)
    assert result.status == status
    assert result.backtracks > 0  # each path unwinds nested frames
    shared = seen[0]
    assert shared is not earlier and all(t is shared for t in seen)
    assert all(b.trail is shared for b in bdds)
    assert shared.records == [] and shared.marks == []
    assert [(b.lo, b.hi) for b in bdds] == before


def test_unknown_strategy_rejected():
    problem = inst(["x0"], [1], [((((0, 1),)), Relation.LE, 1)])
    state, _ = build_state(problem, passes=0)
    with pytest.raises(ValueError):
        primal_search(state, strategy="bogus")
