import itertools
import math
import random
import time

import pytest

from bddsolve import bdd as bdd_module
from bddsolve.bdd import FALSE, TRUE, Bdd, BddBuildError, BddError, Trail, build_bdd
from bddsolve.cache import WeightedLru
from bddsolve.dual import min_marginals
from bddsolve.model import ILPInstance, LinearConstraint, Relation, decompose, order_variables
from bddsolve.primal import restriction_propagation
from bddsolve.solver import SolveOptions, solve_instance
from bddsolve.testkit import (
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)
from bdd_queries import check_invariants, fresh_build, fresh_trail, journal, level_of, solutions, trail_records


def row(terms, relation, rhs, name="r"):
    return LinearConstraint(name=name, terms=tuple(terms), relation=relation, rhs=rhs)


def brute_solutions(constraint, support):
    """All satisfying 0/1 tuples over `support`, by direct enumeration."""
    coeff = dict(constraint.terms)
    out = set()
    for bits in itertools.product((0, 1), repeat=len(support)):
        total = sum(coeff[v] * b for v, b in zip(support, bits))
        if constraint.relation is Relation.LE:
            ok = total <= constraint.rhs
        elif constraint.relation is Relation.GE:
            ok = total >= constraint.rhs
        else:
            ok = total == constraint.rhs
        if ok:
            out.add(bits)
    return out


def minimal_node_count(solutions, k):
    """Size of the minimal leveled diagram for a set of k-bit tuples.

    Counts, per level, the distinct completion sets over all completable
    prefixes (the Myhill-Nerode classes of the language).
    """
    total = 0
    for t in range(k):
        langs = {}
        for s in solutions:
            langs.setdefault(s[:t], set()).add(s[t:])
        total += len({frozenset(v) for v in langs.values()})
    return total


def snapshot(bdd):
    return (list(bdd.lo), list(bdd.hi), bdd.root, len(journal(bdd)))


def random_row(rng, max_vars=8):
    n = rng.randint(1, max_vars)
    terms = tuple((i, rng.choice([1, 2, 3, -1, -2, -3])) for i in range(n))
    lo_act = sum(min(0, a) for _, a in terms)
    hi_act = sum(max(0, a) for _, a in terms)
    relation = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
    rhs = rng.randint(lo_act - 1, hi_act + 1)
    return row(terms, relation, rhs)


# -- construction ------------------------------------------------------------


def test_pick_one_of_three():
    b = build_bdd(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))
    assert b.support == (0, 1, 2)
    assert b.node_count() == 5
    assert solutions(b) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    check_invariants(b, reduced=True)


def relevel(b, lev, nodes):
    """Give `b` a private copy of its levels with level `lev` holding `nodes`.

    A diagram's levels are its template's tuples, shared with every
    diagram of its shape, so a test corrupts a copy of them instead.
    """
    levels = list(b.level_nodes)
    levels[lev] = tuple(nodes)
    b.level_nodes = tuple(levels)


def test_check_invariants_rejects_misleveled_nodes():
    # levels ((2,), (3, 4), (5, 6)); node levels come from level_nodes alone
    def corrupted(change):
        b = fresh_build(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))
        check_invariants(b, reduced=True)
        change(b)
        return b

    cases = [
        (lambda b: b.lo.__setitem__(2, 5), "skips a level"),
        (lambda b: setattr(b, "root", 3), "level-0"),
        (lambda b: relevel(b, 0, ()), "level-0"),
        (lambda b: relevel(b, 1, (3, 4, 5)), "two levels"),
    ]
    for change, needle in cases:
        with pytest.raises(BddError, match=needle):
            check_invariants(corrupted(change))


def test_levels_cannot_change_in_place():
    # every diagram of a shape, in any instance or thread, shares its levels
    c = row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1)
    b, sibling = build_bdd(c), build_bdd(c)
    assert b.level_nodes is sibling.level_nodes is b.template.level_nodes
    with pytest.raises(TypeError):
        b.level_nodes[1] = (3,)
    with pytest.raises(AttributeError):
        b.level_nodes[1].append(5)
    with pytest.raises(AttributeError):
        b.level_nodes[0].remove(2)
    relevel(b, 1, (4, 3))  # a private copy leaves the shape's levels alone
    assert sibling.level_nodes == build_bdd(c).level_nodes == ((2,), (3, 4), (5, 6))
    check_invariants(sibling, reduced=True)


def test_check_invariants_pins_first_reference_numbering():
    # root 2 has 0-child 3 and 1-child 4; each change keeps the diagram's meaning
    def swap_ids(b):
        # nodes 3 and 4 trade ids, so the root's 0-child is now 4
        for arcs in (b.lo, b.hi):
            arcs[3], arcs[4] = arcs[4], arcs[3]
            arcs[2] = {3: 4, 4: 3}[arcs[2]]

    def reorder_level(b):
        relevel(b, 1, reversed(b.level_nodes[1]))

    def leave_a_gap(b):
        b.lo.append(FALSE)
        b.hi.append(FALSE)

    cases = [
        (swap_ids, "numbered in first-reference order"),
        (reorder_level, "level_nodes not in first-reference order"),
        (leave_a_gap, "without gaps"),
    ]
    for change, needle in cases:
        b = fresh_build(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))
        expect = solutions(b)
        change(b)
        check_invariants(b)
        assert solutions(b) == expect
        with pytest.raises(BddError, match=needle):
            check_invariants(b, reduced=True)


def test_force_both_zero():
    b = build_bdd(row([(0, 1), (1, 1)], Relation.LE, 0))
    assert b.node_count() == 2
    assert solutions(b) == {(0, 0)}


def test_unsatisfiable_row_is_empty_sentinel():
    b = build_bdd(row([(0, 1)], Relation.GE, 2))
    assert b.lo[b.root] == FALSE and b.hi[b.root] == FALSE
    assert b.level_nodes == ((b.root,),) and b.live_nodes(0) == []
    assert b.is_empty()
    assert b.node_count() == 0
    assert solutions(b) == set()


UNSATISFIABLE_ROWS = [
    row([(0, 1), (1, 1)], Relation.LE, -1),
    row([(0, 1), (1, 2), (2, 1)], Relation.GE, 5),
    row([(0, 2), (1, 4), (2, 6)], Relation.EQ, 3),
]


@pytest.mark.parametrize("c", UNSATISFIABLE_ROWS, ids=["le", "ge", "eq"])
def test_unsatisfiable_row_has_every_node_removed(c):
    b = build_bdd(c)
    k = len(b.support)
    assert b.level_nodes == tuple((v,) for v in range(2, k + 2)) and len(b.lo) == k + 2
    assert b.lo.count(FALSE) == b.hi.count(FALSE) == k + 2
    assert b.is_empty() and b.node_count() == 0 and b.forced_literals() == []
    assert b.template.forced == ()
    assert min_marginals(b, [1.0] * k) == [(math.inf, math.inf)] * k
    trail = fresh_trail(b)
    trail.checkpoint()
    for var in b.support:
        for value in (0, 1):
            assert b.fix(var, value) is False
    assert trail.records == []


@pytest.mark.parametrize("seed", range(2))
def test_every_level_holds_a_node(seed):
    rows = [c for inst in shape_kinds(seed) for c in inst.constraints] + UNSATISFIABLE_ROWS
    bdds = [build_bdd(c) for c in rows]
    assert any(b.is_empty() for b in bdds)
    for b in bdds:
        assert len(b.level_nodes) == len(b.support)
        assert all(b.level_nodes)


def test_vacuous_row_keeps_its_level():
    # a trivially-true row still visits its variable: one node, both arcs true
    b = build_bdd(row([(0, 1)], Relation.LE, 1))
    assert b.node_count() == 1
    assert b.lo[b.root] == TRUE and b.hi[b.root] == TRUE
    assert solutions(b) == {(0,), (1,)}


def test_empty_support_sentinels():
    assert not build_bdd(row([], Relation.LE, 0)).is_empty()
    assert build_bdd(row([], Relation.EQ, 1)).is_empty()
    assert solutions(build_bdd(row([], Relation.LE, 0))) == {()}


def test_ge_row_matches_negation():
    b = build_bdd(row([(0, 2), (1, 1), (2, 3)], Relation.GE, 3))
    assert solutions(b) == brute_solutions(row([(0, 2), (1, 1), (2, 3)], Relation.GE, 3), (0, 1, 2))


def test_positions_reorder_support():
    # the levels follow the support as given, as `decompose` sorts it by position
    terms = [(5, 1), (2, 1), (9, 1)]
    b = build_bdd(row(terms, Relation.EQ, 1), (5, 2, 9))
    assert b.support == (5, 2, 9)
    b2 = build_bdd(row(terms, Relation.EQ, 1), (9, 2, 5))
    assert b2.support == (9, 2, 5)
    assert solutions(b2) == solutions(b)
    assert build_bdd(row(terms, Relation.EQ, 1)).support == (2, 5, 9)


def test_build_is_deterministic():
    c = row([(0, 2), (1, -3), (2, 1), (3, 2)], Relation.LE, 1)
    a, b = fresh_build(c), fresh_build(c)
    assert a.lo == b.lo and a.hi == b.hi and a.level_nodes == b.level_nodes


def test_state_budget_enforced():
    # levels 1, 2, 3, 2 nodes wide: level 2 needs three memo entries
    c = row([(0, 3), (1, 5), (2, 7), (3, 11)], Relation.LE, 12)
    assert [len(nodes) for nodes in build_bdd(c).level_nodes] == [1, 2, 3, 2]
    with pytest.raises(BddBuildError, match="per-level state budget"):
        build_bdd(c, state_budget=2)
    # the budget counts memo entries, not raw partial sums: x3 = 0 and the
    # rest free is one node per level, though the partial sums double
    d = build_bdd(row([(0, 1), (1, 2), (2, 4), (3, 8)], Relation.LE, 7), state_budget=2)
    assert d.node_count() == 4


def half_sum_knapsack(n, seed=0):
    """sum a_i x_i <= floor(sum a_i / 2), a_i uniform in [1, 10**6]."""
    rng = random.Random(seed)
    coeffs = [rng.randint(1, 10**6) for _ in range(n)]
    return row(list(enumerate(coeffs)), Relation.LE, sum(coeffs) // 2, name="k")


def test_knapsack_row_builds_in_diagram_time():
    # 24 distinct coefficients give about 2^24 partial sums but 8,080 nodes
    start = time.perf_counter()
    b = build_bdd(half_sum_knapsack(24))
    elapsed = time.perf_counter() - start
    assert b.node_count() == 8080
    assert elapsed < 1.0, f"24-variable knapsack row took {elapsed:.2f}s"
    check_invariants(b, reduced=True)


@pytest.mark.parametrize("relation", [Relation.LE, Relation.EQ])
def test_long_rows_build_without_recursion(relation):
    # 2,000 levels: the build keeps its own stack; one root plus two nodes a level
    b = build_bdd(row([(i, 1) for i in range(2000)], relation, 1))
    assert b.node_count() == 3999
    check_invariants(b, reduced=True)


def test_enumeration_cap():
    c = row([(i, 1) for i in range(6)], Relation.LE, 3)
    with pytest.raises(BddError):
        solutions(build_bdd(c), cap=5)


def test_random_rows_match_brute_force_and_are_minimal():
    rng = random.Random(7001)
    for _ in range(150):
        c = random_row(rng)
        b = build_bdd(c)
        expect = brute_solutions(c, tuple(sorted(c.support())))
        if not expect:
            assert b.is_empty()
            continue
        assert solutions(b, cap=10) == expect
        check_invariants(b, reduced=True)
        assert b.node_count() == minimal_node_count(expect, len(b.support))


# -- fixation and rollback ----------------------------------------------------


def test_fix_without_a_trail_raises():
    # a diagram owns no undo state: a fix needs a trail its caller attached
    b = build_bdd(row([(0, 1), (1, 1)], Relation.LE, 1))
    before = exact(b)
    assert b.trail is None
    with pytest.raises(BddError, match="attached trail"):
        b.fix(0, 1)
    assert b.trail is None and exact(b) == before


def test_fix_requires_checkpoint():
    b = build_bdd(row([(0, 1), (1, 1)], Relation.LE, 1))
    trail = fresh_trail(b)
    with pytest.raises(BddError):
        b.fix(0, 1)
    token = trail.checkpoint()
    assert b.fix(0, 1)
    trail.rollback(token)
    with pytest.raises(BddError):
        b.fix(0, 1)  # the rollback closed the only checkpoint
    assert trail.records == []


def test_fix_unknown_variable():
    b = build_bdd(row([(0, 1)], Relation.LE, 1))
    fresh_trail(b).checkpoint()
    with pytest.raises(BddError):
        b.fix(3, 1)


def test_fix_narrows_pick_one_of_three():
    b = build_bdd(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))
    trail = fresh_trail(b)
    token = trail.checkpoint()
    assert b.fix(1, 1)
    assert b.node_count() == 3
    assert solutions(b) == {(0, 1, 0)}
    assert sorted(b.forced_literals()) == [(0, 0), (1, 1), (2, 0)]
    check_invariants(b)
    trail.rollback(token)
    assert solutions(b) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_conflicting_fixes_empty_the_diagram():
    b = build_bdd(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))
    fresh_trail(b).checkpoint()
    assert b.fix(0, 1)
    assert not b.fix(1, 1)
    assert b.is_empty()


def test_rollback_restores_exact_state():
    rng = random.Random(7002)
    for _ in range(60):
        c = random_row(rng)
        b = build_bdd(c)
        if b.is_empty() or b.root == TRUE:
            continue
        before = snapshot(b)
        trail = fresh_trail(b)
        token = trail.checkpoint()
        for var in rng.sample(b.support, rng.randint(1, len(b.support))):
            if not b.fix(var, rng.randint(0, 1)):
                break
        trail.rollback(token)
        assert snapshot(b) == before


def test_nested_checkpoints():
    b = build_bdd(row([(i, 1) for i in range(4)], Relation.EQ, 2))
    trail = fresh_trail(b)
    t1 = trail.checkpoint()
    b.fix(0, 0)
    mid = snapshot(b)
    t2 = trail.checkpoint()
    b.fix(1, 1)
    assert solutions(b) == {(0, 1, 1, 0), (0, 1, 0, 1)}
    trail.rollback(t2)
    assert snapshot(b) == mid
    trail.rollback(t1)
    assert solutions(b) == {s for s in itertools.product((0, 1), repeat=4) if sum(s) == 2}
    with pytest.raises(BddError):
        trail.rollback(t2)  # invalidated by rolling back its parent


def test_rollback_to_outer_checkpoint_skips_inner():
    b = build_bdd(row([(i, 1) for i in range(4)], Relation.EQ, 2))
    before = snapshot(b)
    trail = fresh_trail(b)
    t1 = trail.checkpoint()
    b.fix(0, 0)
    trail.checkpoint()
    b.fix(1, 1)
    trail.rollback(t1)
    assert snapshot(b) == before


def wide_row(rng):
    """A 9- or 10-variable row with large coefficients, whose middle levels run wide."""
    n = rng.randint(9, 10)
    terms = tuple((i, rng.choice([3, 5, 7, 11, -4, -6, -9])) for i in range(n))
    mid = (sum(min(0, a) for _, a in terms) + sum(max(0, a) for _, a in terms)) // 2
    relation = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
    return row(terms, relation, rng.randint(mid - 8, mid + 8))


def knapsack_row(rng):
    """An 8- to 14-variable mixed-sign `<=` row with large coefficients: many wide levels."""
    n = rng.randint(8, 14)
    terms = tuple((i, rng.choice([1, -1]) * rng.randint(100, 10**5)) for i in range(n))
    low = sum(min(0, a) for _, a in terms)
    high = sum(max(0, a) for _, a in terms)
    return row(terms, Relation.LE, rng.randint(low + (high - low) // 4, high - (high - low) // 4))


def test_fix_sequences_match_filtered_brute_force():
    rng = random.Random(7003)
    wide = upward = downward = emptied = 0
    for k in range(220):
        c = random_row(rng) if k < 120 else wide_row(rng) if k < 180 else knapsack_row(rng)
        b = build_bdd(c)
        if b.is_empty() or b.root == TRUE:
            continue
        wide += max(map(len, b.level_nodes)) > 8
        node_level = {v: lev for lev, nodes in enumerate(b.level_nodes) for v in nodes}
        remaining = brute_solutions(c, b.support)
        trail = fresh_trail(b)
        token = trail.checkpoint()
        order = list(b.support)
        rng.shuffle(order)
        for var in order[: rng.randint(1, len(order))]:
            val = rng.randint(0, 1)
            lev = level_of(b, var)
            live = {v for v in node_level if b.lo[v] != FALSE or b.hi[v] != FALSE}
            alive = b.fix(var, val)
            remaining = {s for s in remaining if s[lev] == val}
            assert alive == bool(remaining)
            if not alive:
                emptied += 1
                assert b.is_empty()
                check_invariants(b)  # an emptied diagram keeps no live node
                # fixing an emptied diagram again changes nothing
                again = snapshot(b)
                assert not b.fix(rng.choice(b.support), rng.randint(0, 1))
                assert b.is_empty() and snapshot(b) == again
                break
            # a node is removed when both its arcs end on the false terminal
            removed = [v for v in live if b.lo[v] == FALSE and b.hi[v] == FALSE]
            upward += len({node_level[v] for v in removed if node_level[v] < lev}) >= 2
            below = {node_level[v] for v in removed if node_level[v] > lev}
            downward += sum(len(b.level_nodes[d]) > 8 for d in below) >= 2
            assert solutions(b, cap=14) == remaining
            check_invariants(b)
            forced = b.forced_literals()
            assert (var, val) in forced
            for fvar, fval in forced:
                flev = level_of(b, fvar)
                assert all(s[flev] == fval for s in remaining)
        trail.rollback(token)
        assert solutions(b, cap=14) == brute_solutions(c, b.support)
    assert wide >= 80
    assert upward > 50  # fixes that removed nodes on two or more levels above their own
    assert downward > 100  # fixes that removed nodes on two or more wide levels below their own
    assert emptied > 30


def test_forced_literals_cascade():
    # picking the lone 2-coefficient forces the other two off
    c = row([(0, 1), (1, 2), (2, 1)], Relation.LE, 2)
    b = build_bdd(c)
    fresh_trail(b).checkpoint()
    assert b.fix(1, 1)
    assert sorted(b.forced_literals()) == [(0, 0), (1, 1), (2, 0)]


def test_journal_stays_small():
    k = 12
    b = build_bdd(row([(i, 1) for i in range(k)], Relation.EQ, 1))
    initial = b.node_count()
    fresh_trail(b).checkpoint()
    for i in range(k - 1):
        assert b.fix(i, 0)
    assert solutions(b) == {tuple(1 if i == k - 1 else 0 for i in range(k))}
    assert len(journal(b)) <= 4 * initial


# -- the shared trail ---------------------------------------------------------


def exact(bdd):
    return (list(bdd.lo), list(bdd.hi), bdd.root)


def test_one_checkpoint_restores_several_diagrams():
    pick = build_bdd(row([(i, 1) for i in range(4)], Relation.EQ, 2, name="pick"))
    cap = build_bdd(row([(i, 1) for i in range(2, 6)], Relation.LE, 1, name="cap"))
    idle = build_bdd(row([(0, 1), (5, 1)], Relation.GE, 1, name="idle"))
    bdds = [pick, cap, idle]
    trail = Trail()
    assert trail.attach(bdds) is None
    assert all(b.trail is trail for b in bdds)
    before = [exact(b) for b in bdds]
    token = trail.checkpoint()
    assert pick.fix(0, 0) and pick.fix(1, 1)
    assert cap.fix(2, 1)
    assert exact(pick) != before[0] and exact(cap) != before[1]
    assert {id(owner) for owner, _ in trail_records(trail, bdds)} == {id(pick), id(cap)}
    assert len(journal(pick)) + len(journal(cap)) == len(trail_records(trail, bdds)) and journal(idle) == []
    trail.rollback(token)
    assert [exact(b) for b in bdds] == before
    assert trail.records == [] and trail.marks == []


def test_rollback_through_any_diagram_undoes_the_whole_trail():
    # checkpoint through the first diagram's trail, roll back through the last's
    bdds = [build_bdd(row([(i, 1), (i + 1, 1)], Relation.EQ, 1, name=f"r{i}")) for i in range(3)]
    Trail().attach(bdds)
    before = [exact(b) for b in bdds]
    token = bdds[0].trail.checkpoint()
    for b, var in zip(bdds, (0, 1, 2)):
        assert b.fix(var, 1)
    bdds[2].trail.rollback(token)
    assert [exact(b) for b in bdds] == before


def test_stale_trail_mark_raises():
    b = build_bdd(row([(i, 1) for i in range(3)], Relation.EQ, 1))
    trail = fresh_trail(b)
    first = trail.checkpoint()
    b.fix(0, 1)
    trail.rollback(first)
    second = trail.checkpoint()  # same depth, new token
    b.fix(1, 1)
    with pytest.raises(BddError):
        trail.rollback(first)
    assert [m[0] for m in trail.marks] == [second] and len(journal(b)) > 0
    inner = trail.checkpoint()
    trail.rollback(second)
    with pytest.raises(BddError):
        trail.rollback(inner)  # closed with its parent
    assert trail.records == [] and trail.marks == []


def test_to_dot_shape():
    b = build_bdd(row([(0, 1), (1, 1)], Relation.EQ, 1, name="pick"))
    dot = b.to_dot(var_names=["left", "right"])
    assert dot.startswith('digraph "pick"')
    assert "style=dotted" in dot
    assert "left" in dot and "right" in dot
    assert dot.count("->") == 2 * b.node_count()


# -- rows of one shape share a compiled template -------------------------------


def fields(bdd):
    return (bdd.constraint_name, bdd.support, bdd.root, bdd.lo, bdd.hi, bdd.level_nodes, bdd.template.forced)


def shape_kinds(seed):
    return [
        random_ilp(10, 40, seed),
        random_ilp(8, 40, seed, coeff_pool=(1, -1)),
        mrf_instance(3, 4, 3, seed),
        graph_matching_instance(3, seed),
        cell_tracking_instance(6, seed),
        tomography_instance(10, 3, seed),
    ]


def sentinel_rows():
    """Empty-support and unsatisfiable rows, each shape twice, plus `>=` twins of `<=` rows."""
    rows = []
    for rep in range(2):
        rows += [
            row([], Relation.LE, 0, name=f"empty_ok{rep}"),
            row([], Relation.EQ, 1, name=f"empty_bad{rep}"),
            row([(rep, 1)], Relation.GE, 2, name=f"unsat{rep}"),
            row([(rep, 2), (rep + 2, 3)], Relation.EQ, 1, name=f"unsat_dp{rep}"),
            row([(rep, 1), (rep + 2, -1)], Relation.LE, 0, name=f"le{rep}"),
            row([(rep, -1), (rep + 2, 1)], Relation.GE, 0, name=f"ge{rep}"),
        ]
    return rows


@pytest.mark.parametrize("order", ["input", "cuthill_mckee"])
@pytest.mark.parametrize("seed", range(4))
def test_shape_cache_equals_fresh_builds(seed, order):
    hits = 0
    for inst in shape_kinds(seed):
        positions = {v: pos for pos, v in enumerate(order_variables(inst, order))}
        shapes = {}
        rows = list(inst.constraints) + sentinel_rows()
        supports = [sorted(c.support(), key=positions.__getitem__) for c in rows]
        cached = [build_bdd(c, support, shapes=shapes) for c, support in zip(rows, supports)]
        for c, support, b in zip(rows, supports, cached):
            assert fields(b) == fields(fresh_build(c, support))
            assert [(b.support[lev], value) for lev, value in b.template.forced] == b.forced_literals()
        # arcs are never aliased, between siblings or with the template
        mutable = [arr for b in cached for arr in (b.lo, b.hi)]
        mutable += [arr for t in shapes.values() for arr in (t.lo, t.hi)]
        assert len({id(arr) for arr in mutable}) == len(mutable)
        hits += len(cached) - len(shapes)
        assert len(shapes) < len(cached)  # every kind repeats at least the sentinel rows
    assert hits > 0


def test_shape_key_includes_rhs_relation_and_budget():
    shapes = {}
    rows = [
        row([(0, 1), (1, 1)], Relation.LE, 1, name="a"),
        row([(2, 1), (3, 1)], Relation.EQ, 1, name="b"),
        row([(4, 1), (5, 1)], Relation.LE, 0, name="c"),
        row([(6, -1), (7, -1)], Relation.GE, -1, name="d"),  # the `<=` form of "a"
    ]
    built = [build_bdd(c, shapes=shapes) for c in rows]
    assert len(shapes) == 3 and built[3].level_nodes is built[0].level_nodes
    assert build_bdd(rows[0], state_budget=7, shapes=shapes).level_nodes is not built[0].level_nodes
    assert len(shapes) == 4


@pytest.mark.parametrize("seed", range(3))
def test_shape_siblings_stay_isolated_under_fixes_and_rollback(seed):
    shapes = {}
    groups = []  # (diagrams, slots) of each instance; all share `shapes` and one trail
    fresh = {}
    for inst in (mrf_instance(3, 3, 2, seed), tomography_instance(8, 3, seed)):
        supports = decompose(inst).subproblem_vars
        bdds = [build_bdd(c, support, shapes=shapes) for c, support in zip(inst.constraints, supports)]
        covering = {}
        for j, (c, support, b) in enumerate(zip(inst.constraints, supports, bdds)):
            fresh[id(b)] = exact(fresh_build(c, support))
            for var in b.support:
                covering.setdefault(var, []).append(j)
        groups.append((bdds, covering))
    everything = [b for bdds, _ in groups for b in bdds]
    trail = Trail()
    trail.attach(everything)
    token = trail.checkpoint()
    rng = random.Random(seed)
    for bdds, covering in groups:
        assignment = {}
        for var in rng.sample(sorted(covering), 3):
            if var not in assignment:
                if not restriction_propagation(bdds, covering, assignment, var, rng.randint(0, 1), []):
                    break
    touched = {id(owner) for owner, _ in trail_records(trail, everything)}
    siblings = {}
    for b in everything:
        siblings.setdefault(id(b.level_nodes), []).append(b)
    # some fixed diagram has a sibling of its shape that nothing fixed
    assert any(
        {id(b) in touched for b in group} == {True, False} for group in siblings.values()
    )
    for b in everything:
        check_invariants(b)
        if id(b) not in touched:
            assert exact(b) == fresh[id(b)]
    trail.rollback(token)
    assert trail.records == []
    for b in everything:
        assert exact(b) == fresh[id(b)]
        check_invariants(b, reduced=True)


# -- templates kept across instances --------------------------------------------


@pytest.fixture
def compiles(monkeypatch):
    """Counts `_compile` calls; every build looks it up in the module."""
    calls = []
    compile_ = bdd_module._compile

    def counting(*args):
        calls.append(args[2:])  # coefficients, relation, rhs, state budget
        return compile_(*args)

    monkeypatch.setattr(bdd_module, "_compile", counting)
    return calls


@pytest.mark.parametrize("seed", range(2))
def test_templates_served_across_instances_equal_fresh_compiles(seed, compiles):
    built = []
    per_instance = 0  # the compiles with no cache across instances
    for inst in shape_kinds(seed) + shape_kinds(seed + 10) + [mrf_instance(3, 4, 3, seed + 20)]:
        supports = decompose(inst).subproblem_vars
        shapes = {}  # one per instance, as `solve_instance` keeps it
        built += [(c, support, build_bdd(c, support, shapes=shapes))
                  for c, support in zip(inst.constraints, supports)]
        per_instance += len(shapes)
    assert len(compiles) < per_instance  # later instances were served templates earlier ones compiled
    # arcs are never aliased, between diagrams or with a cached template
    mutable = [arr for _, _, b in built for arr in (b.lo, b.hi)]
    mutable += [arr for template, _ in bdd_module.TEMPLATES._entries.values() for arr in (template.lo, template.hi)]
    assert len({id(arr) for arr in mutable}) == len(mutable)
    for c, support, b in built:
        assert fields(b) == fields(fresh_build(c, support))


def test_template_cache_keeps_its_budget_and_evicts_the_least_recently_used_first(monkeypatch, compiles):
    # pick-one rows over 2, 3, 4 and 5 variables, of weights 5, 7, 9 and 11
    picks = [row([(i, 1) for i in range(k)], Relation.EQ, 1, name=f"pick{k}") for k in (2, 3, 4, 5)]
    weights = [len(fresh_build(c).lo) for c in picks]
    monkeypatch.setattr(bdd_module, "TEMPLATES", WeightedLru(weights[0] + weights[1] + weights[2]))
    cache = bdd_module.TEMPLATES
    del compiles[:]
    for c in picks[:3]:
        build_bdd(c)
    assert cache.weight == cache.budget and len(compiles) == 3
    build_bdd(picks[0])  # served, and now the most recently used
    assert len(compiles) == 3
    build_bdd(picks[3])  # evicts pick3, the least recently used, then pick4 to fit
    assert cache.weight == weights[0] + weights[3] <= cache.budget and len(compiles) == 4
    build_bdd(picks[0])
    assert len(compiles) == 4
    build_bdd(picks[1])  # compiled again
    assert len(compiles) == 5
    # the real budget holds over a stream of shapes many times its size
    monkeypatch.undo()
    cache = bdd_module.TEMPLATES
    for seed in range(8):
        inst = random_ilp(14, 60, seed)
        for c, support in zip(inst.constraints, decompose(inst).subproblem_vars):
            build_bdd(c, support)
            assert cache.weight <= cache.budget == bdd_module.TEMPLATE_CACHE_NODES
    assert cache.weight > cache.budget // 2
    assert cache.weight == sum(weight for _, weight in cache._entries.values())


def test_a_template_over_the_budget_is_compiled_once_per_solve(compiles):
    # three rows of one 24-variable knapsack shape, 8,080 nodes: over the whole budget
    k = half_sum_knapsack(24)
    terms = [(v + 24 * r, a) for r in range(3) for v, a in k.terms]
    rows = [row(terms[24 * r:24 * r + 24], Relation.LE, k.rhs, name=f"k{r}") for r in range(3)]
    instance = ILPInstance([f"x{i}" for i in range(72)], [-1] * 72, rows)
    for _ in range(2):
        report = solve_instance(instance, SolveOptions(max_passes=1, primal_budget=1))
        assert report.num_nodes == 3 * 8080
    assert len(compiles) == 2  # once in each solve
    assert len(bdd_module.TEMPLATES) == 0 and bdd_module.TEMPLATES.weight == 0


def test_a_build_error_is_not_cached(compiles):
    c = row([(0, 3), (1, 5), (2, 7), (3, 11)], Relation.LE, 12)
    for _ in range(2):
        with pytest.raises(BddBuildError):
            build_bdd(c, state_budget=2, shapes={})
    assert len(compiles) == 2 and len(bdd_module.TEMPLATES) == 0
    b = build_bdd(c, state_budget=3)  # a larger budget succeeds, and is cached
    assert len(bdd_module.TEMPLATES) == 1
    assert fields(b) == fields(fresh_build(c, state_budget=3))


def test_an_unsatisfiable_row_weighs_its_levels():
    # its template has one removed node per level
    b = build_bdd(row([(i, 1) for i in range(3000)], Relation.GE, 3001))
    assert b.is_empty() and len(b.level_nodes) == 3000
    assert bdd_module.TEMPLATES.weight == 3002
