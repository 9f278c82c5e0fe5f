import math
import random

import pytest

from bddsolve.bdd import FALSE, TRUE, build_bdd
from bddsolve.dual import min_marginals
from bddsolve.model import LinearConstraint, Relation
from bddsolve.primal import _path_counts
from bdd_queries import fresh_trail, solutions
from reference_algebra import (
    COUNTING,
    LOG_PARTITION,
    MIN_MARGINAL,
    MessageStore,
    aggregate_marginals,
    backward_step,
    backward_sweep,
    forward_energy,
    forward_step,
    log_sum_exp,
    marginal_sweep,
    subproblem_energy,
)

INF = math.inf


def row(terms, relation, rhs, name="r"):
    return LinearConstraint(name=name, terms=tuple(terms), relation=relation, rhs=rhs)


def pick_one_of_three():
    return build_bdd(row([(0, 1), (1, 1), (2, 1)], Relation.EQ, 1))


def random_row(rng, max_vars=7):
    n = rng.randint(1, max_vars)
    terms = tuple((i, rng.choice([1, 2, 3, -1, -2])) for i in range(n))
    lo_act = sum(min(0, a) for _, a in terms)
    hi_act = sum(max(0, a) for _, a in terms)
    relation = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
    return row(terms, relation, rng.randint(lo_act, hi_act))


def path_cost(bits, thetas):
    return sum(t for t, b in zip(thetas, bits) if b)


def brute_min_marginals(bdd, thetas):
    sols = solutions(bdd)
    out = []
    for lev in range(bdd.num_levels):
        pair = []
        for val in (0, 1):
            costs = [path_cost(s, thetas) for s in sols if s[lev] == val]
            pair.append(min(costs) if costs else INF)
        out.append(tuple(pair))
    return out


# -- frozen example: exactly-one-of-three, weights (1, 2, 3) ------------------


def test_frozen_example_layout():
    b = pick_one_of_three()
    assert b.level_nodes == ((2,), (3, 4), (5, 6))
    assert (b.lo[2], b.hi[2]) == (3, 4)
    assert (b.lo[3], b.hi[3]) == (5, 6)
    assert (b.lo[4], b.hi[4]) == (6, 0)
    assert (b.lo[5], b.hi[5]) == (0, 1)
    assert (b.lo[6], b.hi[6]) == (1, 0)


def test_frozen_example_backward_values():
    b = pick_one_of_three()
    store = MessageStore(b, MIN_MARGINAL)
    backward_sweep(b, store, [1.0, 2.0, 3.0], MIN_MARGINAL)
    assert [store.bw[v] for v in (5, 6, 3, 4, 2)] == [3.0, 0.0, 2.0, 0.0, 1.0]
    assert subproblem_energy(b, store, MIN_MARGINAL) == 1.0


def test_frozen_example_forward_values_and_marginals():
    b = pick_one_of_three()
    store = MessageStore(b, MIN_MARGINAL)
    marg = marginal_sweep(b, store, [1.0, 2.0, 3.0], MIN_MARGINAL)
    assert store.fw[3] == 0.0 and store.fw[4] == 1.0
    assert store.fw[5] == 0.0 and store.fw[6] == 1.0
    assert marg == [(2.0, 1.0), (1.0, 2.0), (1.0, 3.0)]
    assert forward_energy(b, store, 3.0, MIN_MARGINAL) == 1.0


def test_frozen_example_counting():
    b = pick_one_of_three()
    store = MessageStore(b, COUNTING)
    marg = marginal_sweep(b, store, [0, 0, 0], COUNTING)
    assert marg == [(2, 1), (2, 1), (2, 1)]
    assert subproblem_energy(b, store, COUNTING) == 3


def test_frozen_example_log_partition():
    b = pick_one_of_three()
    store = MessageStore(b, LOG_PARTITION)
    marg = marginal_sweep(b, store, [0.0, 0.0, 0.0], LOG_PARTITION)
    assert marg[0] == pytest.approx((math.log(2), 0.0))
    assert subproblem_energy(b, store, LOG_PARTITION) == pytest.approx(math.log(3))


def test_vacuous_level_marginals():
    b = build_bdd(row([(0, 1)], Relation.LE, 1))
    store = MessageStore(b, MIN_MARGINAL)
    assert marginal_sweep(b, store, [5.0], MIN_MARGINAL) == [(0.0, 5.0)]


def test_sentinel_energies():
    t = build_bdd(row([], Relation.LE, 0))
    f = build_bdd(row([(0, 1)], Relation.GE, 2))
    store_t = MessageStore(t, MIN_MARGINAL)
    store_f = MessageStore(f, MIN_MARGINAL)
    assert subproblem_energy(t, store_t, MIN_MARGINAL) == 0.0
    assert marginal_sweep(f, store_f, [0.0], MIN_MARGINAL) == [(INF, INF)]
    assert subproblem_energy(f, store_f, MIN_MARGINAL) == INF


# -- log_sum_exp ---------------------------------------------------------------


def test_log_sum_exp_identities_and_stability():
    assert log_sum_exp(-INF, 5.0) == 5.0
    assert log_sum_exp(3.0, -INF) == 3.0
    assert log_sum_exp(1000.0, 1000.0) == pytest.approx(1000.0 + math.log(2))
    assert log_sum_exp(-1500.0, -1500.0) == pytest.approx(-1500.0 + math.log(2))
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.uniform(-20, 20), rng.uniform(-20, 20)
        assert log_sum_exp(a, b) == pytest.approx(math.log(math.exp(a) + math.exp(b)))
        assert log_sum_exp(a, b) == log_sum_exp(b, a)


def test_min_sum_distributivity_spot_check():
    rng = random.Random(6)
    for _ in range(100):
        a, b, c = (rng.uniform(-9, 9) for _ in range(3))
        assert a + min(b, c) == pytest.approx(min(a + b, a + c))


# -- oracle comparisons on random rows ------------------------------------------


def test_min_marginals_match_enumeration():
    rng = random.Random(9101)
    for _ in range(100):
        c = random_row(rng)
        b = build_bdd(c)
        if b.is_empty() or b.root == TRUE:
            continue
        thetas = [rng.uniform(-4, 4) for _ in range(b.num_levels)]
        store = MessageStore(b, MIN_MARGINAL)
        got = marginal_sweep(b, store, thetas, MIN_MARGINAL)
        want = brute_min_marginals(b, thetas)
        for g, w in zip(got, want):
            assert g == pytest.approx(w)
        best = min(path_cost(s, thetas) for s in solutions(b))
        assert subproblem_energy(b, store, MIN_MARGINAL) == pytest.approx(best)
        assert forward_energy(b, store, thetas[-1], MIN_MARGINAL) == pytest.approx(best)


def test_counting_marginals_match_enumeration():
    rng = random.Random(9102)
    for _ in range(60):
        c = random_row(rng)
        b = build_bdd(c)
        if b.root < 2:
            continue
        store = MessageStore(b, COUNTING)
        got = marginal_sweep(b, store, [0] * b.num_levels, COUNTING)
        sols = solutions(b)
        for lev, (n0, n1) in enumerate(got):
            assert n0 == sum(1 for s in sols if s[lev] == 0)
            assert n1 == sum(1 for s in sols if s[lev] == 1)
        assert subproblem_energy(b, store, COUNTING) == len(sols)


def test_log_partition_matches_enumeration():
    rng = random.Random(9103)
    for _ in range(60):
        c = random_row(rng)
        b = build_bdd(c)
        if b.root < 2:
            continue
        thetas = [rng.uniform(-3, 3) for _ in range(b.num_levels)]
        store = MessageStore(b, LOG_PARTITION)
        got = marginal_sweep(b, store, thetas, LOG_PARTITION)
        sols = solutions(b)
        for lev, pair in enumerate(got):
            for val in (0, 1):
                terms = [math.exp(path_cost(s, thetas)) for s in sols if s[lev] == val]
                want = math.log(sum(terms)) if terms else -INF
                assert pair[val] == pytest.approx(want, abs=1e-9)


def test_soft_min_sandwiches_the_minimum():
    rng = random.Random(9104)
    alpha = 0.5
    for _ in range(50):
        c = random_row(rng)
        b = build_bdd(c)
        if b.is_empty() or b.root == TRUE:
            continue
        lam = [rng.uniform(-3, 3) for _ in range(b.num_levels)]
        hard_store = MessageStore(b, MIN_MARGINAL)
        backward_sweep(b, hard_store, lam, MIN_MARGINAL)
        hard = subproblem_energy(b, hard_store, MIN_MARGINAL)
        soft_store = MessageStore(b, LOG_PARTITION)
        backward_sweep(b, soft_store, [-t / alpha for t in lam], LOG_PARTITION)
        soft = -alpha * subproblem_energy(b, soft_store, LOG_PARTITION)
        n = len(solutions(b))
        assert soft <= hard + 1e-9
        assert soft >= hard - alpha * math.log(n) - 1e-9


def test_sweeps_track_fixation_and_rollback():
    # fixes pile up under one checkpoint; the dual's kernels, which skip no
    # removed node, must agree with the reference sweeps on every restriction
    rng = random.Random(9105)
    restricted = with_removed = 0
    for _ in range(60):
        c = random_row(rng)
        b = build_bdd(c)
        if b.root < 2 or b.num_levels < 2:
            continue
        thetas = [rng.uniform(-4, 4) for _ in range(b.num_levels)]
        trail = fresh_trail(b)
        token = trail.checkpoint()
        for var in rng.sample(b.support, b.num_levels):
            if not b.fix(var, rng.randint(0, 1)):
                break
            restricted += 1
            with_removed += any(b.lo[v] == FALSE and b.hi[v] == FALSE for v in range(2, len(b.lo)))
            store = MessageStore(b, MIN_MARGINAL)
            got = marginal_sweep(b, store, thetas, MIN_MARGINAL)
            assert got == [pytest.approx(w) for w in brute_min_marginals(b, thetas)]
            assert repr(min_marginals(b, thetas)) == repr(got)
            counts = marginal_sweep(b, MessageStore(b, COUNTING), [0] * b.num_levels, COUNTING)
            assert _path_counts(b) == counts
        trail.rollback(token)
        store = MessageStore(b, MIN_MARGINAL)
        got = marginal_sweep(b, store, thetas, MIN_MARGINAL)
        assert got == [pytest.approx(w) for w in brute_min_marginals(b, thetas)]
        assert b.as_built()  # min_marginals reads the template's level parts again
        assert repr(min_marginals(b, thetas)) == repr(got)
    assert with_removed > 20 and restricted > with_removed


def test_incremental_forward_matches_full_sweep():
    # stepping fw level by level reproduces what a fresh sweep computes
    rng = random.Random(9106)
    for _ in range(40):
        c = random_row(rng)
        b = build_bdd(c)
        if b.root < 2 or b.num_levels < 3:
            continue
        thetas = [rng.uniform(-4, 4) for _ in range(b.num_levels)]
        full = MessageStore(b, MIN_MARGINAL)
        marginal_sweep(b, full, thetas, MIN_MARGINAL)
        step = MessageStore(b, MIN_MARGINAL)
        backward_sweep(b, step, thetas, MIN_MARGINAL)
        step.fw[b.root] = 0.0
        for lev in range(b.num_levels - 1):
            forward_step(b, step, lev, thetas[lev], MIN_MARGINAL)
        assert step.fw == full.fw


def test_backward_step_is_local():
    # recomputing one level after a weight change matches a fresh sweep
    b = pick_one_of_three()
    thetas = [1.0, 2.0, 3.0]
    store = MessageStore(b, MIN_MARGINAL)
    backward_sweep(b, store, thetas, MIN_MARGINAL)
    thetas[1] = -5.0
    backward_step(b, store, 1, thetas[1], MIN_MARGINAL)
    backward_step(b, store, 0, thetas[0], MIN_MARGINAL)
    fresh = MessageStore(b, MIN_MARGINAL)
    backward_sweep(b, fresh, thetas, MIN_MARGINAL)
    assert store.bw == fresh.bw


def test_message_store_reset():
    b = pick_one_of_three()
    store = MessageStore(b, MIN_MARGINAL)
    marginal_sweep(b, store, [1.0, 2.0, 3.0], MIN_MARGINAL)
    store.reset(b, MIN_MARGINAL)
    assert store.fw[b.root] == 0.0
    assert all(v == INF for i, v in enumerate(store.fw) if i != b.root)
    assert store.bw[1] == 0.0 and store.bw[0] == INF
