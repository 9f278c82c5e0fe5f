import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bddsolve.model import ILPInstance, LinearConstraint, Relation, write_lp
from bddsolve.testkit import (
    BRUTE_FORCE_CAP,
    _feasible_chunks,
    brute_force_solve,
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)
from reference_algebra import marginals_of_set


def slow_solve(instance):
    """Reference enumeration in plain Python ints/Fractions."""
    best = (None, None)
    for k in range(1 << instance.num_vars):
        values = [(k >> i) & 1 for i in range(instance.num_vars)]
        if not instance.check_assignment(values):
            continue
        val = instance.objective_value(values)
        if best[0] is None or val < best[0]:
            best = (val, tuple(values))
    return best


def test_brute_force_matches_slow_reference():
    rng = random.Random(4201)
    for _ in range(25):
        inst = random_ilp(rng.randint(2, 8), rng.randint(1, 6), seed=rng.randint(0, 10**6))
        want = slow_solve(inst)
        got = brute_force_solve(inst)
        assert got == want


def test_brute_force_exact_fractions():
    inst = ILPInstance(
        ["x", "y"],
        [Fraction(1, 3), Fraction(-1, 2)],
        (LinearConstraint("r", ((0, 1), (1, 1)), Relation.GE, 1),),
        objective_offset=Fraction(7, 6),
    )
    value, assignment = brute_force_solve(inst)
    assert value == Fraction(2, 3) and assignment == (0, 1)


def test_brute_force_infeasible():
    inst = ILPInstance(
        ["x"],
        [Fraction(1)],
        (
            LinearConstraint("lo", ((0, 1),), Relation.GE, 1),
            LinearConstraint("hi", ((0, 1),), Relation.LE, 0),
        ),
    )
    assert brute_force_solve(inst) == (None, None)


def test_brute_force_cap():
    inst = random_ilp(23, 2, seed=1)
    with pytest.raises(ValueError):
        brute_force_solve(inst)


def test_feasible_chunks_match_itertools():
    rng = random.Random(4202)
    for _ in range(15):
        inst = random_ilp(rng.randint(2, 7), rng.randint(1, 5), seed=rng.randint(0, 10**6))
        got = [tuple(b) for _, bits in _feasible_chunks(inst, BRUTE_FORCE_CAP) for b in bits.tolist()]
        want = [
            s
            for s in (
                tuple((k >> i) & 1 for i in range(inst.num_vars))
                for k in range(1 << inst.num_vars)
            )
            if inst.check_assignment(list(s))
        ]
        assert got == want


def test_marginals_of_set_hard_and_smoothed():
    bits = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int8)
    vals = np.array([3.0, 1.0, 2.0])
    assert marginals_of_set(bits, vals) == [(1.0, 2.0), (3.0, 1.0)]
    alpha = 0.7
    smoothed = marginals_of_set(bits, vals, alpha=alpha)
    want00 = -alpha * math.log(math.exp(-3.0 / alpha) + math.exp(-1.0 / alpha))
    assert smoothed[0][0] == pytest.approx(want00)
    assert smoothed[0][1] == pytest.approx(2.0)
    empty_side = marginals_of_set(np.array([[1]], dtype=np.int8), np.array([5.0]))
    assert empty_side == [(math.inf, 5.0)]


# -- generators -------------------------------------------------------------


def test_chain_mrf_shape():
    inst = mrf_instance(1, 3, 2, seed=0)
    assert inst.num_vars == 14
    assert len(inst.constraints) == 13


def test_grid_mrf_shape():
    inst = mrf_instance(2, 2, 2, seed=0)
    assert inst.num_vars == 4 * 2 + 4 * 4
    assert len(inst.constraints) == 4 + 4 + 4 * 4


def test_matching_shape():
    inst = graph_matching_instance(2, seed=0)
    assert inst.num_vars == 8
    assert len(inst.constraints) == 12


def test_generators_deterministic():
    for make in (
        lambda s: random_ilp(6, 4, s),
        lambda s: mrf_instance(1, 3, 2, s),
        lambda s: graph_matching_instance(2, s),
        lambda s: cell_tracking_instance(4, s),
        lambda s: tomography_instance(4, 2, s),
    ):
        assert write_lp(make(11)) == write_lp(make(11))
        assert write_lp(make(11)) != write_lp(make(12))


def test_structured_instances_are_feasible():
    for inst in (
        mrf_instance(1, 3, 2, seed=3),
        graph_matching_instance(2, seed=3),
        tomography_instance(4, 2, seed=3),
    ):
        value, assignment = brute_force_solve(inst)
        assert value is not None
        assert inst.check_assignment(list(assignment))


def test_random_ilp_inequalities_are_satisfiable_and_equalities_may_not_be():
    unsatisfiable = []
    for seed in range(300):
        for row in random_ilp(14, 5, seed).constraints:
            points = product((0, 1), repeat=len(row.terms))
            if not any(row.is_satisfied_by(dict(zip(row.support(), bits))) for bits in points):
                assert row.relation is Relation.EQ, (seed, row)
                unsatisfiable.append((seed, row.name))
    assert (0, "r2") in unsatisfiable and len(unsatisfiable) > 10


def test_tracking_all_zero_feasible():
    inst = cell_tracking_instance(5, seed=9)
    assert inst.check_assignment([0] * inst.num_vars)


def test_tomography_projections_bind():
    inst = tomography_instance(5, 3, seed=2)
    names = [c.name for c in inst.constraints]
    assert any(n.startswith("proj") for n in names)
    # projections mention only nonzero labels
    for c in inst.constraints:
        if c.name.startswith("proj"):
            assert all(a >= 1 for _, a in c.terms)


def test_generators_import_leaves_numpy_out(cli_env):
    # only the oracles need numpy; they import it when called
    code = (
        "import sys; from bddsolve import testkit; testkit.mrf_instance(2, 2, 2, 0);"
        " print('numpy' in sys.modules); testkit.brute_force_solve(testkit.random_ilp(4, 2, 0));"
        " print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
