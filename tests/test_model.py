"""Model layer: LP parsing/serialization, decomposition, presolve, ordering."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bddsolve.model import (
    MAX_COEFFICIENT,
    MAX_RHS,
    Decomposition,
    ILPInstance,
    LinearConstraint,
    LpParseError,
    ModelError,
    Relation,
    decompose,
    order_variables,
    parse_lp,
    presolve_free,
    write_lp,
)
from bddsolve.solver import solve_instance
from bddsolve.testkit import (
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)

SIMPLE = """\
\\ two variables, one covering row
Minimize
 obj: x + 2 y
Subject To
 c1: x + y >= 1
Binary
 x y
End
"""


def test_parse_simple_instance():
    inst = parse_lp(SIMPLE)
    assert inst.var_names == ["x", "y"]
    assert inst.objective == [Fraction(1), Fraction(2)]
    assert len(inst.constraints) == 1
    con = inst.constraints[0]
    assert con.name == "c1"
    assert con.terms == ((0, 1), (1, 1))
    assert con.relation is Relation.GE
    assert con.rhs == 1


def test_parse_equality_row():
    text = "Minimize\n obj: x1 + x3 + x7\nSubject To\n s: x1 + x3 + x7 = 1\nBinary\n x1 x3 x7\nEnd\n"
    inst = parse_lp(text)
    assert inst.constraints[0].relation is Relation.EQ
    assert inst.constraints[0].support() == (0, 1, 2)


def test_parse_without_constraints():
    inst = parse_lp("Minimize\n obj: - x\nBinary\n x\nEnd\n")
    assert inst.objective == [Fraction(-1)]
    assert inst.constraints == []


def test_parse_objective_constant_and_defaults():
    inst = parse_lp("Minimize\n obj: 2 x - 3\nSubject To\n r: 2 x <= 1\nBinary\n x y\nEnd\n")
    assert inst.objective == [Fraction(2), Fraction(0)]
    assert inst.objective_offset == Fraction(-3)
    assert inst.constraints[0].terms == ((0, 2),)


def test_parse_rational_objective():
    inst = parse_lp("Minimize\n obj: 0.5 x + 3/4 y\nBinary\n x y\nEnd\n")
    assert inst.objective == [Fraction(1, 2), Fraction(3, 4)]


def test_parse_negative_rhs_and_coefficients():
    inst = parse_lp("Minimize\n obj: x\nSubject To\n r: -2 x - y >= -2\nBinary\n x y\nEnd\n")
    con = inst.constraints[0]
    assert con.terms == ((0, -2), (1, -1))
    assert con.rhs == -2


@pytest.mark.parametrize(
    "text,needle",
    [
        ("Maximize\n obj: x\nBinary\n x\nEnd\n", "Minimize"),
        ("Minimize\n obj: x + q\nBinary\n x\nEnd\n", "non-binary"),
        ("Minimize\n obj: x\nSubject To\n r: x + x <= 1\nBinary\n x\nEnd\n", "duplicate"),
        ("Minimize\n obj: x\nSubject To\n r: 0.5 x <= 1\nBinary\n x\nEnd\n", "integer"),
        ("Minimize\n obj: x\nSubject To\n r: 1048577 x <= 1\nBinary\n x\nEnd\n", "overflow"),
        ("Minimize\n obj: x\nSubject To\n r: x < 1\nBinary\n x\nEnd\n", "unexpected"),
        ("Minimize\n obj: x\nSubject To\n r: x <= 1\nBinary\n x\n", "End"),
        ("Minimize\n obj: x\nSubject To\n x <= 1\nBinary\n x\nEnd\n", "label"),
        ("Minimize\n obj: x\nSubject To\n r: <= 1\nBinary\n x\nEnd\n", "no terms"),
        ("Minimize\n obj: x\nBinary\n x x\nEnd\n", "duplicate"),
        ("Minimize\n obj: x\nBinary\n x\nEnd\nleftover\n", "after"),
        ("Minimize\n obj: " + "9" * 400 + " x\nBinary\n x\nEnd\n", "overflow"),
        ("Minimize\n obj: x - " + "9" * 400 + "\nBinary\n x\nEnd\n", "overflow"),
        ("Minimize\n obj: 1152921504606846977 x\nBinary\n x\nEnd\n", "overflow"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(LpParseError) as err:
        parse_lp(text)
    assert needle.lower() in str(err.value).lower()


def test_parse_error_reports_location():
    with pytest.raises(LpParseError) as err:
        parse_lp("Minimize\n obj: x\nSubject To\n r: x ? 1\nBinary\n x\nEnd\n")
    assert err.value.line == 4
    assert err.value.column > 1
    huge = "9" * 20
    with pytest.raises(LpParseError) as err:
        parse_lp(f"\\ huge cost\nMinimize\n obj: x + {huge} y\nBinary\n x y\nEnd\n")
    assert err.value.line == 3
    assert err.value.column == len(f"obj: x + {huge} ") + 1


def _random_instance(rng, n_vars=6, n_cons=4):
    names = [f"v{k}" for k in range(n_vars)]
    objective = [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 4])) for _ in range(n_vars)]
    cons = []
    for j in range(n_cons):
        size = rng.randint(1, n_vars)
        support = rng.sample(range(n_vars), size)
        terms = tuple((i, rng.choice([-3, -2, -1, 1, 2, 3])) for i in sorted(support))
        rel = rng.choice(list(Relation))
        rhs = rng.randint(-4, 4)
        cons.append(LinearConstraint(f"c{j}", terms, rel, rhs))
    offset = Fraction(rng.randint(-3, 3))
    return ILPInstance(names, objective, cons, offset)


def test_write_parse_round_trip_random():
    rng = random.Random(20240817)
    generated = [
        random_ilp(8, 4, seed=5),
        mrf_instance(2, 2, 3, seed=5),
        graph_matching_instance(2, seed=5),
        cell_tracking_instance(4, seed=5),
        tomography_instance(4, 2, seed=5),
    ]
    for inst in [_random_instance(rng) for _ in range(50)] + generated:
        text = write_lp(inst)
        back = parse_lp(text)
        back.validate()  # `parse_lp` does not run it again
        assert back.var_names == inst.var_names
        assert back.objective == inst.objective
        assert back.objective_offset == inst.objective_offset
        assert list(back.constraints) == list(inst.constraints)  # generators keep a tuple
        assert write_lp(back) == text
        # integers parse as int, but the objective stays exact rationals
        assert all(type(c) is Fraction for c in back.objective)
        assert type(back.objective_offset) is Fraction
        for row in back.constraints:
            assert type(row.rhs) is int
            assert all(type(i) is int and type(a) is int for i, a in row.terms)


def test_write_rejects_a_row_with_no_terms():
    # the format writes a row as its terms, so an empty one cannot be read back
    inst = ILPInstance(["x"], [Fraction(1)], [LinearConstraint("r0", (), Relation.GE, 0)])
    with pytest.raises(ModelError, match="'r0' has no terms"):
        write_lp(inst)


def test_write_round_trips_thirds():
    inst = ILPInstance(["x"], [Fraction(1, 3)], [])
    back = parse_lp(write_lp(inst))
    assert back.objective == [Fraction(1, 3)]


def test_write_uses_decimals_for_denominators_of_twos_and_fives():
    inst = ILPInstance(["x", "y", "z"], [Fraction(1, 5), Fraction(7, 40), Fraction(-12, 5)], [],
                       objective_offset=Fraction(-1, 5))
    text = write_lp(inst)
    assert " obj: 0.2 x + 0.175 y - 2.4 z - 0.2\n" in text
    back = parse_lp(text)
    assert back.objective == inst.objective and back.objective_offset == inst.objective_offset


def test_instance_validation_rejects_bad_rows():
    with pytest.raises(ModelError):
        ILPInstance(["x"], [Fraction(1)], [LinearConstraint("c", ((0, 0),), Relation.LE, 1)])
    with pytest.raises(ModelError):
        ILPInstance(["x"], [Fraction(1)], [LinearConstraint("c", ((1, 1),), Relation.LE, 1)])
    with pytest.raises(ModelError):
        ILPInstance(["x", "x"], [Fraction(1), Fraction(1)], [])
    with pytest.raises(ModelError):
        ILPInstance(["x"], [Fraction(-(1 << 60) - 1)], [])
    with pytest.raises(ModelError):
        ILPInstance(["x"], [Fraction(1)], [], objective_offset=Fraction(10**400))
    ILPInstance(["x"], [Fraction(-(1 << 60))], [], objective_offset=Fraction(1 << 60))


def _row(name, terms, rhs=1):
    return LinearConstraint(name, terms, Relation.LE, rhs)


# (case, ILPInstance arguments, message of the first fault), recorded from the per-item checks
VALIDATION_FAULTS = [
    ("objective length", (["x", "y"], [Fraction(1)], []), "objective length does not match variable count"),
    ("repeated name", (["x", "x"], [Fraction(1)] * 2, []), "duplicate variable name"),
    ("name with a space", (["x", "a b"], [Fraction(1)] * 2, []), "invalid variable name 'a b'"),
    ("empty name", (["x", ""], [Fraction(1)] * 2, []), "invalid variable name ''"),
    ("name ending in a newline", (["x\n"], [Fraction(1)], []), "invalid variable name 'x\\n'"),
    ("objective overflow", (["x", "y"], [Fraction(1), Fraction(-(1 << 60) - 1)], []),
     "objective coefficient overflow for variable 'y'"),
    ("first of two invalid names", (["x", "a b", "c d"], [Fraction(1)] * 3, []), "invalid variable name 'a b'"),
    ("first of two objective overflows", (["x", "y", "z"], [Fraction(1), Fraction(1 << 61), Fraction(-(1 << 62))], []),
     "objective coefficient overflow for variable 'y'"),
    ("invalid name before an objective overflow", (["x", "a b"], [Fraction(1 << 61), Fraction(1)], []),
     "invalid variable name 'a b'"),
    ("offset overflow", (["x"], [Fraction(1)], [], Fraction(1 << 61)), "objective constant overflow"),
    ("repeated row name", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1),)), _row("c", ((1, 1),))]),
     "duplicate constraint name 'c'"),
    ("unknown index", (["x"], [Fraction(1)], [_row("c", ((0, 1), (1, 1)))]),
     "constraint 'c' references unknown variable index 1"),
    ("negative index", (["x"], [Fraction(1)], [_row("c", ((-1, 1),))]),
     "constraint 'c' references unknown variable index -1"),
    ("repeated variable", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1), (1, 1), (0, 2)))]),
     "duplicate variable in constraint 'c'"),
    ("zero coefficient", (["x"], [Fraction(1)], [_row("c", ((0, 0),))]), "zero coefficient in constraint 'c'"),
    ("coefficient overflow", (["x"], [Fraction(1)], [_row("c", ((0, -(1 << 20) - 1),))]),
     "coefficient overflow in constraint 'c'"),
    ("rhs overflow", (["x"], [Fraction(1)], [_row("c", ((0, 1),), -(1 << 40) - 1)]),
     "right-hand side overflow in constraint 'c'"),
    ("first of two faulty rows", (["x", "y"], [Fraction(1)] * 2, [_row("a", ((0, 1), (0, 1))), _row("b", ((5, 1),))]),
     "duplicate variable in constraint 'a'"),
    ("rhs fault before a later row's", (["x"], [Fraction(1)], [_row("a", ((0, 1),), 1 << 41), _row("b", ((0, 0),))]),
     "right-hand side overflow in constraint 'a'"),
    ("row fault before a repeated name", (["x"], [Fraction(1)], [_row("a", ((0, 0),)), _row("a", ((0, 1),))]),
     "zero coefficient in constraint 'a'"),
    ("fractional coefficient", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, Fraction(1, 2)), (1, 1)))]),
     "non-integer coefficient in constraint 'c'"),
    ("float coefficient", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1), (1, 0.5)))]),
     "non-integer coefficient in constraint 'c'"),
    ("nan coefficient", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, math.nan), (1, 1)))]),
     "non-integer coefficient in constraint 'c'"),
    ("fractional rhs", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1), (1, 1)), Fraction(1, 2))]),
     "non-integer right-hand side in constraint 'c'"),
    ("float rhs", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1), (1, 1)), 0.5)]),
     "non-integer right-hand side in constraint 'c'"),
    ("nan rhs", (["x", "y"], [Fraction(1)] * 2, [_row("c", ((0, 1), (1, 1)), math.nan)]),
     "non-integer right-hand side in constraint 'c'"),
    ("infinite coefficient", (["x"], [Fraction(1)], [_row("c", ((0, math.inf),))]),
     "coefficient overflow in constraint 'c'"),
    ("fractional coefficient before a later row's", (["x"], [Fraction(1)],
                                                     [_row("a", ((0, 1.5),)), _row("b", ((0, 0),))]),
     "non-integer coefficient in constraint 'a'"),
]


@pytest.mark.parametrize("args,message", [c[1:] for c in VALIDATION_FAULTS], ids=[c[0] for c in VALIDATION_FAULTS])
def test_instance_validation_names_the_first_fault(args, message):
    with pytest.raises(ModelError) as err:
        ILPInstance(*args)
    assert str(err.value) == message


def test_integral_row_values_of_other_types_are_accepted_and_solve():
    rows = [LinearConstraint("c", ((0, 1.0), (1, Fraction(2))), Relation.LE, True)]
    report = solve_instance(ILPInstance(["x", "y"], [Fraction(-1)] * 2, rows))
    assert (report.status, report.solution) == ("solved", [1, 0])


def test_instance_keeps_its_own_objective_list():
    given = [Fraction(1), 2]
    inst = ILPInstance(["x", "y"], given, [])
    assert inst.objective == [Fraction(1), Fraction(2)] and all(type(c) is Fraction for c in inst.objective)
    given[0] = Fraction(5)
    assert inst.objective[0] == 1


def test_name_to_index_follows_renames_and_additions():
    inst = ILPInstance(["a", "b"], [0, 0], [])
    assert inst.name_to_index == {"a": 0, "b": 1}
    inst.var_names[0] = "c"  # same length: a cache checked by length would still map "a"
    assert inst.name_to_index == {"c": 0, "b": 1}
    inst.var_names.append("d")
    inst.objective.append(Fraction(0))
    assert inst.name_to_index == {"c": 0, "b": 1, "d": 2}


def test_check_assignment_and_objective():
    inst = parse_lp(SIMPLE)
    assert inst.check_assignment([1, 0])
    assert not inst.check_assignment([0, 0])
    assert inst.objective_value([1, 1]) == Fraction(3)


COSTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=12),
    st.integers(-10**6, 10**6).map(Fraction),
)


@st.composite
def recheck_cases(draw):
    """An instance of random rows and costs, with a 0/1 vector of its length."""
    n = draw(st.integers(0, 12))
    values = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    rows = []
    for k in range(draw(st.integers(0, 6)) if n else 0):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = draw(st.lists(st.integers(-MAX_COEFFICIENT, MAX_COEFFICIENT).filter(bool),
                               min_size=len(support), max_size=len(support)))
        terms = tuple(zip(support, coeffs))
        lhs = sum(a * values[i] for i, a in terms)
        # right-hand sides at the caps, anywhere between, and next to the vector's sum
        rhs = draw(st.one_of(st.sampled_from([-MAX_RHS, MAX_RHS]), st.integers(-MAX_RHS, MAX_RHS),
                             st.integers(lhs - 1, lhs + 1)))
        rows.append(LinearConstraint(f"r{k}", terms, draw(st.sampled_from(Relation)), rhs))
    objective = draw(st.lists(COSTS, min_size=n, max_size=n))
    instance = ILPInstance([f"x{i}" for i in range(n)], objective, rows, objective_offset=draw(COSTS))
    return instance, values


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(recheck_cases())
@example((ILPInstance([], [], [], objective_offset=Fraction(-7, 3)), []))
@example((ILPInstance(["a", "b", "c"], [Fraction(5, 6), Fraction(-7, 4), Fraction(0)],
                      [LinearConstraint("r", ((0, -3), (2, 2)), Relation.GE, -MAX_RHS)],
                      objective_offset=Fraction(1, 9)), [0, 0, 0]))
def test_recheck_and_recost_follow_their_definitions(case):
    instance, values = case
    holds = []
    for con in instance.constraints:
        lhs = sum(a * values[i] for i, a in con.terms)
        expected = {Relation.LE: lhs <= con.rhs, Relation.GE: lhs >= con.rhs, Relation.EQ: lhs == con.rhs}
        holds.append(expected[con.relation])
        assert con.is_satisfied_by(values) is holds[-1]
    assert instance.check_assignment(values) is all(holds)
    for wrong in (values + [0], values[:-1]):
        if len(wrong) != len(values):
            with pytest.raises(ModelError, match="assignment length mismatch"):
                instance.check_assignment(wrong)
    got = instance.objective_value(values)
    expected = sum((c * v for c, v in zip(instance.objective, values)), Fraction(0)) + instance.objective_offset
    assert type(got) is Fraction and got == expected and str(got) == str(expected)


def test_decompose_incidence_is_inverse():
    rng = random.Random(7)
    for _ in range(25):
        inst = _random_instance(rng)
        dec = decompose(inst)
        for j, sup in enumerate(dec.subproblem_vars):
            assert sup == tuple(sorted(inst.constraints[j].support()))
            for i in sup:
                assert j in dec.var_subproblems[i]
        for i, js in enumerate(dec.var_subproblems):
            for j in js:
                assert i in dec.subproblem_vars[j]


def test_decompose_sorts_support_by_order():
    inst = parse_lp(
        "Minimize\n obj: a + b + c\nSubject To\n r: a + b + c <= 2\nBinary\n a b c\nEnd\n"
    )
    dec = decompose(inst, order=[2, 0, 1])
    assert dec.subproblem_vars[0] == (2, 0, 1)
    assert dec.order == (2, 0, 1)


@pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
def test_decompose_rejects_an_order_that_is_not_a_permutation(order):
    inst = ILPInstance(["a", "b", "c"], [Fraction(1)] * 3, [])
    with pytest.raises(ModelError, match="not a permutation"):
        decompose(inst, order)


def test_presolve_free_examples():
    inst = ILPInstance(["a", "b", "c"], [Fraction(-2), Fraction(0), Fraction(3)], [])
    dec = decompose(inst)
    fixes, gain = presolve_free(inst, dec)
    assert fixes == {0: 1, 1: 0, 2: 0}
    assert gain == Fraction(-2)


def test_presolve_free_none_when_all_covered():
    inst = parse_lp(SIMPLE)
    dec = decompose(inst)
    fixes, gain = presolve_free(inst, dec)
    assert fixes == {}
    assert gain == 0


def test_order_input_is_identity():
    inst = parse_lp(SIMPLE)
    assert order_variables(inst, "input") == [0, 1]


def test_order_variables_rejects_an_unknown_strategy():
    with pytest.raises(ModelError, match="unknown ordering strategy 'reverse'"):
        order_variables(parse_lp(SIMPLE), "reverse")


def test_cuthill_mckee_path_bandwidth():
    # adjacency x2-x1, x1-x3 via two rows; the reordering has bandwidth 1
    text = (
        "Minimize\n obj: x1 + x2 + x3\nSubject To\n"
        " r1: x2 + x1 <= 1\n r2: x1 + x3 <= 1\nBinary\n x1 x2 x3\nEnd\n"
    )
    inst = parse_lp(text)
    order = order_variables(inst, "cuthill_mckee")
    assert order == [1, 0, 2]
    pos = {v: k for k, v in enumerate(order)}
    bandwidth = max(abs(pos[0] - pos[1]), abs(pos[0] - pos[2]))
    assert bandwidth == 1


def test_cuthill_mckee_keeps_isolated_variables():
    text = (
        "Minimize\n obj: a + b + z\nSubject To\n r: a + b <= 1\nBinary\n a b z\nEnd\n"
    )
    inst = parse_lp(text)
    order = order_variables(inst, "cuthill_mckee")
    assert sorted(order) == [0, 1, 2]
    assert 2 in order


def test_cuthill_mckee_is_permutation_on_random_instances():
    rng = random.Random(99)
    for _ in range(20):
        inst = _random_instance(rng, n_vars=8, n_cons=5)
        order = order_variables(inst, "cuthill_mckee")
        assert sorted(order) == list(range(8))
