"""LP parsing: every error keeps its line, column and message; the scanner reads only row skeletons of well-formed text.

The token scanner (`_tokenize` / `_parse_terms`) is the row grammar: it
reads each distinct row skeleton (a row with every name read as `x`) once,
and re-reads a line only when it failed, to locate its fault.  The
objective and Binary lines are read by patterns that accept exactly what
the scanner accepts.  The error table below was recorded from the parser
that scanned every line; only the duplicate-row-name location differs (it
used to read line 1, column 1).
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from bddsolve import model
from bddsolve.model import MAX_COEFFICIENT, LpParseError, Relation, parse_lp, write_lp
from bddsolve.testkit import (
    cell_tracking_instance,
    graph_matching_instance,
    mrf_instance,
    random_ilp,
    tomography_instance,
)


def _rows(*rows):
    return "Minimize\n obj: x + y\nSubject To\n" + "".join(f" {r}\n" for r in rows) + "Binary\n x y\nEnd\n"


def _binary(*lines):
    return "Minimize\n obj: x\nBinary\n" + "".join(f"{ln}\n" for ln in lines)


_LONG = "9" * 5000

# (case, text, line, column, message)
PARSE_ERRORS = [
    # sections
    ("empty text", "", 1, 1, "expected 'Minimize'"),
    ("comment only", "\\ only a comment\n", 1, 1, "expected 'Minimize'"),
    ("not Minimize", "Maximize\n obj: x\nBinary\n x\nEnd\n", 1, 1, "expected 'Minimize'"),
    ("missing objective", "Minimize\n", 1, 1, "missing objective line"),
    ("missing objective after comment", "Minimize\n\\ c\n", 2, 1, "missing objective line"),
    ("end of text in Subject To", "Minimize\n obj: x\nSubject To\n", 3, 1, "missing 'Binary' section"),
    ("End instead of Binary", "Minimize\n obj: x\nEnd\n", 3, 1, "expected 'Binary'"),
    ("end of text after objective", "Minimize\n obj: x\n", 2, 1, "expected 'Binary'"),
    # objective line
    ("objective without colon", "Minimize\n obj x\nBinary\n x\nEnd\n", 2, 1, "expected 'name:' label"),
    ("objective without label", "Minimize\n : x\nBinary\n x\nEnd\n", 2, 1, "expected 'name:' label"),
    ("objective bad character", "Minimize\n obj: x ? y\nBinary\n x y\nEnd\n", 2, 8, "unexpected character '?'"),
    ("objective missing operator", "Minimize\n obj: x y\nBinary\n x y\nEnd\n", 2, 8,
     "expected '+' or '-' between terms"),
    ("objective dangling sign", "Minimize\n obj: x +\nBinary\n x\nEnd\n", 2, 2, "expected a term"),
    ("objective sign then colon", "Minimize\n obj: x + : y\nBinary\n x y\nEnd\n", 2, 10, "expected a term"),
    ("objective relation", "Minimize\n obj: x <= 1\nBinary\n x\nEnd\n", 2, 8, "trailing tokens after objective"),
    ("objective zero denominator", "Minimize\n obj: 1/0 x\nBinary\n x\nEnd\n", 2, 6, "bad number '1/0'"),
    ("objective decimal fraction", "Minimize\n obj: 1.5/2 x\nBinary\n x\nEnd\n", 2, 6, "bad number '1.5/2'"),
    ("objective non-binary", "Minimize\n obj: x + q\nBinary\n x\nEnd\n", 2, 10, "non-binary variable 'q'"),
    ("objective duplicate", "Minimize\n obj: x + 2 x\nBinary\n x\nEnd\n", 2, 12,
     "duplicate variable 'x' in objective"),
    ("objective coefficient overflow", "Minimize\n obj: x + 1152921504606846977 y\nBinary\n x y\nEnd\n", 2, 30,
     "objective coefficient overflow"),
    ("objective coefficient too long", f"Minimize\n obj: x + {_LONG} y\nBinary\n x y\nEnd\n", 2, 10,
     "number too long (5000 characters)"),
    ("objective constant overflow", "Minimize\n obj: x + 1152921504606846976 + 1\nBinary\n x\nEnd\n", 2, 1,
     "objective constant overflow"),
    # constraint rows
    ("row bad character", _rows("c: x + y ? 1"), 4, 10, "unexpected character '?'"),
    ("row without label", _rows("x + y <= 1"), 4, 1, "expected 'name:' label"),
    ("row without colon", _rows("c x + y <= 1"), 4, 1, "expected 'name:' label"),
    ("row without terms", _rows("c: <= 1"), 4, 1, "constraint 'c' has no terms"),
    ("row label only", _rows("c:"), 4, 1, "constraint 'c' has no terms"),
    ("row missing operator", _rows("c: x y <= 1"), 4, 6, "expected '+' or '-' between terms"),
    ("row dangling sign", _rows("c: x + <= 1"), 4, 8, "expected a term"),
    ("row dangling sign at end", _rows("c: x +"), 4, 2, "expected a term"),
    ("row constant", _rows("c: x + 3 <= 1"), 4, 8, "constant term not allowed here"),
    ("row constant only", _rows("c: 3 <= 1"), 4, 4, "constant term not allowed here"),
    ("row missing relation", _rows("c: x + y"), 4, 8, "expected '<=', '>=' or '='"),
    ("row colon for relation", _rows("c: x + y : 1"), 4, 10, "expected '+' or '-' between terms"),
    ("row missing rhs", _rows("c: x + y <="), 4, 10, "expected right-hand side"),
    ("row sign without rhs", _rows("c: x + y <= -"), 4, 13, "expected right-hand side"),
    ("row name as rhs", _rows("c: x + y <= y"), 4, 10, "expected right-hand side"),
    ("row fractional rhs", _rows("c: x + y <= 1/2"), 4, 13, "right-hand side must be an integer"),
    ("row zero-denominator rhs", _rows("c: x + y <= 1/0"), 4, 13, "bad number '1/0'"),
    ("row trailing tokens", _rows("c: x + y <= 1 + x"), 4, 15, "trailing tokens after constraint"),
    ("row two right-hand sides", _rows("c: x + y <= 1 2"), 4, 15, "trailing tokens after constraint"),
    ("row zero-denominator coefficient", _rows("c: 1/0 x + y <= 1"), 4, 4, "bad number '1/0'"),
    ("row decimal fraction coefficient", _rows("c: 0.5/2 x + y <= 1"), 4, 4, "bad number '0.5/2'"),
    ("row non-binary", _rows("c: x + q <= 1"), 4, 8, "non-binary variable 'q'"),
    ("row duplicate variable", _rows("c: x + y - x <= 1"), 4, 12, "duplicate variable 'x' in constraint"),
    ("row fractional coefficient", _rows("c: x + 0.5 y <= 1"), 4, 12, "constraint coefficients must be integers"),
    ("row zero coefficient", _rows("c: x - 0 y <= 1"), 4, 10, "zero coefficient"),
    ("row coefficient overflow", _rows("c: x + 1048577 y <= 1"), 4, 16, "integer overflow in coefficient"),
    ("row negative coefficient overflow", _rows("c: x - 1048577 y <= 1"), 4, 16,
     "integer overflow in coefficient"),
    ("row rhs overflow", _rows("c: x + y <= 1099511627777"), 4, 1, "integer overflow in right-hand side"),
    ("row negative rhs overflow", _rows("c: x + y >= -1099511627777"), 4, 1,
     "integer overflow in right-hand side"),
    # a number past Python's int() digit limit is too long for every cap
    ("row coefficient too long", _rows(f"c: x + {_LONG} y <= 1"), 4, 8, "number too long (5000 characters)"),
    ("row rhs too long", _rows(f"c: x + y <= {_LONG}"), 4, 13, "number too long (5000 characters)"),
    # which fault is reported first
    ("layout fault after a variable fault", _rows("a: x + q <= 1", "b: x + y <= ?"), 5, 13,
     "unexpected character '?'"),
    ("bad number after a fractional coefficient", _rows("a: x + 0.5 y <= 1", "b: 1/0 x <= 1"), 5, 4,
     "bad number '1/0'"),
    ("Binary fault after a variable fault", _rows("a: x + q <= 1").replace(" x y\n", " x y 3\n"), 6, 5,
     "expected variable name"),
    ("variable fault after a repeated row name", _rows("a: x + y <= 1", "a: x + q <= 1"), 5, 8,
     "non-binary variable 'q'"),
    ("objective fault before a row fault",
     "Minimize\n obj: x + q\nSubject To\n a: x + z <= 1\nBinary\n x y\nEnd\n", 2, 10, "non-binary variable 'q'"),
    ("content after End before an objective fault",
     "Minimize\n obj: x + q\nSubject To\n a: x + y <= 1\nBinary\n x y\nEnd\nextra\n", 8, 1, "content after 'End'"),
    # Binary and End
    ("Binary number", _binary(" x 3", "End"), 4, 3, "expected variable name"),
    ("Binary operator", _binary(" x + y", "End"), 4, 3, "expected variable name"),
    ("Binary bad character", _binary(" x ?", "End"), 4, 3, "unexpected character '?'"),
    ("Binary duplicate on one line", _binary(" x y x", "End"), 4, 5, "duplicate variable 'x'"),
    ("Binary duplicate on the next line", _binary(" x y", " z y", "End"), 5, 3, "duplicate variable 'y'"),
    ("missing End", _binary(" x"), 4, 1, "missing 'End'"),
    ("content after End", _binary(" x", "End", "leftover"), 6, 1, "content after 'End'"),
    ("second End", _binary(" x", "End", "\\ comment", "", " End"), 8, 1, "content after 'End'"),
]


@pytest.mark.parametrize("text,line,column,message", [c[1:] for c in PARSE_ERRORS], ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_location_and_message(text, line, column, message):
    for _ in range(2):  # the second parse reads its skeletons from the process cache
        with pytest.raises(LpParseError) as err:
            parse_lp(text)
        assert (err.value.line, err.value.column, str(err.value)) == (line, column, f"line {line}, column {column}: {message}")


def test_repeated_row_name_is_reported_at_its_label():
    text = "Minimize\n obj: x + y\nSubject To\n c: x + y <= 1\n c: x - y >= 0\nBinary\n x y\nEnd\n"
    with pytest.raises(LpParseError) as err:
        parse_lp(text)
    assert (err.value.line, err.value.column) == (5, 1)
    assert str(err.value) == "line 5, column 1: duplicate constraint name 'c'"
    with pytest.raises(LpParseError) as err:
        parse_lp(_rows("c: x + y <= 1", "d: x - y >= 0", "\tc: x <= 1"))
    assert (err.value.line, err.value.column) == (6, 1)


# (case, text, objective, offset, rows as (name, terms, relation, rhs))
ACCEPTED = [
    ("integral fraction and decimal", "Minimize\n obj: x + 4/2 y\nSubject To\n c: 4/2 y + x <= 1.0\nBinary\n x y\nEnd\n",
     [1, 2], 0, [("c", ((1, 2), (0, 1)), Relation.LE, 1)]),
    ("leading minus", "Minimize\n obj: - 5 x + y\nSubject To\n c: - 5 x + y >= - 3\nBinary\n x y\nEnd\n",
     [-5, 1], 0, [("c", ((0, -5), (1, 1)), Relation.GE, -3)]),
    ("signed right-hand sides", "Minimize\n obj: x\nSubject To\n c: x + y <= +1\n d: -x -y>=-2\nBinary\n x y\nEnd\n",
     [1, 0], 0, [("c", ((0, 1), (1, 1)), Relation.LE, 1), ("d", ((0, -1), (1, -1)), Relation.GE, -2)]),
    ("no spaces", "Minimize\n obj: 2x+3y - 1.25\nSubject To\n c: 2x+3y<=4\nBinary\n x y\nEnd\n",
     [2, 3], Fraction(-5, 4), [("c", ((0, 2), (1, 3)), Relation.LE, 4)]),
    ("hyphenated names and inner constants",
     "Minimize\n obj: 3 - x-y + 2 - 1/3 x-y.z + 0.5\nSubject To\n c:x-y + x-y.z = 1\nBinary\n x-y x-y.z\nEnd\n",
     [-1, Fraction(-1, 3)], Fraction(11, 2), [("c", ((0, 1), (1, 1)), Relation.EQ, 1)]),
    ("empty objective", "Minimize\n obj:\nBinary\n x\nEnd\n", [0], 0, []),
    ("constant objective", "Minimize\n obj: 7\nBinary\n x\nEnd\n", [0], 7, []),
    ("at the caps",
     "Minimize\n obj: - 1152921504606846976 x + 1152921504606846977/2 y\nSubject To\n"
     " c: 1048576 x - 1048576 y = 1099511627776\nBinary\n x y\nEnd\n",
     [-(1 << 60), Fraction((1 << 60) + 1, 2)], 0, [("c", ((0, 1 << 20), (1, -(1 << 20))), Relation.EQ, 1 << 40)]),
    ("tabs, comments and an empty section",
     "\\ c\n\nMinimize\n\tobj:\tx\t+\ty\nSubject To\nBinary\n x\ty\n\\ c\nEnd\n\n", [1, 1], 0, []),
]


@pytest.mark.parametrize("text,objective,offset,rows", [c[1:] for c in ACCEPTED], ids=[c[0] for c in ACCEPTED])
def test_grammar_accepts(text, objective, offset, rows):
    inst = parse_lp(text)
    assert inst.objective == objective and all(type(c) is Fraction for c in inst.objective)
    assert inst.objective_offset == offset and type(inst.objective_offset) is Fraction
    assert [(r.name, r.terms, r.relation, r.rhs) for r in inst.constraints] == rows
    for r in inst.constraints:
        assert type(r.rhs) is int and all(type(i) is int and type(a) is int for i, a in r.terms)


@pytest.fixture(scope="module")
def generated_texts():
    instances = [
        mrf_instance(30, 30, 2, seed=0),
        graph_matching_instance(8, seed=0),
        tomography_instance(50, 4, seed=0),
        cell_tracking_instance(6, seed=0),
        random_ilp(14, 5, seed=0),
    ]
    return [(inst, write_lp(inst)) for inst in instances]


def test_generator_texts_parse_to_the_written_instance(generated_texts):
    for inst, text in generated_texts:
        back = parse_lp(text)
        back.validate()  # `parse_lp` does not run it again
        assert repr(back.var_names) == repr(inst.var_names)
        assert repr(back.objective) == repr(inst.objective)
        assert repr(back.objective_offset) == repr(inst.objective_offset)
        assert repr(back.constraints) == repr(list(inst.constraints))  # generators keep a tuple
        assert all(type(c) is Fraction for c in back.objective)
        for row in back.constraints:
            assert type(row.rhs) is int
            assert all(type(i) is int and type(a) is int for i, a in row.terms)


def test_skeletons_served_across_instances_equal_fresh_readings(generated_texts, monkeypatch):
    texts = [text for _, text in generated_texts]
    texts += [write_lp(maker(seed)) for seed in range(40)
              for maker in (lambda s: random_ilp(14, 5, s), lambda s: mrf_instance(1, 3, 2, s))]
    reads = []
    row_shape = model._row_shape
    monkeypatch.setattr(model, "_row_shape", lambda skeleton: reads.append(skeleton) or row_shape(skeleton))
    cold = []
    for text in texts:
        model.SKELETONS.clear()
        cold.append(repr(vars(parse_lp(text))))
    cold_reads = len(reads)
    del reads[:]
    cache = model.SKELETONS
    for text, want in zip(texts, cold):
        assert repr(vars(parse_lp(text))) == want
        assert cache.weight <= cache.budget == model.SKELETON_CACHE_CHARS
    assert len(reads) < cold_reads  # later instances were served skeletons earlier ones read
    for skeleton, (reading, weight) in cache._entries.items():
        assert reading == row_shape(skeleton) and weight == len("".join(skeleton))


def test_a_skeleton_weighs_its_characters():
    # blanks between terms are kept in the skeleton, so they count against the budget
    parse_lp(_rows("c: x +" + " " * 5000 + "y <= 1"))
    assert model.SKELETONS.weight == len(": " + " +" + " " * 5000 + " <= 1")


def test_a_malformed_skeleton_raises_at_each_instance_own_line():
    weight = model.SKELETONS.weight
    with pytest.raises(LpParseError, match="line 4, column 10: unexpected character"):
        parse_lp(_rows("c: x + y ? 1"))
    assert None not in [reading for reading, _ in model.SKELETONS._entries.values()]
    assert model.SKELETONS.weight == weight
    text = "Minimize\n obj: a\nSubject To\n ok: a + b <= 1\n long_name: a + bb ? 1\nBinary\n a b bb\nEnd\n"
    with pytest.raises(LpParseError) as err:
        parse_lp(text)
    assert str(err.value) == "line 5, column 19: unexpected character '?'"


def _skeleton_text(row):
    return "x".join(model._NAME_SPLIT_RE.split(row)[::2])


def test_the_scanner_reads_only_row_skeletons_of_well_formed_text(generated_texts, monkeypatch):
    scanned = []
    tokenize = model._tokenize
    monkeypatch.setattr(model, "_tokenize", lambda line, lineno: scanned.append(line) or tokenize(line, lineno))
    texts = [text for _, text in generated_texts] + [text for _, text, *_ in ACCEPTED]
    for text in texts:
        rows = text.partition("Subject To\n")[2].partition("Binary\n")[0].splitlines()
        model.SKELETONS.clear()
        del scanned[:]
        parse_lp(text)
        # each distinct skeleton once, names read as `x`; no objective or Binary line
        assert sorted(scanned) == sorted({_skeleton_text(row.strip()) for row in rows})
        del scanned[:]
        parse_lp(text)
        assert scanned == []  # every skeleton now comes from `SKELETONS`
    with pytest.raises(LpParseError):
        parse_lp(_rows("c: x + y ? 1"))
    assert scanned == ["x: x + x ? 1", "c: x + y ? 1"]  # a malformed skeleton, then its row to locate the fault


def test_a_long_objective_line_is_read_in_little_memory():
    line = "obj: " + " + ".join(f"{k % 7 + 1} v{k}" for k in range(8000)) + " - 3"
    tracemalloc.start()
    try:
        names, coeffs, constant, _ = model._read_objective(line, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(names) == 8000 and coeffs[-1] == 7999 % 7 + 1 and constant == -3
    # about 3 MB, mostly the terms read; one fullmatch of a repeated term pattern
    # over this line held 9 MB of backtracking stack, and freeing it raised the
    # C allocator's mmap threshold, so later solves kept a larger heap
    assert peak < 5e6


_TOKENS = ["x", "y", "x-y", "x-2", "y-", "y.z", "_q", "c", "e5", "x1", "2x", "1", "0", "2", "12", "1048577", "1.0", "0.5",
           "4/2", "1/0", "1.5/2", "1.", "3.5x", "99999999999999999999", "+", "-", "<=", ">=", "=", ":", "?", ".",
           "/", "<"]


def _random_line(rng):
    separators = ("", " ", " ", "\t", "\x0b")  # a vertical tab is whitespace to str.split, not to the scanner
    return "".join(rng.choice(_TOKENS) + rng.choice(separators) for _ in range(rng.randint(1, 9))).strip()


def _random_row(rng):
    def term(first):
        sign = "" if first and rng.random() < 0.5 else rng.choice(("+", "-", "+ ", "- "))
        coeff = rng.choice(("", "", "2", "3 ", "0 ", "4/2 ", "1.0", "0.5 ", "1048577 ", "1/0 "))
        return sign + coeff + rng.choice(("x", "y", "x-y", "q"))

    terms = " ".join(term(k == 0) for k in range(rng.randint(1, 4)))
    rhs = rng.choice(("1", "-2", "+ 3", "1.0", "4/2", "1/2", "1/0", "1099511627777"))
    return f"c: {terms} {rng.choice(('<=', '>=', '='))} {rhs}"


def _scan(scan, *args):
    try:
        return scan(*args), None
    except LpParseError as exc:
        return None, str(exc)


def test_line_readers_accept_exactly_what_the_scanner_accepts():
    """Per line: a skeleton reads as its row, and the objective and Binary readers agree with the scanner.

    Every text `parse_lp` accepts also passes `ILPInstance.validate()`, which
    the parser does not run again.
    """
    rng = random.Random(20261018)
    bad_numbers = 0
    accepted = 0
    for _ in range(6000):
        line = rng.choice((_random_line, _random_row))(rng)
        # constraint rows: split at names, then one scan per skeleton
        parts = model._NAME_SPLIT_RE.split(line)
        shape = model._row_shape(tuple(parts[::2]))
        scanned, error = _scan(model._scan_row, line, 1)
        if error is not None:
            assert shape is None, (line, error)
            bad_numbers += "bad number" in error
        else:
            assert shape is not None, line
            terms, relation, rhs = scanned
            assert parts[1] == model._tokenize(line, 1)[0][1]
            assert parts[3::2] == [name for _, name, _ in terms]
            coeffs = tuple(int(c) if c.denominator == 1 and 0 < abs(c) <= MAX_COEFFICIENT else 0 for c, _, _ in terms)
            assert shape == (coeffs, relation, rhs)
        # the objective line
        objective = ("obj: " + line.partition(":")[2]).strip() if rng.random() < 0.5 else line
        read, read_error = _scan(model._read_objective, objective, 1)
        scanned, error = _scan(model._scan_objective, objective, 1)
        assert read_error == error, objective
        if error is None:
            names, coeffs, constant, within_caps = read
            terms, scanned_constant = scanned
            assert list(names) == [name for _, name, _ in terms]
            assert coeffs == [Fraction(c) for c, _, _ in terms] and all(type(c) is Fraction for c in coeffs)
            assert constant == scanned_constant and type(constant) is Fraction
            caps = model._beyond_objective_cap
            assert within_caps == (not any(caps(c) for c, _, _ in terms) and not caps(constant))
        # a Binary line
        names = model._binary_names(line)
        matched = names is not None and len(set(names)) == len(names)
        assert matched == (_scan(model._scan_binary, line, 1, set())[1] is None), line
        if matched:
            assert names == [name for _, name, _ in model._tokenize(line, 1)]
        # the whole text, with the line as its row
        text = (f"Minimize\n {objective if read_error is None else 'obj: x'}\nSubject To\n {line}\n"
                "Binary\n x y x-y q\nEnd\n")
        try:
            instance = parse_lp(text)
        except LpParseError:
            continue
        instance.validate()
        accepted += 1
    assert bad_numbers > 50
    assert accepted > 300
