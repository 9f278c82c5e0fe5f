"""0-1 integer program model, LP text I/O, and constraint decomposition.

An instance is a rational objective over binary variables plus a list of
integer linear constraints.  Decomposition assigns each constraint its own
subproblem and records, per variable, the set of subproblems covering it.

LP text is read line by line with whole-line patterns, and each line's terms
are checked in bulk; only a line that fails is scanned again, token by
token, to report the line and column of its fault.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import itemgetter

from .cache import WeightedLru

MAX_COEFFICIENT = 1 << 20
MAX_RHS = 1 << 40
MAX_OBJECTIVE = 1 << 60  # |objective coefficient| and |offset|; keeps every dual sum finite
# Longest number the parser reads.  Every cap above is far shorter, and no
# setting of Python's digit limit for int() (640 at least) rejects it.
MAX_DIGITS = 640

# a name and an unsigned number, as every LP pattern and the token scanner read them
_IDENT = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_NUMBER = r"\d+(?:\.\d+)?(?:/\d+)?"
IDENTIFIER_RE = re.compile(rf"{_IDENT}\Z")


def _beyond_objective_cap(q: Fraction) -> bool:
    return abs(q.numerator) > MAX_OBJECTIVE * q.denominator  # cheaper than Fraction abs


class ModelError(Exception):
    """Structurally invalid instance data."""


class LpParseError(Exception):
    """Malformed LP text; carries the 1-based line and column."""

    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sum of integer-coefficient terms compared against an integer."""

    name: str
    terms: tuple[tuple[int, int], ...]  # (variable index, nonzero coefficient)
    relation: Relation
    rhs: int

    def support(self):
        return tuple(map(itemgetter(0), self.terms))

    def is_satisfied_by(self, values) -> bool:
        lhs = sum(a * values[i] for i, a in self.terms)
        if self.relation is Relation.LE:
            return lhs <= self.rhs
        if self.relation is Relation.GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class ILPInstance:
    """Minimize c.x + offset over binary x subject to integer linear rows.

    Building one runs `validate()`, which raises ModelError for the first
    fault.  `parse_lp` hands over instances without that second check: its
    own checks reject every fault `validate()` does, with a line and column.
    """

    var_names: list[str]
    objective: list[Fraction]
    constraints: list[LinearConstraint]
    objective_offset: Fraction = Fraction(0)
    name: str = "instance"

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        self.objective_offset = Fraction(self.objective_offset)
        self.validate()

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def name_to_index(self) -> dict:
        """`{name: index}` built from `var_names` as they are now, on each access."""
        return {nm: i for i, nm in enumerate(self.var_names)}

    def validate(self):
        """Raise ModelError naming the first fault, in the order checked below."""
        names = self.var_names
        n = len(names)
        if len(self.objective) != n:
            raise ModelError("objective length does not match variable count")
        if len(set(names)) != n:
            raise ModelError("duplicate variable name")
        for nm in names:
            if not IDENTIFIER_RE.match(nm):
                raise ModelError(f"invalid variable name {nm!r}")
        for nm, c in zip(names, self.objective):
            if _beyond_objective_cap(c):
                raise ModelError(f"objective coefficient overflow for variable {nm!r}")
        if _beyond_objective_cap(self.objective_offset):
            raise ModelError("objective constant overflow")
        seen_rows = set()
        for con in self.constraints:
            if con.name in seen_rows:
                raise ModelError(f"duplicate constraint name {con.name!r}")
            seen_rows.add(con.name)
            support = set()
            for i, a in con.terms:
                if not 0 <= i < n:
                    raise ModelError(f"constraint {con.name!r} references unknown variable index {i}")
                if i in support:
                    raise ModelError(f"duplicate variable in constraint {con.name!r}")
                support.add(i)
                if a == 0:
                    raise ModelError(f"zero coefficient in constraint {con.name!r}")
                if abs(a) > MAX_COEFFICIENT:
                    raise ModelError(f"coefficient overflow in constraint {con.name!r}")
            if abs(con.rhs) > MAX_RHS:
                raise ModelError(f"right-hand side overflow in constraint {con.name!r}")

    @classmethod
    def _parsed(cls, var_names, objective, constraints, objective_offset, name):
        """An instance from parts `parse_lp` has checked: Fractions and int rows, no fault."""
        instance = cls.__new__(cls)
        instance.var_names = var_names
        instance.objective = objective
        instance.constraints = constraints
        instance.objective_offset = objective_offset
        instance.name = name
        return instance

    def check_assignment(self, values) -> bool:
        """True iff the 0/1 vector satisfies every constraint."""
        if len(values) != self.num_vars:
            raise ModelError("assignment length mismatch")
        return all(con.is_satisfied_by(values) for con in self.constraints)

    def objective_value(self, values) -> Fraction:
        """Exact c.x + offset, summed as integers over the lcm of the denominators."""
        scale = math.lcm(*(c.denominator for c in self.objective))
        total = sum(c.numerator * (scale // c.denominator) * v for c, v in zip(self.objective, values))
        return Fraction(total, scale) + self.objective_offset


# ---------------------------------------------------------------------------
# LP text format
#
# Well-formed lines are read by patterns, not token by token.  The terms of
# a line are read by one `findall`, and they must tile it: `findall` skips
# what no term matches, so a stray character or a missing sign shows as
# terms shorter than the line.  (One `fullmatch` over a repeated term
# pattern would do too, but on an objective line of thousands of terms the
# regex engine's backtracking stack runs to megabytes; a Binary line is
# checked by its characters and names for the same reason.)  The patterns
# accept exactly what the token scanner further below accepts, and read
# every name whole, as the scanner does.  A line that fails a pattern or a
# check is scanned again, token by token, only to report its line, column
# and reason.
#
# A constraint row is first split at its names.  The text between them, its
# skeleton, fixes the row's structure, coefficients, relation and right-hand
# side, so each distinct skeleton is read once per parse, as a row with
# every name replaced by `x`; rows that share it only look up their names.
# A skeleton read in an earlier parse is looked up in `SKELETONS` first.

_LABEL = rf"{_IDENT}[ \t]*:[ \t]*"
_LABEL_RE = re.compile(_LABEL)
_ROW_RE = re.compile(rf"{_LABEL}([^<>=]*?)[ \t]*(<=|>=|=)[ \t]*([+-]?)[ \t]*({_NUMBER})")
_BINARY_CHARS_RE = re.compile(r"[A-Za-z0-9_.\- \t]*")
_NAME_SPLIT_RE = re.compile(rf"({_IDENT})")
# one signed term: (term, sign and coefficient, name, "") or (term, "", "", signed constant)
_TERM_RE = re.compile(rf"([ \t]*(?:([+-][ \t]*(?:{_NUMBER})?)[ \t]*({_IDENT})|([+-][ \t]*{_NUMBER})))")

_RELATIONS = {"<=": Relation.LE, ">=": Relation.GE, "=": Relation.EQ}

# Skeletons read across calls, each weighed by its characters, so that long
# runs of blanks or digits count too.  A malformed one is not kept: its row
# is scanned again for its fault, which ends the parse.  batch-small's 1,000
# instances have 1,157 distinct skeletons of 23,874 characters in all.
# 16,384 keeps 798 of them (0.49 MB by tracemalloc), and a pass over the set
# reads 1,118 skeletons from the second pass on (3,422 per pass without this
# cache): those that recur from instance to instance stay, while the
# random_ilp rows' skeletons pass through and leave.
SKELETON_CACHE_CHARS = 16384
SKELETONS = WeightedLru(SKELETON_CACHE_CHARS)


def _signed_number(literal):
    """Value of a matched `[+-] [number]` literal (1 without a number), None if malformed or too long."""
    digits = literal.lstrip("+- \t")
    if not digits:
        value = 1
    elif len(digits) > MAX_DIGITS:
        return None
    elif digits.isdecimal():  # plain digits: an int, much cheaper than a Fraction
        value = int(digits)
    else:
        try:
            value = Fraction(digits)
        except (ValueError, ZeroDivisionError):
            return None
    return -value if literal[:1] == "-" else value


def _row_coefficient(value):
    """An int row coefficient, or 0 when fractional, zero or beyond the cap."""
    if value.denominator != 1 or not 0 < abs(value) <= MAX_COEFFICIENT:
        return 0
    return int(value)


def _terms(body):
    """(coefficient literals, names, constant literals) of a sum of signed terms, or None if malformed."""
    if body[:1] not in "+-":
        body = "+" + body  # the first term's sign may be left out
    found = _TERM_RE.findall(body)
    if sum(map(len, map(itemgetter(0), found))) != len(body):
        return None
    _, literals, names, constants = zip(*found) if found else ((),) * 4
    return literals, names, constants


def _binary_names(line):
    """The names of a Binary line, or None if it holds more than names, spaces and tabs."""
    names = line.split()
    if _BINARY_CHARS_RE.fullmatch(line) is None or not all(map(IDENTIFIER_RE.match, names)):
        return None
    return names


def _row_shape(skeleton):
    """(coefficients, relation, rhs) of the rows split into `skeleton`, or None if malformed.

    A malformed or too long number makes the skeleton malformed; a
    coefficient that is fractional, zero or beyond the cap reads 0.
    """
    m = _ROW_RE.fullmatch("x".join(skeleton))
    if m is None:
        return None
    body, relation, sign, number = m.groups()
    terms = _terms(body)
    if terms is None or not terms[1] or any(terms[2]):
        return None  # also for a row without terms or with a constant term
    coeffs = list(map(_signed_number, terms[0]))
    rhs = _signed_number(sign + number)
    if None in coeffs or rhs is None or rhs.denominator != 1:
        return None
    return tuple(map(_row_coefficient, coeffs)), _RELATIONS[relation], int(rhs)


# -- the token scanner: locates the fault in a line the patterns rejected

_TOKEN_RE = re.compile(rf"[ \t]*(?:(?P<ident>{_IDENT})|(?P<number>{_NUMBER})|(?P<op><=|>=|=|\+|-|:))")


def _tokenize(line, lineno):
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None or m.end() == m.start():
            stripped = line[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(line[pos:]) - len(stripped)) + 1
            raise LpParseError(lineno, col, f"unexpected character {stripped[0]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


def _parse_number(text, lineno, col):
    """The value of a number token, as `_signed_number` reads it; raises where it reads None."""
    value = _signed_number(text)
    if value is None:
        if len(text) > MAX_DIGITS:
            raise LpParseError(lineno, col, f"number too long ({len(text)} characters)")
        raise LpParseError(lineno, col, f"bad number {text!r}")
    return value


def _parse_terms(tokens, start, lineno, allow_constant):
    """Parse `[+-] [k] var` terms until a relation token or line end.

    Returns (list of (coefficient, varname, column), constant, next index).
    """
    i = start
    terms = []
    constant = Fraction(0)
    first = True
    while i < len(tokens) and tokens[i][1] not in _RELATIONS:
        negate = False
        kind, text, col = tokens[i]
        if kind == "op" and text in "+-":
            negate = text == "-"
            i += 1
        elif not first:
            raise LpParseError(lineno, col, "expected '+' or '-' between terms")
        coeff = None
        if i < len(tokens) and tokens[i][0] == "number":
            coeff = _parse_number(tokens[i][1], lineno, tokens[i][2])
            i += 1
        if i < len(tokens) and tokens[i][0] == "ident":
            name = tokens[i][1]
            if coeff is None:
                coeff = 1
            terms.append((-coeff if negate else coeff, name, tokens[i][2]))
            i += 1
        else:
            if coeff is None:
                col = tokens[i][2] if i < len(tokens) else len(tokens[start - 1][1]) + 1
                raise LpParseError(lineno, col, "expected a term")
            if not allow_constant:
                raise LpParseError(lineno, tokens[i - 1][2], "constant term not allowed here")
            constant += -coeff if negate else coeff
        first = False
    return terms, constant, i


def _labelled_line(tokens, lineno):
    if len(tokens) < 2 or tokens[0][0] != "ident" or tokens[1][1] != ":":
        raise LpParseError(lineno, tokens[0][2] if tokens else 1, "expected 'name:' label")
    return tokens[0][1], 2


def _scan_objective(line, lineno):
    """Scanner reading of the objective line: (terms with columns, constant)."""
    tokens = _tokenize(line, lineno)
    _, idx = _labelled_line(tokens, lineno)
    terms, constant, idx = _parse_terms(tokens, idx, lineno, allow_constant=True)
    if idx != len(tokens):
        raise LpParseError(lineno, tokens[idx][2], "trailing tokens after objective")
    return terms, constant


def _scan_row(line, lineno):
    """Scanner reading of a constraint row: (terms with columns, right-hand side)."""
    tokens = _tokenize(line, lineno)
    rowname, idx = _labelled_line(tokens, lineno)
    terms, _, idx = _parse_terms(tokens, idx, lineno, allow_constant=False)
    if not terms:
        raise LpParseError(lineno, 1, f"constraint {rowname!r} has no terms")
    if idx >= len(tokens) or tokens[idx][1] not in _RELATIONS:
        raise LpParseError(lineno, tokens[idx - 1][2], "expected '<=', '>=' or '='")
    idx += 1
    sign = 1
    if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] in "+-":
        sign = -1 if tokens[idx][1] == "-" else 1
        idx += 1
    if idx >= len(tokens) or tokens[idx][0] != "number":
        raise LpParseError(lineno, tokens[idx - 1][2], "expected right-hand side")
    rhs = sign * _parse_number(tokens[idx][1], lineno, tokens[idx][2])
    if rhs.denominator != 1:
        raise LpParseError(lineno, tokens[idx][2], "right-hand side must be an integer")
    idx += 1
    if idx != len(tokens):
        raise LpParseError(lineno, tokens[idx][2], "trailing tokens after constraint")
    return terms, int(rhs)


def _scan_binary(line, lineno, seen):
    for kind, textval, col in _tokenize(line, lineno):
        if kind != "ident":
            raise LpParseError(lineno, col, "expected variable name")
        if textval in seen:
            raise LpParseError(lineno, col, f"duplicate variable {textval!r}")
        seen.add(textval)


def _check_objective(terms, constant, lineno, index):
    filled = set()
    for coeff, varname, col in terms:
        i = index.get(varname)
        if i is None:
            raise LpParseError(lineno, col, f"non-binary variable {varname!r}")
        if i in filled:
            raise LpParseError(lineno, col, f"duplicate variable {varname!r} in objective")
        if _beyond_objective_cap(coeff):
            raise LpParseError(lineno, col, "objective coefficient overflow")
        filled.add(i)
    if _beyond_objective_cap(constant):
        raise LpParseError(lineno, 1, "objective constant overflow")


def _check_row(terms, rhs, lineno, index):
    used = set()
    for coeff, varname, col in terms:
        i = index.get(varname)
        if i is None:
            raise LpParseError(lineno, col, f"non-binary variable {varname!r}")
        if i in used:
            raise LpParseError(lineno, col, f"duplicate variable {varname!r} in constraint")
        used.add(i)
        if coeff.denominator != 1:
            raise LpParseError(lineno, col, "constraint coefficients must be integers")
        a = int(coeff)
        if a == 0:
            raise LpParseError(lineno, col, "zero coefficient")
        if abs(a) > MAX_COEFFICIENT:
            raise LpParseError(lineno, col, "integer overflow in coefficient")
    if abs(rhs) > MAX_RHS:
        raise LpParseError(lineno, 1, "integer overflow in right-hand side")


def _locate(scan, *args):
    """Re-read a line that failed a pattern or a check; `scan` raises its LpParseError."""
    scan(*args)
    raise AssertionError(f"{scan.__name__} accepts a line the LP patterns reject: {args}")


def _read_objective(line, lineno):
    """(names, coefficients, constant, within the caps) of the objective line.

    Raises the scanner's LpParseError for a malformed line; the variables
    and caps are checked later, once the Binary section is read.
    """
    label = _LABEL_RE.match(line)
    terms = None if label is None else _terms(line[label.end():])
    if terms is None:
        _locate(_scan_objective, line, lineno)
    literals, names, constants = terms
    constants = list(map(_signed_number, filter(None, constants)))
    if constants:  # a constant's match carries no name
        literals, names = tuple(compress(literals, names)), tuple(filter(None, names))
    values = {literal: _signed_number(literal) for literal in set(literals)}
    if None in values.values() or None in constants:
        _locate(_scan_objective, line, lineno)
    values = {literal: Fraction(value) for literal, value in values.items()}
    constant = sum(constants, Fraction(0))
    within_caps = not any(map(_beyond_objective_cap, values.values())) and not _beyond_objective_cap(constant)
    return names, list(map(values.__getitem__, literals)), constant, within_caps


def parse_lp(text, name="instance"):
    """Parse the LP subset: Minimize / Subject To / Binary / End sections.

    Lines starting with a backslash are comments.  Variables are declared in
    the Binary section and appear in first-declaration order in the instance.

    Each line is read whole by patterns (a row through its skeleton; see the
    notes above `_LABEL`) and its terms are checked in bulk; only a line
    that fails is scanned again, token by token, for the line and column of
    its first fault.  Faults of layout and numbers come first, line by line up to
    'End'; then those of the objective's terms, then each row's in order,
    then a repeated row name, reported at its second label.  These checks
    are the instance's validation: they reject every fault
    `ILPInstance.validate()` does, so it is not run again.

    A well-formed skeleton's reading, (coefficients, relation, rhs), is
    kept in `SKELETONS`, which every call and thread of the process shares
    and which keeps the most recently used readings up to
    `SKELETON_CACHE_CHARS` characters of skeleton in all.  A reading is
    a tuple of ints and a `Relation`, never mutated, so sharing it is safe.
    """
    lines = text.splitlines()
    total = len(lines)
    # (stripped line, line number) of every line that is neither blank nor a comment
    content = ((s, k) for k, s in enumerate(map(str.strip, lines), 1) if s and s[0] != "\\")
    past_end = (None, total)

    line, ln = next(content, past_end)
    if line != "Minimize":
        raise LpParseError(ln if line is not None else total or 1, 1, "expected 'Minimize'")

    line, ln = next(content, past_end)
    if line is None:
        raise LpParseError(total or 1, 1, "missing objective line")
    obj_names, obj_coeffs, obj_constant, obj_within_caps = _read_objective(line, ln)
    obj_line, obj_lineno = line, ln

    raw_rows = []
    row_shapes = {}  # skeleton -> (coefficients, relation, rhs)
    line, ln = next(content, past_end)
    if line == "Subject To":
        for line, ln in content:
            if line == "Binary":
                break
            parts = _NAME_SPLIT_RE.split(line)  # [text, label, text, name, ..., name, text]
            skeleton = tuple(parts[::2])
            shape = row_shapes.get(skeleton)
            if shape is None:
                shape = SKELETONS.get(skeleton)
                if shape is None:
                    shape = _row_shape(skeleton)
                    if shape is None:
                        _locate(_scan_row, line, ln)
                    SKELETONS.put(skeleton, shape, sum(map(len, skeleton)))
                row_shapes[skeleton] = shape
            coeffs, relation, rhs = shape
            raw_rows.append((parts[1], parts[3::2], coeffs, relation, rhs, line, ln))
        else:
            raise LpParseError(total, 1, "missing 'Binary' section")
    if line != "Binary":
        raise LpParseError(ln if line is not None else total or 1, 1, "expected 'Binary'")

    var_names = []
    seen = set()
    for line, ln in content:
        if line == "End":
            break
        names = _binary_names(line)
        if names is None or not seen.isdisjoint(names) or len(set(names)) != len(names):
            _locate(_scan_binary, line, ln, seen)
        seen.update(names)
        var_names.extend(names)
    else:
        raise LpParseError(total, 1, "missing 'End'")
    line, ln = next(content, past_end)
    if line is not None:
        raise LpParseError(ln, 1, "content after 'End'")

    index = {nm: i for i, nm in enumerate(var_names)}
    obj_index = list(map(index.get, obj_names))
    if None in obj_index or len(set(obj_index)) != len(obj_index) or not obj_within_caps:
        _locate(_check_objective, *_scan_objective(obj_line, obj_lineno), obj_lineno, index)
    objective = [Fraction(0)] * len(var_names)
    for i, c in zip(obj_index, obj_coeffs):
        objective[i] = c

    constraints = []
    for rowname, names, coeffs, relation, rhs, line, ln in raw_rows:
        idx = tuple(map(index.get, names))
        if None in idx or 0 in coeffs or len(set(idx)) != len(idx) or not -MAX_RHS <= rhs <= MAX_RHS:
            _locate(_check_row, *_scan_row(line, ln), ln, index)
        constraints.append(LinearConstraint(rowname, tuple(zip(idx, coeffs)), relation, rhs))
    if len({con.name for con in constraints}) != len(constraints):
        labels = set()
        for rowname, *_, ln in raw_rows:
            if rowname in labels:  # the label opens the (stripped) line
                raise LpParseError(ln, 1, f"duplicate constraint name {rowname!r}")
            labels.add(rowname)

    return ILPInstance._parsed(var_names, objective, constraints, obj_constant, name)


def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    shift = max(twos, fives)
    scaled = abs(q.numerator) * (10**shift // q.denominator)
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _format_terms(parts):
    """parts: iterable of (magnitude, negative, varname).

    `magnitude` is text: "" for 1, else the number and a trailing space.
    """
    pieces = []
    for magnitude, negative, varname in parts:
        if not pieces:
            lead = "- " if negative else ""
            pieces.append(f"{lead}{magnitude}{varname}")
        else:
            pieces.append(f"{'-' if negative else '+'} {magnitude}{varname}")
    return " ".join(pieces)


def write_lp(instance: ILPInstance) -> str:
    """Serialize to LP text; parsing the output reproduces the instance.

    Raises ModelError for a row with no terms: the format has no way to
    write one, and `parse_lp` rejects it.
    """
    lines = ["Minimize"]
    parts = []
    for i, c in enumerate(instance.objective):
        if c == 0:
            continue
        mag = abs(c)
        mag_str = "" if mag == 1 else _format_rational(mag) + " "
        parts.append((mag_str, c < 0, instance.var_names[i]))
    off = instance.objective_offset
    if off != 0:
        parts.append((_format_rational(abs(off)), off < 0, ""))
    lines.append(f" obj: {_format_terms(parts)}".rstrip())
    if instance.constraints:
        lines.append("Subject To")
        for con in instance.constraints:
            if not con.terms:
                raise ModelError(f"constraint {con.name!r} has no terms, which the LP format cannot express")
            parts = []
            for i, a in con.terms:
                mag_str = "" if abs(a) == 1 else f"{abs(a)} "
                parts.append((mag_str, a < 0, instance.var_names[i]))
            lines.append(f" {con.name}: {_format_terms(parts)} {con.relation.value} {con.rhs}")
    lines.append("Binary")
    row = " "
    for nm in instance.var_names:
        if len(row) + len(nm) + 1 > 72 and row.strip():
            lines.append(row.rstrip())
            row = " "
        row += nm + " "
    if row.strip():
        lines.append(row.rstrip())
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Decomposition and variable ordering


@dataclass(frozen=True)
class Decomposition:
    """Per-constraint subproblems over a fixed variable order.

    subproblem_vars[j] lists constraint j's support sorted by order position;
    var_subproblems[i] lists the subproblems covering variable i, ascending.
    """

    subproblem_vars: tuple
    var_subproblems: tuple
    order: tuple

    @property
    def free_variables(self):
        return tuple(i for i, js in enumerate(self.var_subproblems) if not js)


def decompose(instance: ILPInstance, order=None) -> Decomposition:
    n = instance.num_vars
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ModelError("order is not a permutation of the variables")
    positions = [0] * n
    for pos, i in enumerate(order):
        positions[i] = pos
    sub_vars = []
    var_subs = [[] for _ in range(n)]
    for j, con in enumerate(instance.constraints):
        sup = sorted(map(itemgetter(0), con.terms), key=positions.__getitem__)
        sub_vars.append(tuple(sup))
        for i in sup:
            var_subs[i].append(j)
    return Decomposition(
        tuple(sub_vars),
        tuple(tuple(js) for js in var_subs),
        tuple(order),
    )


def presolve_free(instance: ILPInstance, decomposition: Decomposition):
    """Fix variables covered by no constraint; returns (fixes, objective gain).

    A free variable takes value 1 exactly when its cost is negative, so the
    contribution is the sum of min(0, c_i) over free variables.
    """
    fixes = {}
    contribution = Fraction(0)
    for i in decomposition.free_variables:
        c = instance.objective[i]
        fixes[i] = 1 if c < 0 else 0
        if c < 0:
            contribution += c
    return fixes, contribution


ORDERS = ("input", "cuthill_mckee")


def order_variables(instance: ILPInstance, strategy="input"):
    """Return a variable permutation: `input` order or Cuthill-McKee.

    Cuthill-McKee runs breadth-first over the variable adjacency graph (two
    variables are adjacent when a constraint covers both), starting each
    component at the lowest-degree variable; ties break by ascending degree
    then ascending input index.
    """
    if strategy not in ORDERS:
        raise ModelError(f"unknown ordering strategy {strategy!r}")
    n = instance.num_vars
    if strategy == "input":
        return list(range(n))
    adjacency = [set() for _ in range(n)]
    for con in instance.constraints:
        sup = con.support()
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                adjacency[sup[a]].add(sup[b])
                adjacency[sup[b]].add(sup[a])
    degree = [len(s) for s in adjacency]
    by_degree = sorted(range(n), key=lambda i: (degree[i], i))
    seen = [False] * n
    order = []
    for start in by_degree:
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adjacency[v], key=lambda i: (degree[i], i)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order
