"""0-1 integer program model, LP text I/O, and constraint decomposition.

An instance is a rational objective over binary variables plus a list of
integer linear constraints.  Decomposition assigns each constraint its own
subproblem and records, per variable, the set of subproblems covering it.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

MAX_COEFFICIENT = 1 << 20
MAX_RHS = 1 << 40
MAX_OBJECTIVE = 1 << 60  # |objective coefficient| and |offset|; keeps every dual sum finite

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


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
        return tuple(i for i, _ in self.terms)

    def is_satisfied_by(self, values) -> bool:
        lhs = sum(a * values[i] for i, a in self.terms)
        if self.relation is Relation.LE:
            return lhs <= self.rhs
        if self.relation is Relation.GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class ILPInstance:
    """Minimize c.x + offset over binary x subject to integer linear rows."""

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
        cached = getattr(self, "_name_to_index", None)
        if cached is None or len(cached) != len(self.var_names):
            cached = {nm: i for i, nm in enumerate(self.var_names)}
            object.__setattr__(self, "_name_to_index", cached)
        return cached

    def validate(self):
        n = len(self.var_names)
        if len(self.objective) != n:
            raise ModelError("objective length does not match variable count")
        if len(set(self.var_names)) != n:
            raise ModelError("duplicate variable name")
        for nm in self.var_names:
            if not IDENTIFIER_RE.match(nm):
                raise ModelError(f"invalid variable name {nm!r}")
        for nm, c in zip(self.var_names, self.objective):
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


_TOKEN_RE = re.compile(
    r"[ \t]*(?:"
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)"
    r"|(?P<number>\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<op><=|>=|=|\+|-|:)"
    r")"
)

_RELATIONS = {"<=": Relation.LE, ">=": Relation.GE, "=": Relation.EQ}


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
    """An int for plain digits (the common case, and much cheaper), else a Fraction."""
    if text.isdecimal():
        return int(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise LpParseError(lineno, col, f"bad number {text!r}") from None


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


def parse_lp(text, name="instance"):
    """Parse the LP subset: Minimize / Subject To / Binary / End sections.

    Lines starting with a backslash are comments.  Variables are declared in
    the Binary section and appear in first-declaration order in the instance.
    """
    lines = text.splitlines()
    total = len(lines)
    cursor = 0

    def next_content():
        nonlocal cursor
        while cursor < total:
            raw = lines[cursor]
            cursor += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith("\\"):
                return stripped, cursor
        return None, cursor

    line, ln = next_content()
    if line != "Minimize":
        raise LpParseError(ln if line is not None else total or 1, 1, "expected 'Minimize'")

    line, ln = next_content()
    if line is None:
        raise LpParseError(total or 1, 1, "missing objective line")
    tokens = _tokenize(line, ln)
    _, idx = _labelled_line(tokens, ln)
    obj_terms, obj_constant, idx = _parse_terms(tokens, idx, ln, allow_constant=True)
    if idx != len(tokens):
        raise LpParseError(ln, tokens[idx][2], "trailing tokens after objective")
    obj_lineno = ln

    raw_constraints = []
    line, ln = next_content()
    if line == "Subject To":
        while True:
            line, ln = next_content()
            if line is None:
                raise LpParseError(total, 1, "missing 'Binary' section")
            if line == "Binary":
                break
            tokens = _tokenize(line, ln)
            rowname, idx = _labelled_line(tokens, ln)
            terms, _, idx = _parse_terms(tokens, idx, ln, allow_constant=False)
            if not terms:
                raise LpParseError(ln, 1, f"constraint {rowname!r} has no terms")
            if idx >= len(tokens) or tokens[idx][1] not in _RELATIONS:
                raise LpParseError(ln, tokens[idx - 1][2], "expected '<=', '>=' or '='")
            relation = _RELATIONS[tokens[idx][1]]
            idx += 1
            sign = 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] in "+-":
                sign = -1 if tokens[idx][1] == "-" else 1
                idx += 1
            if idx >= len(tokens) or tokens[idx][0] != "number":
                raise LpParseError(ln, tokens[idx - 1][2], "expected right-hand side")
            rhs = sign * _parse_number(tokens[idx][1], ln, tokens[idx][2])
            if rhs.denominator != 1:
                raise LpParseError(ln, tokens[idx][2], "right-hand side must be an integer")
            idx += 1
            if idx != len(tokens):
                raise LpParseError(ln, tokens[idx][2], "trailing tokens after constraint")
            raw_constraints.append((rowname, terms, relation, int(rhs), ln))
    if line != "Binary":
        raise LpParseError(ln if line is not None else total or 1, 1, "expected 'Binary'")

    var_names = []
    seen = set()
    while True:
        line, ln = next_content()
        if line is None:
            raise LpParseError(total, 1, "missing 'End'")
        if line == "End":
            break
        for kind, textval, col in _tokenize(line, ln):
            if kind != "ident":
                raise LpParseError(ln, col, "expected variable name")
            if textval in seen:
                raise LpParseError(ln, col, f"duplicate variable {textval!r}")
            seen.add(textval)
            var_names.append(textval)
    line, ln = next_content()
    if line is not None:
        raise LpParseError(ln, 1, "content after 'End'")

    index = {nm: i for i, nm in enumerate(var_names)}
    objective = [Fraction(0)] * len(var_names)
    filled = set()
    for coeff, varname, col in obj_terms:
        i = index.get(varname)
        if i is None:
            raise LpParseError(obj_lineno, col, f"non-binary variable {varname!r}")
        if i in filled:
            raise LpParseError(obj_lineno, col, f"duplicate variable {varname!r} in objective")
        if _beyond_objective_cap(coeff):
            raise LpParseError(obj_lineno, col, "objective coefficient overflow")
        filled.add(i)
        objective[i] = coeff
    if _beyond_objective_cap(obj_constant):
        raise LpParseError(obj_lineno, 1, "objective constant overflow")

    constraints = []
    for rowname, terms, relation, rhs, ln in raw_constraints:
        row = []
        used = set()
        for coeff, varname, col in terms:
            i = index.get(varname)
            if i is None:
                raise LpParseError(ln, col, f"non-binary variable {varname!r}")
            if i in used:
                raise LpParseError(ln, col, f"duplicate variable {varname!r} in constraint")
            used.add(i)
            if coeff.denominator != 1:
                raise LpParseError(ln, col, "constraint coefficients must be integers")
            a = int(coeff)
            if a == 0:
                raise LpParseError(ln, col, "zero coefficient")
            if abs(a) > MAX_COEFFICIENT:
                raise LpParseError(ln, col, "integer overflow in coefficient")
            row.append((i, a))
        if abs(rhs) > MAX_RHS:
            raise LpParseError(ln, 1, "integer overflow in right-hand side")
        constraints.append(LinearConstraint(rowname, tuple(row), relation, rhs))

    try:
        return ILPInstance(var_names, objective, constraints, obj_constant, name=name)
    except ModelError as exc:
        raise LpParseError(1, 1, str(exc)) from None


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
    """parts: iterable of (coefficient-as-string-or-None, varname)."""
    pieces = []
    for magnitude, negative, varname in parts:
        if not pieces:
            lead = "- " if negative else ""
            pieces.append(f"{lead}{magnitude}{varname}")
        else:
            pieces.append(f"{'-' if negative else '+'} {magnitude}{varname}")
    return " ".join(pieces)


def write_lp(instance: ILPInstance) -> str:
    """Serialize to LP text; parsing the output reproduces the instance."""
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
    positions: tuple

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
        sup = sorted(con.support(), key=positions.__getitem__)
        sub_vars.append(tuple(sup))
        for i in sup:
            var_subs[i].append(j)
    return Decomposition(
        tuple(sub_vars),
        tuple(tuple(js) for js in var_subs),
        tuple(order),
        tuple(positions),
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


def order_variables(instance: ILPInstance, strategy="input"):
    """Return a variable permutation: `input` order or Cuthill-McKee.

    Cuthill-McKee runs breadth-first over the variable adjacency graph (two
    variables are adjacent when a constraint covers both), starting each
    component at the lowest-degree variable; ties break by ascending degree
    then ascending input index.
    """
    n = instance.num_vars
    if strategy == "input":
        return list(range(n))
    if strategy != "cuthill_mckee":
        raise ModelError(f"unknown ordering strategy {strategy!r}")
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
