"""Per-constraint binary decision diagrams with reversible variable fixation.

Each diagram encodes the feasible set of one integer linear row over its
support, ordered by the global variable order.  Every root-to-true path
visits every support level exactly once, so nodes whose two children agree
are kept rather than skipped.  A diagram is built reduced: one bottom-up
pass over intervals of residuals makes each node once (see `_compile`), so
the build follows the diagram's size, not the number of partial sums.

A diagram keeps each node's two arcs and nothing else per node: no
parent lists, arc counters or liveness flags.  An internal node is removed
exactly when both its arcs point at the false terminal, and no live node
points at a removed one; every live node is reached from the root and
reaches the true terminal, so the diagram is empty exactly when its root
is removed.  An unsatisfiable row is built with every node removed, one
per level, so every level holds a node; only a row with no variables has
a terminal for its root.  Fixing a variable redirects arcs on one level
to the false terminal.  Nodes no arc reaches any more have their arcs
redirected too, one level at a time going down, each step scanning the
level above them for arcs still reaching them; nodes left with both arcs
on the false terminal are removed one level at a time going up, each
step scanning the level above for arcs into the nodes just removed.

Every mutation is an arc redirect, written as an undo record to a
`Trail`: three flat entries, the arc list (a diagram's `lo` or `hi`, never
reassigned), the node and the old child.  A diagram owns no undo state:
whoever restricts it first attaches it to a trail and opens a checkpoint
there, and `fix` refuses to run otherwise.  The rounding search attaches
all diagrams to one trail, so a checkpoint is a single mark on it and a
rollback undoes only the records written since that mark, whichever
diagrams they belong to.  Restoration is bit-exact.

Every diagram refers to the `Template` of its row's shape (see
`build_bdd`), which rows of that shape share within one instance and across
instances and threads: its root, its levels as tuples of node tuples, its
arcs as built and the literals those arcs force.  A template is never
mutated: fixing and rollback change only each diagram's own `lo`/`hi`
lists, and code that needs only the as-built structure reads the
template, once per shape, where tables derived from it are kept too.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from math import inf

from .cache import WeightedLru
from .model import LinearConstraint, Relation

FALSE = 0
TRUE = 1

DEFAULT_STATE_BUDGET = 1 << 22

# Compiled templates kept across calls, each weighed by len(lo): its nodes
# plus the two terminals.  Every level holds a node, so that is at least
# the levels plus 2.  The budget counts nodes only, not the tables
# `Template.derived` keeps with a template (the list store's level parts,
# the rounding's path counts), so it bounds the cache's bytes loosely.
# batch-small's 1,000 instances from 4 generators have 3,421 rows of 1,112
# shapes, whose templates weigh 8,321 in all.  4,096, about half that,
# keeps 554 templates (0.87 MB by tracemalloc, what `clear()` frees after
# two passes at seed 0; 0.32 MB of it the level parts), and a pass over the set
# compiles 1,094 rows from the second pass on: the shapes that recur from
# instance to instance stay, while the random_ilp rows' shapes, which do
# not recur, pass through and leave.
TEMPLATE_CACHE_NODES = 4096
TEMPLATES = WeightedLru(TEMPLATE_CACHE_NODES)


class BddError(Exception):
    pass


class BddBuildError(BddError):
    """Construction exceeded the per-level state budget.

    The budget caps the memo entries of each level: its nodes and the
    residual intervals that lead only to the false terminal.
    """


class Trail:
    """Undo records of every diagram attached to it, oldest first.

    One record is three flat entries of `records`: the arc list (`lo` or
    `hi` of a diagram), the node and the child the arc pointed at before.
    A checkpoint marks the current length of `records` under a token that
    is never reused; rolling back to it pops the records written since,
    restoring each arc, and closes every checkpoint opened after it.
    """

    __slots__ = ("records", "marks", "_last_token")

    def __init__(self):
        self.records = []  # arc list, node, old child per redirect, oldest first
        self.marks = []  # (token, length of records), oldest first
        self._last_token = 0

    def attach(self, bdds):
        """Record the mutations of `bdds` here from now on."""
        for b in bdds:
            b.trail = self

    def checkpoint(self):
        """Mark the trail; rolling back restores the current exact state."""
        self._last_token += 1
        token = self._last_token
        self.marks.append((token, len(self.records)))
        return token

    def rollback(self, token):
        """Undo every mutation after `token`; later checkpoints die with it."""
        marks = self.marks
        for idx in range(len(marks) - 1, -1, -1):
            if marks[idx][0] == token:
                break
        else:
            raise BddError(f"unknown checkpoint {token!r}")
        keep = marks[idx][1]
        del marks[idx:]
        records = self.records
        pop = records.pop
        while len(records) > keep:
            old = pop()
            v = pop()
            pop()[v] = old


class Template:
    """The as-built structure shared by every diagram of one row shape; never mutated.

    `root` is the root node; `lo` and `hi` are the arcs as built, as
    tuples; `level_nodes` holds each level's nodes as a tuple, top level
    first, in a tuple; `forced` lists the `(level, value)` pairs the
    diagram forces as built, top level first, read off these arcs by
    `_forced`, the scan `Bdd.forced_literals` runs.  None of these
    depends on the row's variables or name, so one template serves every
    row of its shape.  `derived` keeps, per function, a table computed from these
    alone, so each consumer's per-shape work is done once per template.
    """

    __slots__ = ("root", "lo", "hi", "level_nodes", "forced", "_derived")

    def __init__(self, root, lo, hi, level_nodes):
        self.root = root
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.level_nodes = tuple(map(tuple, level_nodes))
        self.forced = tuple(_forced(range(len(self.level_nodes)), root, self.level_nodes, self.lo, self.hi))
        self._derived = {}  # function -> its table of this template

    def derived(self, make):
        """`make(self)`, computed on the first call and kept with the template.

        `make` must read only the template and return a table nobody
        mutates.  Two threads may both compute it on a first call; the
        results are equal, and either one is kept.
        """
        table = self._derived.get(make)
        if table is None:
            table = self._derived.setdefault(make, make(self))
        return table


class Bdd:
    """Leveled decision diagram for one constraint.

    Node ids are integers; 0 and 1 are the false/true terminals, internal
    nodes start at 2 and are numbered level by level in first-reference
    order from the root, 0-child before 1-child, so two builds of the same
    row are identical.  `lo` and `hi` belong to this diagram alone and
    start as copies of its `template`'s arcs.  `root` and `level_nodes` are
    the template's, shared with every diagram of the same shape in any
    instance or thread, and kept here for quick reads; the levels are
    tuples, so they cannot be changed in place.
    """

    __slots__ = (
        "constraint_name",
        "support",
        "template",
        "root",
        "lo",
        "hi",
        "level_nodes",
        "trail",
    )

    def __init__(self, constraint_name, support, template):
        self.constraint_name = constraint_name
        self.support = tuple(support)
        self.template = template
        self.root = template.root
        self.lo = list(template.lo)
        self.hi = list(template.hi)
        self.level_nodes = template.level_nodes
        self.trail = None  # set by `Trail.attach`; `fix` needs one

    # -- queries ------------------------------------------------------------

    @property
    def num_levels(self):
        return len(self.support)

    def is_empty(self):
        root = self.root
        if root < 2:
            return root == FALSE
        return self.lo[root] == FALSE and self.hi[root] == FALSE

    def node_count(self):
        """Live internal nodes."""
        # FALSE is 0, so lo | hi is 0 exactly for the terminals and removed nodes
        return len(self.lo) - list(map(operator.or_, self.lo, self.hi)).count(FALSE)

    def as_built(self):
        """Whether the arcs still equal the template's, entry for entry."""
        template = self.template
        return tuple(self.lo) == template.lo and tuple(self.hi) == template.hi

    def derived(self, make):
        """`make(self)`, taken from the template's kept table while the arcs are as built.

        `make` reads only arcs and levels, of a diagram or of a template
        (see `Template.derived`), so both give equal tables.
        """
        return self.template.derived(make) if self.as_built() else make(self)

    def live_nodes(self, level):
        """Nodes of `level` with an arc off the false terminal, i.e. not removed."""
        lo, hi = self.lo, self.hi
        return [v for v in self.level_nodes[level] if lo[v] != FALSE or hi[v] != FALSE]

    def forced_literals(self):
        """(variable, value) pairs forced on every remaining true-path, top level first."""
        return _forced(self.support, self.root, self.level_nodes, self.lo, self.hi)

    # -- mutation -----------------------------------------------------------

    def fix(self, var, value):
        """Restrict to assignments with var == value; False means emptied.

        Requires an open checkpoint on the trail the caller attached, so the
        restriction can be undone.  Every change redirects an arc to the false
        terminal, and a node is removed exactly when both its arcs end there.
        Arcs for the discarded value go first.  Removals then go down: a
        child that lost an arc is removed when no arc of the level above
        still reaches it, and its own children are checked the same way one
        level further down.  Then they go up: a node that just lost an arc
        and has both on the false terminal is removed, and each step scans
        the level above for arcs into nodes just removed (no live node points
        at a node removed earlier), redirects them, and goes on while that
        removes a node, until the root goes.  Each step scans one level once,
        so the scans stand in for parent lists and arc counters, which
        diagrams do not keep.
        """
        if self.trail is None or not self.trail.marks:
            raise BddError("fix requires an open checkpoint on an attached trail")
        try:
            lev = self.support.index(var)
        except ValueError:
            raise BddError(f"variable {var} not in support") from None
        lo, hi, level_nodes, journal = self.lo, self.hi, self.level_nodes, self.trail.records
        arr, other = (lo, hi) if value else (hi, lo)
        nodes = level_nodes[lev]
        lost = []  # internal children that lost an arc, one level below `nodes`
        removed = False
        for v in nodes:
            target = arr[v]
            if target != FALSE:
                journal += (arr, v, target)
                arr[v] = FALSE
                if target >= 2:
                    lost.append(target)
                if other[v] == FALSE:
                    removed = True
        if lost:
            # one set per level keeps the descent linear in the widths scanned
            reached = set(map(other.__getitem__, nodes))  # the only arcs left on `nodes`
            below = lev + 1
            while True:
                children, lost = lost, []
                for c in children:
                    if c not in reached:
                        for arcs in (lo, hi):
                            child = arcs[c]
                            if child != FALSE:
                                journal += (arcs, c, child)
                                arcs[c] = FALSE
                                if child >= 2:
                                    lost.append(child)
                if not lost:
                    break
                nodes = level_nodes[below]
                below += 1
                reached = set(map(lo.__getitem__, nodes))
                reached.update(map(hi.__getitem__, nodes))
        while removed and lev:
            lev -= 1
            removed = False
            for u in level_nodes[lev]:
                cut = False
                child = lo[u]
                if child >= 2 and lo[child] == FALSE and hi[child] == FALSE:
                    journal += (lo, u, child)
                    lo[u] = FALSE
                    cut = True
                child = hi[u]
                if child >= 2 and lo[child] == FALSE and hi[child] == FALSE:
                    journal += (hi, u, child)
                    hi[u] = FALSE
                    cut = True
                if cut and lo[u] == FALSE and hi[u] == FALSE:
                    removed = True
        root = self.root
        return lo[root] != FALSE or hi[root] != FALSE  # not `is_empty()`; the root is internal

    # -- diagnostics ----------------------------------------------------------

    def to_dot(self, var_names=None):
        """GraphViz text: dotted 0-arcs, solid 1-arcs, boxed terminals."""
        label = (lambda i: var_names[i]) if var_names is not None else (lambda i: f"x{i}")
        lines = [f"digraph \"{self.constraint_name}\" {{", "  rankdir=TB;"]
        lines.append('  t1 [label="T", shape=box];')
        lines.append('  t0 [label="F", shape=box];')
        names = {FALSE: "t0", TRUE: "t1"}
        for lev in range(self.num_levels):
            for v in self.live_nodes(lev):
                names[v] = f"n{v}"
                lines.append(f'  n{v} [label="{label(self.support[lev])}"];')
        for lev in range(self.num_levels):
            for v in self.live_nodes(lev):
                lines.append(f"  n{v} -> {names[self.lo[v]]} [style=dotted];")
                lines.append(f"  n{v} -> {names[self.hi[v]]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _forced(labels, root, level_nodes, lo, hi):
    """`(label, value)` per level whose every remaining true-path takes `value`, top level first.

    A level forces value 1 when every node's 0-arc is on the false
    terminal, and 0 symmetrically; removed nodes have both arcs there.  A
    terminal or removed root forces nothing.
    """
    if root < 2 or (lo[root] == FALSE and hi[root] == FALSE):
        return []
    forced = []
    for label, nodes in zip(labels, level_nodes):
        all_lo_dead = True
        all_hi_dead = True
        for v in nodes:
            if lo[v] != FALSE:
                all_lo_dead = False
            if hi[v] != FALSE:
                all_hi_dead = False
            if not (all_lo_dead or all_hi_dead):
                break
        if all_lo_dead:
            forced.append((label, 1))
        elif all_hi_dead:
            forced.append((label, 0))
    return forced


def _sentinel(satisfiable):
    """The template of a row with no variables: the root is a terminal, and there are no levels."""
    return Template(TRUE if satisfiable else FALSE, (FALSE, FALSE), (FALSE, FALSE), ())


def build_bdd(
    constraint: LinearConstraint, support=None, state_budget=DEFAULT_STATE_BUDGET, shapes=None
) -> Bdd:
    """Compile one row into a reduced leveled diagram.

    `support` holds the row's variables in the global order, top level
    first: its `Decomposition.subproblem_vars` entry, which `decompose` has
    sorted already, so the build does not sort again.  Omitted, the levels
    follow ascending variable index.  One bottom-up pass memoises, per
    level, intervals of residuals that admit the same completions, and
    makes a node only for an interval that can still reach the true
    terminal; a top-down pass then numbers the nodes.  An unsatisfiable row
    gives one removed node per level, nodes 2 to k + 1 over k levels.

    The diagram depends only on its row's shape: the coefficients in
    support order (after `>=` rows are negated into `<=`), the relation, the
    right-hand side and `state_budget`.  A shape is compiled into a
    `Template`; every row of that shape refers to it, shares its levels,
    and gets its own copies of the arcs that `fix` changes.  The result
    equals a fresh build field by field.

    Templates are looked up first in `shapes`, a dict private to one
    instance when given, which keeps every template of the instance
    whatever its size; then in `TEMPLATES`, shared by every call and thread
    of the process, which keeps the most recently used templates up to
    `TEMPLATE_CACHE_NODES` in all.  A compile that raises `BddBuildError`
    caches nothing.
    """
    if support is None:
        support = sorted(constraint.support())
    coeffs = list(map(dict(constraint.terms).__getitem__, support))
    rhs = constraint.rhs
    relation = constraint.relation
    if relation is Relation.GE:
        coeffs = [-a for a in coeffs]
        rhs = -rhs
        relation = Relation.LE
    shape = (tuple(coeffs), relation, rhs, state_budget)
    template = None if shapes is None else shapes.get(shape)
    if template is None:
        template = TEMPLATES.get(shape)
        if template is None:
            template = _compile(constraint.name, support, coeffs, relation, rhs, state_budget)
            TEMPLATES.put(shape, template, len(template.lo))
        if shapes is not None:
            shapes[shape] = template
    return Bdd(constraint.name, support, template)


def _compile(name, support, coeffs, relation, rhs, state_budget):
    """Build the template of a `<=` or `=` row from its coefficients in support order.

    One bottom-up pass makes only reduced nodes.  Each level keeps a memo of
    disjoint residual intervals, each mapped to a token: FALSE, TRUE or a node
    of that level.  Residuals in one interval admit the same completions.  A
    residual r at level t outside the memo resolves its children (t + 1, r)
    and (t + 1, r - a) first; its interval is the 0-child's intersected with
    the 1-child's shifted by a.  On `<=` rows that interval is r's whole
    completion class, and on `=` rows a node's class is the single residual
    its completions sum to, so no node is ever made twice.
    """
    k = len(support)
    if k == 0:
        ok = (0 == rhs) if relation is Relation.EQ else (0 <= rhs)
        return _sentinel(ok)

    # per level: interval low ends, sorted, and (low, high, token) per interval;
    # level k holds the terminals; a node's token is its index in its level + 2
    lows = [[] for _ in support]
    memo = [[] for _ in support]
    if relation is Relation.EQ:
        lows.append([-inf, 0, 1])
        memo.append([(-inf, -1, FALSE), (0, 0, TRUE), (1, inf, FALSE)])
    else:
        lows.append([-inf, 0])
        memo.append([(-inf, -1, FALSE), (0, inf, TRUE)])
    reduced = [[] for _ in support]  # (0-child, 1-child) tokens per node

    # explicit stack, as rows can be thousands of variables long; a frame is
    # pushed only on a memo miss, and only deeper levels change until it pops
    stack = [(0, rhs)]
    while stack:
        lev, r = stack[-1]
        below_lows = lows[lev + 1]
        below = memo[lev + 1]
        i = bisect_right(below_lows, r) - 1
        if i < 0 or r > below[i][1]:
            stack.append((lev + 1, r))
            continue
        zero = below[i]
        a = coeffs[lev]
        s = r - a
        i = bisect_right(below_lows, s) - 1
        if i < 0 or s > below[i][1]:
            stack.append((lev + 1, s))
            continue
        one = below[i]
        stack.pop()
        if len(memo[lev]) >= state_budget:
            raise BddBuildError(f"constraint {name!r} exceeds the per-level state budget")
        if zero[2] == FALSE and one[2] == FALSE:
            token = FALSE
        else:
            reduced[lev].append((zero[2], one[2]))
            token = len(reduced[lev]) + 1
        low = max(zero[0], one[0] + a)
        i = bisect_right(lows[lev], low)
        lows[lev].insert(i, low)
        memo[lev].insert(i, (low, min(zero[1], one[1] + a), token))
    root_token = memo[0][0][2]  # the root's interval is the only one on level 0
    if root_token == FALSE:
        return Template(2, [FALSE] * (k + 2), [FALSE] * (k + 2), [(v,) for v in range(2, k + 2)])

    # top-down numbering in first-reference order gives deterministic ids: a
    # level's nodes are numbered in the order the level above first reaches them
    ids = [{root_token: 2}]
    next_id = 3
    for lev in range(k - 1):
        below = {}
        for t in ids[lev]:
            for child in reduced[lev][t - 2]:
                if child >= 2 and child not in below:
                    below[child] = next_id
                    next_id += 1
        ids.append(below)
    ids.append({})  # level k: terminals only
    lo = [FALSE] * next_id
    hi = [FALSE] * next_id
    level_nodes = []
    for lev in range(k):
        mapping = ids[lev]
        below = ids[lev + 1]
        tokens = reduced[lev]
        for t, v in mapping.items():
            l, h = tokens[t - 2]
            lo[v] = l if l < 2 else below[l]
            hi[v] = h if h < 2 else below[h]
        level_nodes.append(tuple(mapping.values()))
    return Template(2, lo, hi, level_nodes)
