"""Per-constraint binary decision diagrams with reversible variable fixation.

Each diagram encodes the feasible set of one integer linear row over its
support, ordered by the global variable order.  Every root-to-true path
visits every support level exactly once, so nodes whose two children agree
are kept rather than skipped.

A diagram keeps each node's two arcs, a liveness flag and an incoming-arc
counter, but no parent lists.  Fixing a variable kills arcs on one level;
nodes left with no incoming arc are removed by following arcs down, and
nodes left with both arcs dead are removed one level at a time going up,
each step scanning the level above for arcs into the nodes just removed.

Mutations (arc redirects, node removals) are written as `(diagram, entry)`
undo records to a `Trail`.  A lone diagram gets a trail of its own at its
first checkpoint; the rounding search attaches all diagrams to one shared
trail, so a checkpoint is a single mark on it and a rollback undoes only
the records written since that mark, whichever diagrams they belong to.
Restoration is bit-exact.
"""

from __future__ import annotations

from .model import LinearConstraint, Relation

FALSE = 0
TRUE = 1

DEFAULT_STATE_BUDGET = 1 << 22
DEFAULT_ENUMERATION_CAP = 25

_ARC = 0
_DEACT = 1


class BddError(Exception):
    pass


class BddBuildError(BddError):
    """Construction exceeded the per-level state budget."""


class Trail:
    """Undo records of every diagram attached to it, oldest first.

    A checkpoint marks the current record count under a token that is never
    reused; rolling back to it pops the records written since, restoring
    each diagram's arcs, liveness and arc counters, and closes every
    checkpoint opened after it.
    """

    __slots__ = ("records", "marks", "_last_token")

    def __init__(self):
        self.records = []  # (diagram, entry), oldest first
        self.marks = []  # (token, record count), oldest first
        self._last_token = 0

    def attach(self, bdds):
        """Record the mutations of `bdds` here; returns their previous trails."""
        previous = [b.trail for b in bdds]
        for b in bdds:
            b.trail = self
        return previous

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
        while len(records) > keep:
            bdd, entry = records.pop()
            indeg = bdd.indeg
            if entry[0] == _ARC:
                _, u, bit, old = entry
                arr = bdd.hi if bit else bdd.lo
                indeg[arr[u]] -= 1
                arr[u] = old
                indeg[old] += 1
            else:
                v = entry[1]
                bdd.alive[v] = True
                indeg[bdd.lo[v]] += 1
                indeg[bdd.hi[v]] += 1


class Bdd:
    """Leveled decision diagram for one constraint.

    Node ids are integers; 0 and 1 are the false/true terminals, internal
    nodes start at 2 and are numbered level by level in creation order, so
    two builds of the same row are identical.
    """

    __slots__ = (
        "constraint_name",
        "support",
        "root",
        "lo",
        "hi",
        "level_nodes",
        "alive",
        "indeg",
        "trail",
    )

    def __init__(self, constraint_name, support, root, lo, hi, level_nodes, indeg):
        self.constraint_name = constraint_name
        self.support = tuple(support)
        self.root = root
        self.lo = lo
        self.hi = hi
        self.level_nodes = level_nodes
        self.alive = [True] * len(lo)
        self.indeg = indeg
        self.trail = None  # made by the first checkpoint unless attached to a shared one

    # -- queries ------------------------------------------------------------

    @property
    def num_levels(self):
        return len(self.support)

    @property
    def journal(self):
        """This diagram's undo entries on its trail, oldest first."""
        if self.trail is None:
            return []
        return [entry for owner, entry in self.trail.records if owner is self]

    def level_of(self, var):
        return self.support.index(var)

    def is_empty(self):
        if self.root == FALSE:
            return True
        if self.root == TRUE:
            return False
        return self.indeg[TRUE] == 0

    def node_count(self):
        """Live internal nodes."""
        return sum(self.alive[2:]) if len(self.alive) > 2 else 0

    def live_nodes(self, level):
        alive = self.alive
        return [v for v in self.level_nodes[level] if alive[v]]

    def solutions(self, cap=DEFAULT_ENUMERATION_CAP):
        """All satisfying assignments over the support, as 0/1 tuples."""
        if len(self.support) > cap:
            raise BddError(f"support of {len(self.support)} exceeds enumeration cap {cap}")
        if self.is_empty():
            return set()
        if self.root == TRUE:
            return {()}
        out = set()
        lo, hi = self.lo, self.hi
        stack = [(self.root, ())]
        while stack:
            v, prefix = stack.pop()
            for bit, child in ((0, lo[v]), (1, hi[v])):
                if child == FALSE:
                    continue
                path = prefix + (bit,)
                if child == TRUE:
                    out.add(path)
                else:
                    stack.append((child, path))
        return out

    def forced_literals(self):
        """(variable, value) pairs forced on every remaining true-path.

        A level forces value 1 when every live node's 0-arc is dead, and 0
        symmetrically.
        """
        if self.root == TRUE or self.is_empty():
            return []
        lo, hi, alive = self.lo, self.hi, self.alive
        forced = []
        for lev, var in enumerate(self.support):
            all_lo_dead = True
            all_hi_dead = True
            for v in self.level_nodes[lev]:
                if not alive[v]:
                    continue
                if lo[v] != FALSE:
                    all_lo_dead = False
                if hi[v] != FALSE:
                    all_hi_dead = False
                if not (all_lo_dead or all_hi_dead):
                    break
            if all_lo_dead:
                forced.append((var, 1))
            elif all_hi_dead:
                forced.append((var, 0))
        return forced

    # -- mutation -----------------------------------------------------------

    def checkpoint(self):
        """Mark the trail; on a shared trail this covers every diagram on it."""
        if self.trail is None:
            self.trail = Trail()
        return self.trail.checkpoint()

    def rollback(self, token):
        """Undo every mutation on the trail after `token`."""
        if self.trail is None:
            raise BddError(f"unknown checkpoint {token!r}")
        self.trail.rollback(token)

    def fix(self, var, value):
        """Restrict to assignments with var == value; False means emptied.

        Requires an open checkpoint on the diagram's trail so the restriction
        can be undone.  Arcs for the discarded value are redirected to the
        false terminal, and nodes left with no incoming arc are removed,
        cascading down.  Nodes left with both arcs dead are removed one
        level at a time going up: each step scans the level above for arcs
        into the nodes just removed, redirects them to the false terminal
        and collects the nodes that leaves dead, until a step removes
        nothing or the root goes.  Levels are narrow, so the scans stand in
        for parent lists, which diagrams do not keep.
        """
        if self.trail is None or not self.trail.marks:
            raise BddError("fix requires an open checkpoint")
        if self.root == FALSE:
            return False
        try:
            lev = self.support.index(var)
        except ValueError:
            raise BddError(f"variable {var} not in support") from None
        lo, hi, alive, indeg, journal = self.lo, self.hi, self.alive, self.indeg, self.trail.records
        arr = lo if value else hi
        bit = 0 if value else 1
        dead = []
        for v in self.level_nodes[lev]:
            if not alive[v]:
                continue
            target = arr[v]
            if target != FALSE:
                journal.append((self, (_ARC, v, bit, target)))
                arr[v] = FALSE
                indeg[FALSE] += 1
                indeg[target] -= 1
                if target >= 2:
                    if indeg[target] == 0:
                        self._remove_unreachable(target)
                elif target == TRUE and indeg[TRUE] == 0:
                    return False
            if lo[v] == FALSE and hi[v] == FALSE:
                dead.append(v)
        while dead:
            for v in dead:
                journal.append((self, (_DEACT, v)))
                alive[v] = False
                indeg[FALSE] -= 2
            if lev == 0:
                return False  # the root went
            lev -= 1
            dead = []
            for u in self.level_nodes[lev]:
                if not alive[u]:
                    continue
                # a live node's arc reaches a removed node only if it was just removed
                child = lo[u]
                if not alive[child]:
                    journal.append((self, (_ARC, u, 0, child)))
                    lo[u] = FALSE
                    indeg[FALSE] += 1
                    indeg[child] -= 1
                child = hi[u]
                if not alive[child]:
                    journal.append((self, (_ARC, u, 1, child)))
                    hi[u] = FALSE
                    indeg[FALSE] += 1
                    indeg[child] -= 1
                if lo[u] == FALSE and hi[u] == FALSE:
                    dead.append(u)
        return indeg[TRUE] > 0

    def _remove_unreachable(self, start):
        """Drop nodes with no incoming arcs, cascading toward the terminals."""
        lo, hi, alive, indeg, journal = self.lo, self.hi, self.alive, self.indeg, self.trail.records
        stack = [start]
        while stack:
            v = stack.pop()
            if not alive[v]:
                continue
            journal.append((self, (_DEACT, v)))
            alive[v] = False
            for child in (lo[v], hi[v]):
                indeg[child] -= 1
                if child >= 2 and indeg[child] == 0:
                    stack.append(child)

    # -- diagnostics ----------------------------------------------------------

    def to_dot(self, var_names=None):
        """GraphViz text: dotted 0-arcs, solid 1-arcs, boxed terminals."""
        label = (lambda i: var_names[i]) if var_names is not None else (lambda i: f"x{i}")
        lines = [f"digraph \"{self.constraint_name}\" {{", "  rankdir=TB;"]
        lines.append('  t1 [label="T", shape=box];')
        lines.append('  t0 [label="F", shape=box];')
        if self.root >= 2:
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

    def check_invariants(self, reduced=False):
        """Raise unless the live graph is a well-formed leveled diagram.

        `reduced` additionally requires no two live same-level nodes to share
        both children (guaranteed for fresh builds, not after fixation).
        """
        if self.root in (TRUE, FALSE):
            return
        k = self.num_levels
        node_level = [-1] * len(self.lo)
        live = set()
        for lev in range(k):
            for v in self.level_nodes[lev]:
                if node_level[v] != -1:
                    raise BddError("node filed under two levels")
                node_level[v] = lev
                if self.alive[v]:
                    live.add(v)
        if self.is_empty():
            return
        if not self.alive[self.root] or node_level[self.root] != 0:
            raise BddError("root is not a live level-0 node")
        # arcs stay inside the next level or hit a terminal; true-arcs only from the last level
        reach = {self.root}
        for lev in range(k):
            for v in self.level_nodes[lev]:
                if not self.alive[v]:
                    continue
                for child in (self.lo[v], self.hi[v]):
                    if child == FALSE:
                        continue
                    if child == TRUE:
                        if lev != k - 1:
                            raise BddError("true terminal reached before the last level")
                    else:
                        if not self.alive[child]:
                            raise BddError("live node points at a removed node")
                        if node_level[child] != lev + 1:
                            raise BddError("arc skips a level")
                        if v in reach:
                            reach.add(child)
        if reach != live:
            raise BddError("live nodes unreachable from the root")
        # every live node can still reach the true terminal
        can = {TRUE}
        for lev in range(k - 1, -1, -1):
            for v in self.level_nodes[lev]:
                if self.alive[v] and (self.lo[v] in can or self.hi[v] in can):
                    can.add(v)
        if live - can:
            raise BddError("live node cut off from the true terminal")
        # incoming-arc counters agree with the arcs
        counts = [0] * len(self.lo)
        for v in live:
            counts[self.lo[v]] += 1
            counts[self.hi[v]] += 1
        for v in live | {TRUE}:
            if counts[v] != self.indeg[v]:
                raise BddError("incoming-arc counter out of sync")
        if reduced:
            for lev in range(k):
                pairs = set()
                for v in self.live_nodes(lev):
                    key = (self.lo[v], self.hi[v])
                    if key in pairs:
                        raise BddError("two same-level nodes share both children")
                    pairs.add(key)


def _sentinel(constraint_name, support, satisfiable):
    k = len(support)
    return Bdd(
        constraint_name,
        support,
        TRUE if satisfiable else FALSE,
        [FALSE, FALSE],
        [FALSE, FALSE],
        [[] for _ in range(k)],
        [0, 0],
    )


def build_bdd(constraint: LinearConstraint, positions=None, state_budget=DEFAULT_STATE_BUDGET) -> Bdd:
    """Compile one row into a reduced leveled diagram.

    Support is sorted by `positions` (global order ranks; identity when
    omitted).  A dynamic program walks partial sums, collapsing residuals
    that admit every completion or none; a bottom-up pass then merges nodes
    with equal children and drops states that cannot reach the true terminal.
    Unsatisfiable rows give an empty sentinel.
    """
    if positions is None:
        key = lambda i: i
    else:
        key = positions.__getitem__
    support = sorted(constraint.support(), key=key)
    coeff_of = dict(constraint.terms)
    coeffs = [coeff_of[i] for i in support]
    rhs = constraint.rhs
    relation = constraint.relation
    if relation is Relation.GE:
        coeffs = [-a for a in coeffs]
        rhs = -rhs
        relation = Relation.LE
    k = len(support)
    if k == 0:
        ok = (0 == rhs) if relation is Relation.EQ else (0 <= rhs)
        return _sentinel(constraint.name, support, ok)

    suffix_min = [0] * (k + 1)
    suffix_max = [0] * (k + 1)
    for t in range(k - 1, -1, -1):
        a = coeffs[t]
        suffix_min[t] = suffix_min[t + 1] + (a if a < 0 else 0)
        suffix_max[t] = suffix_max[t + 1] + (a if a > 0 else 0)

    exact = relation is Relation.EQ

    def normalize(r, lev):
        if r < suffix_min[lev]:
            return None
        if exact:
            return r if r <= suffix_max[lev] else None
        return r if r < suffix_max[lev] else suffix_max[lev]

    root_state = normalize(rhs, 0)
    if root_state is None:
        return _sentinel(constraint.name, support, False)

    # forward dynamic program over residuals; children encoded as terminal
    # ids or next-level local index + 2
    layer = {root_state: 0}
    children = []
    for lev in range(k):
        a = coeffs[lev]
        nxt = {}
        row = []
        last = lev + 1 == k
        for r in layer:
            pair = []
            for bit in (0, 1):
                r2 = r - a if bit else r
                if last:
                    sat = (r2 == 0) if exact else (r2 >= 0)
                    pair.append(TRUE if sat else FALSE)
                    continue
                rn = normalize(r2, lev + 1)
                if rn is None:
                    pair.append(FALSE)
                    continue
                local = nxt.get(rn)
                if local is None:
                    local = len(nxt)
                    if local >= state_budget:
                        raise BddBuildError(
                            f"constraint {constraint.name!r} exceeds the per-level state budget"
                        )
                    nxt[rn] = local
                pair.append(local + 2)
            row.append((pair[0], pair[1]))
        children.append(row)
        layer = nxt

    # bottom-up reduction: merge equal-children states, drop dead ends
    reduced = [None] * k
    rep_below = None
    for lev in range(k - 1, -1, -1):
        seen = {}
        kept = []
        reps = []
        for lo_c, hi_c in children[lev]:
            l = lo_c if lo_c < 2 else rep_below[lo_c - 2]
            h = hi_c if hi_c < 2 else rep_below[hi_c - 2]
            if l == FALSE and h == FALSE:
                reps.append(FALSE)
                continue
            token = seen.get((l, h))
            if token is None:
                token = len(kept) + 2
                seen[(l, h)] = token
                kept.append((l, h))
            reps.append(token)
        reduced[lev] = kept
        rep_below = reps
    root_token = rep_below[0]
    if root_token == FALSE:
        return _sentinel(constraint.name, support, False)

    # top-down assembly in first-reference order gives deterministic ids
    level_tokens = []
    current = [root_token]
    for lev in range(k):
        level_tokens.append(current)
        nxt = []
        seen = set()
        for t in current:
            for child in reduced[lev][t - 2]:
                if child >= 2 and child not in seen:
                    seen.add(child)
                    nxt.append(child)
        current = nxt

    ids = []
    next_id = 2
    for lev in range(k):
        mapping = {}
        for t in level_tokens[lev]:
            mapping[t] = next_id
            next_id += 1
        ids.append(mapping)
    total = next_id
    lo = [FALSE] * total
    hi = [FALSE] * total
    level_nodes = []
    for lev in range(k):
        mapping = ids[lev]
        level_nodes.append(list(mapping.values()))
        below = ids[lev + 1] if lev + 1 < k else None
        for t, v in mapping.items():
            l, h = reduced[lev][t - 2]
            lo[v] = l if l < 2 else below[l]
            hi[v] = h if h < 2 else below[h]

    indeg = [0] * total
    for lev in range(k):
        for v in level_nodes[lev]:
            indeg[lo[v]] += 1
            indeg[hi[v]] += 1

    return Bdd(constraint.name, support, 2, lo, hi, level_nodes, indeg)
