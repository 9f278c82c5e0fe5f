"""Diagram queries that only the tests use: undo records and fresh trails, levels, slots,
path enumeration, and the structural invariant check."""

from bddsolve import bdd as _bdd
from bddsolve.bdd import FALSE, TRUE, BddError, Trail

DEFAULT_ENUMERATION_CAP = 25


def fresh_build(constraint, support=None, state_budget=_bdd.DEFAULT_STATE_BUDGET):
    """`build_bdd` compiled anew, sharing nothing: the process cache is emptied before and after.

    Its template is then the diagram's own, so the diagram can serve as the
    fresh oracle of a cached build.
    """
    _bdd.TEMPLATES.clear()
    diagram = _bdd.build_bdd(constraint, support, state_budget)
    _bdd.TEMPLATES.clear()
    return diagram


def trail_records(trail, bdds):
    """`(diagram, (node, bit, old child))` per undo record of `trail`, oldest first.

    A record names only the arc list it changed; `bdds` must include every
    diagram that owns one of them.
    """
    owner = {}
    for b in bdds:
        owner[id(b.lo)] = (b, 0)
        owner[id(b.hi)] = (b, 1)
    flat = trail.records
    out = []
    for k in range(0, len(flat), 3):
        bdd, bit = owner[id(flat[k])]
        out.append((bdd, (flat[k + 1], bit, flat[k + 2])))
    return out


def fresh_trail(*bdds):
    """Attach `bdds` to a new trail and return it; `fix` then needs a checkpoint on it."""
    trail = Trail()
    trail.attach(bdds)
    return trail


def journal(bdd):
    """This diagram's undo entries on its trail, oldest first."""
    if bdd.trail is None:
        return []
    flat = bdd.trail.records
    return [
        (flat[k + 1], bit, flat[k + 2])
        for k in range(0, len(flat), 3)
        for bit, arcs in ((0, bdd.lo), (1, bdd.hi))
        if flat[k] is arcs
    ]


def level_of(bdd, var):
    return bdd.support.index(var)


def slot_map(bdds):
    """Per variable its `(diagram, level)` pairs, diagrams in order."""
    slots = {}
    for j, b in enumerate(bdds):
        for lev, var in enumerate(b.support):
            slots.setdefault(var, []).append((j, lev))
    return slots


def solutions(bdd, cap=DEFAULT_ENUMERATION_CAP):
    """All satisfying assignments over the support, as 0/1 tuples."""
    if len(bdd.support) > cap:
        raise BddError(f"support of {len(bdd.support)} exceeds enumeration cap {cap}")
    if bdd.is_empty():
        return set()
    if bdd.root == TRUE:
        return {()}
    out = set()
    lo, hi = bdd.lo, bdd.hi
    stack = [(bdd.root, ())]
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


def check_invariants(bdd, reduced=False):
    """Raise unless the live graph is a well-formed leveled diagram.

    `reduced` additionally requires what holds only for fresh builds, not
    after fixation: no two live same-level nodes share both children, and
    the ids follow the builder's first-reference numbering.
    """
    if bdd.root in (TRUE, FALSE):
        return
    k = bdd.num_levels
    lo, hi = bdd.lo, bdd.hi
    node_level = [-1] * len(lo)
    for lev in range(k):
        for v in bdd.level_nodes[lev]:
            if node_level[v] != -1:
                raise BddError("node filed under two levels")
            node_level[v] = lev
    live_levels = [bdd.live_nodes(lev) for lev in range(k)]
    if bdd.is_empty():
        # the root is removed only once every path is gone
        if any(live_levels):
            raise BddError("live node in an emptied diagram")
        return
    live = {v for nodes in live_levels for v in nodes}
    if bdd.root not in live or node_level[bdd.root] != 0:
        raise BddError("root is not a live level-0 node")
    # arcs stay inside the next level or hit a terminal; true-arcs only from the last level
    reach = {bdd.root}
    for lev in range(k):
        for v in live_levels[lev]:
            for child in (lo[v], hi[v]):
                if child == FALSE:
                    continue
                if child == TRUE:
                    if lev != k - 1:
                        raise BddError("true terminal reached before the last level")
                else:
                    if child not in live:
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
        for v in live_levels[lev]:
            if lo[v] in can or hi[v] in can:
                can.add(v)
    if live - can:
        raise BddError("live node cut off from the true terminal")
    if reduced:
        for nodes in live_levels:
            pairs = set()
            for v in nodes:
                key = (lo[v], hi[v])
                if key in pairs:
                    raise BddError("two same-level nodes share both children")
                pairs.add(key)
        # ids run 2, 3, ... level by level in first-reference order from the
        # root, 0-child before 1-child, and level_nodes lists them in that order
        expect = [bdd.root]
        next_id = 2
        for lev in range(k):
            if expect != list(range(next_id, next_id + len(expect))):
                raise BddError("nodes not numbered in first-reference order")
            if list(bdd.level_nodes[lev]) != expect:
                raise BddError("level_nodes not in first-reference order")
            next_id += len(expect)
            seen = set()
            nxt = []
            for v in expect:
                for child in (lo[v], hi[v]):
                    if child >= 2 and child not in seen:
                        seen.add(child)
                        nxt.append(child)
            expect = nxt
        if len(lo) != next_id:
            raise BddError("node ids do not run without gaps")
