"""Diagram queries that only the tests use: undo records, levels, slots, and path enumeration."""

from bddsolve.bdd import FALSE, TRUE, BddError

DEFAULT_ENUMERATION_CAP = 25


def trail_records(trail):
    """`(diagram, (node, bit, old child))` per undo record of `trail`, oldest first."""
    flat = trail.records
    return [(flat[k], (flat[k + 1] >> 1, flat[k + 1] & 1, flat[k + 2])) for k in range(0, len(flat), 3)]


def journal(bdd):
    """This diagram's undo entries on its trail, oldest first."""
    if bdd.trail is None:
        return []
    return [entry for owner, entry in trail_records(bdd.trail) if owner is bdd]


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
