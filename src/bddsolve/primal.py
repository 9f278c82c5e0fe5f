"""Depth-first rounding of a dual state into a feasible assignment.

Variables are ordered and given preferred values by their aggregated
min-marginal difference (the margin): the sum over covering diagrams of
"cost of taking 1 minus cost of taking 0" under the current cost split.  A
nonpositive margin prefers 1.  The search is one decision loop: each turn
makes one branch attempt, fixing a variable in every covering diagram and
propagating the literals the diagrams then force.  A successful attempt
pushes a frame and moves to the next unassigned variable; a failed one is
undone and its variable's other value is tried next; when both values fail,
the loop climbs chronologically to the newest frame whose other value is
still untried.  All diagrams share one undo trail for the whole search:
each attempt opens a single checkpoint on it, and unwinding a branch pops
only the records that branch wrote, restoring the diagrams bit for bit.
Budgets cap the number of branch attempts; exhausting the tree without a
budget stop is a proof of infeasibility.

Margins always come from the dual's min-sum kernels over the raw cost
copies, whether or not the dual ascent was smoothed: `DualState.margins`
reads them on either message store.  Each variable's covering diagrams
come from the decomposition (`state.covering`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bdd import TRUE, Trail

INF = math.inf

NEG_MARGIN = "neg_mm"
ABS_MARGIN = "abs_mm"
COUNT_ALIGNED = "reduction_aligned"
STRATEGIES = (NEG_MARGIN, ABS_MARGIN, COUNT_ALIGNED)

SOLVED = "solved"
BUDGET = "budget"
INFEASIBLE = "infeasible"


@dataclass
class PrimalScores:
    """Variable margins and the derived search order.

    margins[i] is the aggregated min-marginal difference of variable i
    (+inf/-inf when some diagram forces it, NaN on a forced conflict);
    preference[i] the value tried first; order lists covered variables,
    most urgent first.
    """

    margins: dict
    preference: dict
    order: list


@dataclass
class PrimalResult:
    """Search outcome and effort.

    attempts counts branch tries, conflicts the tries that failed,
    backtracks the frames popped while climbing, max_depth the peak
    number of open frames, and propagated the literals assigned by
    propagation rather than by a decision, summed over every attempt,
    undone ones included.
    """

    status: str  # "solved" | "budget" | "infeasible"
    assignment: dict | None
    attempts: int
    conflicts: int = 0
    backtracks: int = 0
    max_depth: int = 0
    propagated: int = 0


def compute_scores(state, strategy=NEG_MARGIN) -> PrimalScores:
    """Score every covered variable from its min-sum margins.

    The margins are `state.margins()`, read afresh from the current cost
    copies (after fixing diagrams, `refresh` the state first).  neg_mm
    ranks by -margin (strong 1-preferences first), abs_mm by |margin|
    (most decided first), reduction_aligned by margin signed with the
    diagrams' solution-count imbalance (most contentious first); path
    counts are taken only for that strategy (see `_count_imbalance`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    margins = state.margins()
    if strategy == COUNT_ALIGNED:
        counts = _count_imbalance(state.bdds)

    preference = {}
    score = {}
    for var, m in margins.items():
        preference[var] = 1 if m <= 0 else 0  # NaN compares false -> 0
        if math.isnan(m):
            score[var] = INF  # conflicting forcings: fail fast
        elif strategy == NEG_MARGIN:
            score[var] = -m
        elif strategy == ABS_MARGIN:
            score[var] = abs(m)
        else:
            r = counts[var]
            score[var] = 0.0 if r == 0 else (m if r > 0 else -m)
    order = sorted(margins, key=lambda v: (-score[v], v))
    return PrimalScores(margins, preference, order)


def _count_imbalance(bdds):
    """`{var: n1 - n0}`, summed in diagram order over the diagrams covering var.

    n0/n1 are a diagram's accepted paths with var at 0/1 (`_path_counts`).
    A diagram whose arcs are as built reads them off its template, where
    they are counted once for every row of its shape (on grid 3 sweeps
    serve 9,600 rows); a diagram a fix has changed is swept on its own.
    """
    counts = {}
    for bdd in bdds:
        for var, (n0, n1) in zip(bdd.support, bdd.derived(_path_counts)):
            counts[var] = counts.get(var, 0) + (n1 - n0)
    return counts


def _path_counts(diagram):
    """Per-level (accepted paths with the level's variable at 0, same at 1).

    Exact integers from one backward and one forward sweep over the arcs
    of a diagram: a `Bdd`'s live ones, or a `Template`'s as built.  A
    node's forward count is final before its level is read, since arcs
    only reach the next level or a terminal.  A removed node has both arcs
    on the false terminal, so it counts 0 paths.
    """
    lo, hi = diagram.lo, diagram.hi
    bw = [0] * len(lo)
    bw[TRUE] = 1
    for nodes in reversed(diagram.level_nodes):
        for v in nodes:
            bw[v] = bw[lo[v]] + bw[hi[v]]
    fw = [0] * len(lo)
    fw[diagram.root] = 1
    out = []
    for nodes in diagram.level_nodes:
        n0 = n1 = 0
        for v in nodes:
            base = fw[v]
            n0 += base * bw[lo[v]]
            n1 += base * bw[hi[v]]
            fw[lo[v]] += base
            fw[hi[v]] += base
        out.append((n0, n1))
    return out


def checkpoint_all(bdds):
    """Open one checkpoint on the trail `bdds` share; returns its token."""
    return bdds[0].trail.checkpoint()


def rollback_all(bdds, mark):
    """Undo every mutation on the trail `bdds` share since `mark`."""
    bdds[0].trail.rollback(mark)


def restriction_propagation(bdds, covering, assignment, var, value, newly):
    """Fix var=value everywhere it appears, then chase forced literals.

    Returns False as soon as some diagram empties or a forced literal
    contradicts an existing assignment; the caller rolls back.  On success
    `assignment` has gained the variable and everything it implied, all
    appended to `newly` for the caller's undo list.  Every touched diagram
    must have an open checkpoint on its trail.  `covering[v]` lists the
    diagrams covering variable v, as `DualState.covering` does.

    A diagram's forced literals are read after each fix that wrote a trail
    record, and after every fix of a diagram that forced a literal as built
    (its template's `forced` is not empty).  A fix that wrote nothing left
    the diagram as its last read found it, so that read's literals are
    already assigned or queued.  This holds when every change to the
    diagrams since they were built came from earlier calls whose implied
    literals are all in `assignment` and whose changes are undone with
    them, as in `primal_search`.
    """
    queue = [(var, value)]
    qi = 0
    while qi < len(queue):
        v, b = queue[qi]
        qi += 1
        prev = assignment.get(v)
        if prev is not None:
            if prev != b:
                return False
            continue
        assignment[v] = b
        newly.append(v)
        for j in covering[v]:
            bdd = bdds[j]
            records = bdd.trail.records
            written = len(records)
            if not bdd.fix(v, b):
                return False
            if written == len(records) and not bdd.template.forced:
                continue
            for fv, fb in bdd.forced_literals():
                prev = assignment.get(fv)
                if prev is None:
                    queue.append((fv, fb))
                elif prev != fb:
                    return False
    return True


def primal_search(state, preassigned=None, strategy=NEG_MARGIN, budget=None) -> PrimalResult:
    """Search for a feasible assignment guided by the dual's margins.

    `preassigned` values (e.g. variables no diagram covers) are adopted
    as-is.  `budget` caps branch attempts (None = unlimited; an exhausted
    budget reports "budget", never "infeasible").  The search attaches the
    diagrams to one fresh trail; on every exit path they are restored to
    their entry state and left attached to it, with the trail empty.
    """
    bdds = state.bdds
    covering = state.covering
    scores = compute_scores(state, strategy)
    assignment = dict(preassigned or {})
    order = scores.order
    attempts = conflicts = backtracks = max_depth = propagated = 0
    Trail().attach(bdds)

    frames = []  # (order index, flipped, mark, newly)
    idx = 0
    flipped = False  # the next attempt takes order[idx]'s other value
    while True:
        if not flipped:
            while idx < len(order) and order[idx] in assignment:
                idx += 1
            if idx == len(order):
                status = SOLVED
                break
        if budget is not None and attempts >= budget:
            status = BUDGET
            break
        var = order[idx]
        value = scores.preference[var]
        if flipped:
            value = 1 - value
        attempts += 1
        mark = checkpoint_all(bdds)
        newly = []
        ok = restriction_propagation(bdds, covering, assignment, var, value, newly)
        propagated += len(newly) - 1  # all but the decision itself
        if ok:
            frames.append((idx, flipped, mark, newly))
            max_depth = max(max_depth, len(frames))
            flipped = False
            continue
        conflicts += 1
        for v in newly:
            del assignment[v]
        rollback_all(bdds, mark)
        if not flipped:
            flipped = True
            continue
        # both values failed here: climb to the newest frame with a flip left
        while frames:
            idx, flipped, mark, newly = frames.pop()
            backtracks += 1
            for v in newly:
                del assignment[v]
            rollback_all(bdds, mark)
            if not flipped:
                flipped = True
                break
        else:
            status = INFEASIBLE
            break

    result = dict(assignment) if status == SOLVED else None
    if frames:  # one rollback to the oldest checkpoint undoes everything
        rollback_all(bdds, frames[0][2])
    return PrimalResult(status, result, attempts, conflicts, backtracks, max_depth, propagated)
