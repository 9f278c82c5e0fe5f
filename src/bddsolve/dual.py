"""Lagrangean dual ascent by min-marginal averaging.

The objective is split into one copy of each shared variable per covering
row-diagram; the dual problem is to shift cost between the copies so the
sum of per-diagram optima grows.  One coordinate step reads, for a single
variable, each covering diagram's pair of value-conditioned optima
(min-marginals), subtracts the difference from that diagram's copy, and
redistributes the collected total over an averaging set -- every covering
diagram, or (srmp mode) only those the current sweep will visit again.
Every step provably never lowers the bound; sweeps alternate forward and
backward over the variable order, keeping forward/backward node values
current incrementally so a full sweep costs one message update per node.
A diagram's optimum is its cheapest root-to-true path: a forward pass
leaves it at the true terminal's forward value, a backward pass at the
root's backward value.

With smoothing alpha > 0 marginals become soft minima at temperature
alpha, smin(a, b) = -alpha*log(exp(-a/alpha) + exp(-b/alpha)); the uniform
update then equalises the smoothed differences exactly, which is the exact
coordinate optimum of the smoothed dual, so monotonicity still holds.  Srmp
plus smoothing carries no such guarantee.  Both algebras keep every message
in cost units, so node values, energies and marginals read the same way
whatever the temperature.

A step's diffs m1 - m0 come from plain IEEE subtraction (+inf: the diagram
forces the variable to 0, -inf: to 1, nan: it is empty), and only a
non-finite sum leaves the averaging path.  Diagrams forcing the variable
agree -> the finite diffs are dumped on the forcing diagrams (their optimum
can absorb shifts for free on the side they force); they disagree, or one
is empty -> the instance is proven infeasible and the bound becomes +inf.

A coordinate step is one `mma_update` call: it reads the marginals at
every covering level, shifts the copies, and advances the messages at
those levels (forward: the values of the level below, the true terminal's
below the last level; backward: the level's own), with the kernel
arithmetic written inline over level records the `DualState` builds once.
A whole diagram is swept by `_bsweep` (backward, either algebra) for
`refresh` and `min_marginals`, and by the min-sum `_marg_min` and
`_scatter_min` for the forward half of `min_marginals`, a fresh sweep over
one diagram, which is where the rounding search reads its margins.  A
`DualState` picks its algebra once, from its smoothing.  The generic
reference sweeps the kernels are tested against live with the tests.

No kernel skips a removed node, and all are exact on restricted diagrams
too, because a removed node has both arcs on the false terminal and no
live node points at it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .bdd import FALSE, TRUE
from .model import MAX_OBJECTIVE

INF = math.inf

UNIFORM = "uniform"
SRMP = "srmp"

DEFAULT_MAX_PASSES = 1000
DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TraceEntry:
    pass_index: int
    direction: str
    lower_bound: float
    time_ms: float


@dataclass
class DualReport:
    lower_bound: float
    passes: int
    termination: str  # "converged" | "pass_limit" | "infeasible"
    trace: list = field(default_factory=list)


class DualState:
    """Diagrams, per-diagram cost copies, and their message arrays.

    `duals[j][lev]` is diagram j's copy of the cost of the variable at its
    level `lev`; copies of one variable always sum to the variable's
    objective coefficient.  `fw`/`bw` hold forward/backward node values and
    `energies[j]` the latest per-diagram optimum, all in cost units for
    either algebra; `infeasible` latches once any update proves the
    constraint set empty.  The algebra is chosen once, here: `smin` is None
    for min-sum, else the soft minimum at temperature `smoothing`.

    `sweeps[forward][var]` is `(records, members, count)` for a step in
    that direction, fixed once.  `records` holds one level record per
    covering diagram, `(fw[j], bw[j], duals[j], lev, level nodes, nodes
    below, lo, hi)`, where the nodes below the last level are `(TRUE,)`; a
    record refers to the live lists, so fixation and rollback show through
    it, and both directions share it.  `members` flags per record whether
    the diagram shares the step's averaged total (uniform: every one;
    srmp: those with a level still ahead, or every one if none has), and
    `count` is the number of members.
    """

    def __init__(self, bdds, decomposition, duals, smoothing, averaging):
        self.bdds = bdds
        self.duals = duals
        self.smoothing = smoothing
        self.averaging = averaging
        self.smin = _soft_min(smoothing) if smoothing > 0 else None
        self.infeasible = False
        self.fw = [[INF] * len(b.lo) for b in bdds]
        self.bw = [[INF] * len(b.lo) for b in bdds]
        self.energies = [0.0] * len(bdds)
        self.slots = {}
        records = {}
        last = [len(b.support) - 1 for b in bdds]
        for j, b in enumerate(bdds):
            fwj, bwj, costs, lo, hi, nodes = self.fw[j], self.bw[j], duals[j], b.lo, b.hi, b.level_nodes
            for lev, var in enumerate(b.support):
                self.slots.setdefault(var, []).append((j, lev))
                below = nodes[lev + 1] if lev < last[j] else (TRUE,)
                records.setdefault(var, []).append((fwj, bwj, costs, lev, nodes[lev], below, lo, hi))
        interned = {}  # equal member tuples share one object

        def entry(recs, ahead):
            members = ahead if averaging == SRMP and True in ahead else (True,) * len(ahead)
            members = interned.setdefault(members, members)
            return recs, members, sum(members)

        self.sweeps = {True: {}, False: {}}
        for var, slots in self.slots.items():
            recs = tuple(records[var])
            self.sweeps[True][var] = entry(recs, tuple([lev < last[j] for j, lev in slots]))
            self.sweeps[False][var] = entry(recs, tuple([lev > 0 for _, lev in slots]))
        self.active = [i for i in decomposition.order if decomposition.var_subproblems[i]]

    def dual_value(self):
        """Current sum of per-diagram optima (raw: no offset, no free vars)."""
        if self.infeasible:
            return INF
        return sum(self.energies)

    def refresh(self):
        """Recompute every backward value and energy; reseed forward roots.

        Needed once after construction and after any direct surgery on
        `duals`; passes keep the arrays current on their own.  A diagram
        whose root is the true terminal has no levels, so its seeded
        forward value stays its optimum.
        """
        for j, bdd in enumerate(self.bdds):
            bwj = self.bw[j]
            _bsweep(bdd, bwj, self.duals[j], self.smin)
            self.energies[j] = bwj[bdd.root]
            if bdd.root != FALSE:
                self.fw[j][bdd.root] = 0.0
        if any(e == INF for e in self.energies):
            self.infeasible = True


def init_duals(bdds, decomposition, objective, smoothing=0.0, averaging=UNIFORM) -> DualState:
    """Split each covered variable's cost equally over its diagrams.

    The diagrams must agree level-for-level with the decomposition's
    supports (both sort by the global order).  Ends with a `refresh`, so
    the state is immediately ready for a forward pass.
    """
    if averaging not in (UNIFORM, SRMP):
        raise ValueError(f"unknown averaging mode {averaging!r}")
    if not 0 <= smoothing <= MAX_OBJECTIVE:  # NaN fails too
        raise ValueError(f"smoothing must lie in [0, 2^60], got {smoothing!r}")
    duals = []
    for j, bdd in enumerate(bdds):
        if tuple(bdd.support) != tuple(decomposition.subproblem_vars[j]):
            raise ValueError(f"diagram {j} disagrees with the decomposition's support")
        duals.append(
            [float(objective[i]) / len(decomposition.var_subproblems[i]) for i in bdd.support]
        )
    state = DualState(list(bdds), decomposition, duals, smoothing, averaging)
    state.refresh()
    return state


# -- message kernels ---------------------------------------------------------------
#
# `cost` is the cost copy on the 1-arcs of the level; 0-arcs are free.  Every
# value is in cost units, +inf where no path exists.


def _marg_min(bdd, fwj, bwj, level, cost):
    lo, hi = bdd.lo, bdd.hi
    m0 = m1 = INF
    for v in bdd.level_nodes[level]:
        base = fwj[v]
        a = base + bwj[lo[v]]
        if a < m0:
            m0 = a
        b = base + cost + bwj[hi[v]]
        if b < m1:
            m1 = b
    return m0, m1


def _scatter_min(bdd, fwj, level, cost):
    lo, hi = bdd.lo, bdd.hi
    for v in bdd.level_nodes[level + 1]:
        fwj[v] = INF
    for v in bdd.level_nodes[level]:
        base = fwj[v]
        c = lo[v]
        if c >= 2 and base < fwj[c]:
            fwj[c] = base
        c = hi[v]
        if c >= 2:
            b = base + cost
            if b < fwj[c]:
                fwj[c] = b


def _soft_min(alpha):
    """The soft minimum at temperature alpha > 0, in cost units."""

    def smin(a, b):
        # -alpha * log(exp(-a/alpha) + exp(-b/alpha)); exact when b is +inf
        if a > b:
            a, b = b, a
        if b == INF:
            return a
        return a - alpha * math.log1p(math.exp((a - b) / alpha))

    return smin


def _bsweep(bdd, bwj, costs, smin=None):
    """Seed the terminals and recompute every backward value bottom-up."""
    bwj[FALSE] = INF
    bwj[TRUE] = 0.0
    lo, hi, level_nodes = bdd.lo, bdd.hi, bdd.level_nodes
    for lev in range(bdd.num_levels - 1, -1, -1):
        cost = costs[lev]
        if smin is None:
            for v in level_nodes[lev]:
                a = bwj[lo[v]]
                b = cost + bwj[hi[v]]
                bwj[v] = a if a <= b else b
        else:
            for v in level_nodes[lev]:
                bwj[v] = smin(bwj[lo[v]], cost + bwj[hi[v]])


def min_marginals(bdd, costs):
    """Per-level (min path cost with the level's variable at 0, same at 1).

    `costs[lev]` is the cost of the 1-arcs at level `lev`.  One fresh
    backward and forward sweep; a sentinel diagram has no levels to report.
    """
    if bdd.root < 2:
        return []
    bw = [INF] * len(bdd.lo)
    _bsweep(bdd, bw, costs)
    fw = [INF] * len(bdd.lo)
    fw[bdd.root] = 0.0
    last = bdd.num_levels - 1
    out = []
    for lev in range(bdd.num_levels):
        out.append(_marg_min(bdd, fw, bw, lev, costs[lev]))
        if lev < last:
            _scatter_min(bdd, fw, lev, costs[lev])
    return out


# -- the coordinate update ---------------------------------------------------------


def mma_update(state: DualState, var, forward=True):
    """One min-marginal-averaging step for one variable, messages included.

    Reads the marginal pair in every covering diagram (requires fw current
    at the variable's levels and bw current below them), shifts the cost
    copies, and advances the messages past the variable: forward, fw of
    the level below each covering level (the true terminal's below a last
    level); backward, bw of the covering levels.  Returns the diffs m1 - m0
    in slot order (see the module notes for infinities and nan).  A finite
    sum is averaged over the members `state.sweeps` holds for this variable
    and direction.  An update that proves infeasibility latches it and
    leaves the messages as they were.
    """
    entry = state.sweeps[forward].get(var)
    if entry is None:
        raise ValueError(f"variable {var} is not covered by any diagram")
    records, members, count = entry
    smin = state.smin
    diffs = []
    if smin is None:
        for fwj, bwj, costs, lev, nodes, _, lo, hi in records:
            cost = costs[lev]
            m0 = m1 = INF
            for v in nodes:
                base = fwj[v]
                a = base + bwj[lo[v]]
                if a < m0:
                    m0 = a
                b = base + cost + bwj[hi[v]]
                if b < m1:
                    m1 = b
            diffs.append(m1 - m0)
    else:
        for fwj, bwj, costs, lev, nodes, _, lo, hi in records:
            cost = costs[lev]
            m0 = m1 = INF
            for v in nodes:
                base = fwj[v]
                m0 = smin(m0, base + bwj[lo[v]])
                m1 = smin(m1, base + cost + bwj[hi[v]])
            diffs.append(m1 - m0)

    total = sum(diffs)
    shifts = diffs
    if math.isfinite(total):
        share = total / count
    else:
        forcing = _forcing(diffs)
        if forcing is None:
            state.infeasible = True
            return diffs
        shifts, members, share = forcing

    # Each diagram's copy becomes (copy - shift) + share for members and
    # copy - shift otherwise; the message step then reads the new copy.
    if forward:
        for (fwj, _, costs, lev, nodes, below, lo, hi), d, member in zip(records, shifts, members):
            cost = costs[lev] - d
            if member:
                cost += share
            costs[lev] = cost
            for v in below:
                fwj[v] = INF
            if smin is None:
                for v in nodes:
                    base = fwj[v]
                    c = lo[v]
                    if c and base < fwj[c]:
                        fwj[c] = base
                    c = hi[v]
                    if c:
                        b = base + cost
                        if b < fwj[c]:
                            fwj[c] = b
            else:
                for v in nodes:
                    base = fwj[v]
                    c = lo[v]
                    if c:
                        fwj[c] = smin(fwj[c], base)
                    c = hi[v]
                    if c:
                        fwj[c] = smin(fwj[c], base + cost)
    else:
        for (_, bwj, costs, lev, nodes, _, lo, hi), d, member in zip(records, shifts, members):
            cost = costs[lev] - d
            if member:
                cost += share
            costs[lev] = cost
            if smin is None:
                for v in nodes:
                    a = bwj[lo[v]]
                    b = cost + bwj[hi[v]]
                    bwj[v] = a if a <= b else b
            else:
                for v in nodes:
                    bwj[v] = smin(bwj[lo[v]], cost + bwj[hi[v]])
    return diffs


def _forcing(diffs):
    """`(shifts, members, share)` for a step whose diffs do not sum finitely.

    None when the step proves infeasibility: diagrams force the variable
    both ways, or one is empty.  Otherwise some diagrams force one value
    and the shifts move only the diffs that prefer the impossible value:
    cost shifted off a side no solution uses cannot hurt any diagram, and
    (for soft minima) shifting the agreeing side would.  The forcing diffs
    fail both tests; the forcing diagrams are the members, absorbing the
    moved total in equal shares (no member when nothing moved).
    """
    zero = INF in diffs
    if (zero and -INF in diffs) or any(map(math.isnan, diffs)):
        return None
    forced = INF if zero else -INF
    shifts = [d if ((d < 0.0) if zero else (d > 0.0)) else 0.0 for d in diffs]
    moved = 0.0
    for d in shifts:
        if d:
            moved += d
    absorbers = [d == forced for d in diffs]
    share = moved / sum(absorbers)
    return shifts, [bool(moved) and a for a in absorbers], share


# -- passes ----------------------------------------------------------------------


def _pass(state: DualState, forward):
    """Step every active variable in one direction; returns the raw bound.

    Each diagram's optimum is then read where the pass left it current:
    the true terminal's forward value, or the root's backward value.
    Latches infeasibility.
    """
    if state.infeasible:
        return INF
    update = mma_update
    for var in state.active if forward else reversed(state.active):
        update(state, var, forward)
        if state.infeasible:
            return INF
    if forward:
        state.energies[:] = [fwj[TRUE] for fwj in state.fw]
    else:
        state.energies[:] = [bwj[bdd.root] for bwj, bdd in zip(state.bw, state.bdds)]
    total = state.dual_value()
    if total == INF:
        state.infeasible = True
    return total


def forward_pass(state: DualState):
    """Sweep the variable order forward; returns the raw bound afterwards.

    Requires bw current everywhere (a refresh or a completed backward
    pass).  Leaves fw current everywhere, the true terminal included, so a
    backward pass may follow.
    """
    return _pass(state, True)


def backward_pass(state: DualState):
    """Sweep the variable order backward; returns the raw bound afterwards.

    Requires fw current everywhere (a completed forward pass).  Leaves bw
    current everywhere, so a forward pass may follow.
    """
    return _pass(state, False)


def cost_scale(state: DualState) -> float:
    """min(1, largest |c_i|), c_i the sum of variable i's cost copies; 1 if all are 0.

    The stopping rule divides bound changes by max(scale, |lb|), so it is
    relative for small objectives too and unchanged when some cost is >= 1.
    """
    duals = state.duals
    largest = max(
        (abs(sum(duals[j][lev] for j, lev in slots)) for slots in state.slots.values()),
        default=0.0,
    )
    return min(1.0, largest) if largest > 0 else 1.0


def run(state: DualState, max_passes=DEFAULT_MAX_PASSES, tolerance=DEFAULT_TOLERANCE) -> DualReport:
    """Alternate forward/backward passes until converged or out of passes.

    max_passes counts directional sweeps (a forward/backward round is two);
    tolerance is the bound change per round, relative to the bound or to
    the cost scale (see `cost_scale`), below which the run stops -- zero
    disables the check and runs to the pass limit.
    """
    trace = []
    lb = state.dual_value()
    if state.infeasible:
        return DualReport(INF, 0, "infeasible", trace)
    scale = cost_scale(state)
    passes = 0
    prev_round = lb
    termination = "pass_limit"
    while passes < max_passes:
        t0 = time.perf_counter()
        lb = forward_pass(state)
        passes += 1
        trace.append(TraceEntry(passes, "forward", lb, (time.perf_counter() - t0) * 1000.0))
        if state.infeasible:
            termination = "infeasible"
            break
        if passes >= max_passes:
            break
        t0 = time.perf_counter()
        lb = backward_pass(state)
        passes += 1
        trace.append(TraceEntry(passes, "backward", lb, (time.perf_counter() - t0) * 1000.0))
        if state.infeasible:
            termination = "infeasible"
            break
        if abs(lb - prev_round) / max(scale, abs(lb)) < tolerance:
            termination = "converged"
            break
        prev_round = lb
    return DualReport(INF if state.infeasible else lb, passes, termination, trace)
