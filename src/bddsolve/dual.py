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
one diagram, which is where the rounding search reads its margins on the
list store.  A `DualState` picks its algebra once, from its smoothing.
The generic reference sweeps the kernels are tested against live with the
tests.

No kernel skips a removed node, and all are exact on restricted diagrams
too, because a removed node has both arcs on the false terminal and no
live node points at it.

Two stores hold a state's messages.  The list store above serves every
soft-min state and every small one.  A min-sum state with at least
`ARRAY_MIN_NODES` diagram nodes, and at least `ARRAY_MIN_WAVE_NODES` of
them per wave (below), keeps them in flat numpy arrays instead, and a pass
then runs wave by wave.  Two steps on variables that share no diagram
commute, so a pass may take them in any order.  A variable's wave in a
direction is 0, or 1 + the largest wave among the variables its diagrams
step just before it, so the waves of a pass are the levels of that
dependency order.  Each wave's steps then run as one vectorised step: the
same additions, subtractions, minima and divisions as `mma_update`, on the
same operands in the same association.  Both stores fold a step's total
slot by slot from 0.0 (`np.sum` would pair the terms differently, and so
would `sum`, which compensates float sums from Python 3.12 on).  A variable
whose total is not finite goes through `_forcing` alone.  So bounds, cost
copies, energies and everything downstream are equal to the bit on either
store.  A proof of infeasibility leaves the copies as the sequential pass
would, by undoing the steps of the variables from the first proving one
on.  numpy is imported only on the array path.

A `run` that ends feasible on the array store also reads the rounding
margins, each variable's sum of m1 - m0 over its diagrams, off its
schedule before freeing it: the direction the last pass left current is
read as it is, and the other one is swept afresh into a temporary array.
It keeps them in `state.margins` for `primal.compute_scores`, which
otherwise sweeps each diagram with `min_marginals`; the next pass or
`refresh` drops them, and list states never keep any.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain

from .bdd import FALSE, TRUE
from .model import MAX_OBJECTIVE

INF = math.inf

UNIFORM = "uniform"
SRMP = "srmp"

DEFAULT_MAX_PASSES = 1000
DEFAULT_TOLERANCE = 1e-6

# Min-sum states with at least this many diagram nodes take the array store
# (see the module notes).  It lies between qap's 13,680 nodes and grid's
# 49,680, on this evidence from bench/run.py (seed 0, 2-core VM):
# - grid on the store: bound_s 0.79 -> 0.24 s, peak_rss_mb 53.8 -> 59.6 MB;
# - qap on the store: bound_s 1.49 -> 0.28 s, but peak_rss_mb 24.4 -> 39.4 MB,
#   importing numpy alone costing some 11-13 MB;
# - batch-small (at most a few hundred nodes per instance) on the store:
#   bound_s 0.67 -> 2.72 s, numpy's per-call cost swamping tiny waves.  Even
#   checking the waves of each instance, to keep them on lists, cost +19%
#   solve_s and +45% peak_rss_mb.
ARRAY_MIN_NODES = 1 << 15
# ... and at least this many nodes per wave.  A wave costs some 30 numpy
# calls whatever its size; per pass that is about 46 us, against some 740 ns
# a node saved over the lists, so the store breaks even near 60 nodes per
# wave.  A 3,000-node chain in Cuthill-McKee order (11,998 waves of 7 nodes)
# passes in 555 ms on the store against 75 ms on lists; grid in that order
# (234 waves of 212 nodes) in 19 ms against 59 ms.
ARRAY_MIN_WAVE_NODES = 1 << 7


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

    `margins` is None, or the rounding margins a `run` on the array store
    read off its schedule (see the module notes): a numpy array with one
    sum per variable of `slots`, in its order.  Every pass and `refresh`
    drops them.  They belong to the diagrams as the run found them, so
    fixing diagrams calls for a `refresh` before scoring too.

    `slots[var]` lists the variable's `(diagram, level)` pairs, diagrams in
    order.  On the array store it is built when `run` has freed the wave
    tables (or at first use), so the two never take memory at once.

    On the array store (`store` set, see the module notes) `fw`/`bw` are
    None and `sweeps` is empty; the store keeps the messages, and between
    calls of `refresh`, `forward_pass`, `backward_pass` and `run` the cost
    copies are back in `duals`.  The store reads `duals` and the diagrams'
    arcs when it builds its schedule: at `refresh`, and at a pass or run
    that finds none open.  So after direct surgery on `duals`, or fixing
    diagrams, call `refresh` before the next pass, as the list store needs
    anyway for its backward values.

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
        self.active = [i for i in decomposition.order if decomposition.var_subproblems[i]]
        self.energies = [0.0] * len(bdds)
        self.margins = None
        self.store = None
        if self.smin is None and sum(len(b.lo) - 2 for b in bdds) >= ARRAY_MIN_NODES:
            self.store = _ArrayStore.build(bdds, self.active)
        if self.store is not None:
            self._slots = None  # built once `run` has freed the wave tables, or at first use
            self.fw = self.bw = None
            self.sweeps = {True: {}, False: {}}
            return
        self._slots = {}
        self.fw = [[INF] * len(b.lo) for b in bdds]
        self.bw = [[INF] * len(b.lo) for b in bdds]
        records = {}
        last = [len(b.support) - 1 for b in bdds]
        for j, b in enumerate(bdds):
            fwj, bwj, costs, lo, hi, nodes = self.fw[j], self.bw[j], duals[j], b.lo, b.hi, b.level_nodes
            for lev, var in enumerate(b.support):
                self._slots.setdefault(var, []).append((j, lev))
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

    @property
    def slots(self):
        if self._slots is None:
            self._slots = _slot_map(self.bdds)
        return self._slots

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
        forward value stays its optimum.  On the array store this also
        reads `duals` and the diagrams' arcs into a fresh schedule.  Drops
        `margins`.
        """
        self.margins = None
        if self.store is not None:
            self.store.refresh(self)
        else:
            for j, bdd in enumerate(self.bdds):
                bwj = self.bw[j]
                _bsweep(bdd, bwj, self.duals[j], self.smin)
                self.energies[j] = bwj[bdd.root]
                if bdd.root != FALSE:
                    self.fw[j][bdd.root] = 0.0
        if any(e == INF for e in self.energies):
            self.infeasible = True


def _slot_map(bdds):
    slots = {}
    for j, b in enumerate(bdds):
        for lev, var in enumerate(b.support):
            slots.setdefault(var, []).append((j, lev))
    return slots


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
    share = {i: float(objective[i]) / len(js) for i, js in enumerate(decomposition.var_subproblems) if js}
    duals = []
    for j, bdd in enumerate(bdds):
        if tuple(bdd.support) != tuple(decomposition.subproblem_vars[j]):
            raise ValueError(f"diagram {j} disagrees with the decomposition's support")
        duals.append([share[i] for i in bdd.support])
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
        if state.store is not None:
            raise ValueError("mma_update steps the list kernels; this state's messages are in its array store")
        raise ValueError(f"variable {var} is not covered by any diagram")
    records, members, count = entry
    smin = state.smin
    diffs = []
    total = 0.0  # folded left in slot order, as the array store sums its columns
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
            d = m1 - m0
            diffs.append(d)
            total += d
    else:
        for fwj, bwj, costs, lev, nodes, _, lo, hi in records:
            cost = costs[lev]
            m0 = m1 = INF
            for v in nodes:
                base = fwj[v]
                m0 = smin(m0, base + bwj[lo[v]])
                m1 = smin(m1, base + cost + bwj[hi[v]])
            d = m1 - m0
            diffs.append(d)
            total += d

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
    state.margins = None
    if state.infeasible:
        return INF
    if state.store is not None:
        if not state.store.sweep(state, forward):
            return INF
    else:
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


# -- the array store -----------------------------------------------------------


class _ArrayStore:
    """Min-sum messages of every diagram in flat numpy arrays, stepped wave by wave.

    Node v of diagram j sits at `base[j] + v` of `fw` and `bw`.  The false
    terminal's place is a sink: forward scatters may write it and nothing
    reads its forward value, while its backward value stays +inf.  `fw` and
    `bw` live as long as the state, like the list path's, and so does the
    layout: each slot's variable `var`, its `first`/`last` level flags, and
    per direction each variable's wave number `wave[forward]`.  `fresh`
    names the direction whose values the last `refresh` or pass left
    current with the cost copies (True: forward, False: backward).  A
    `_Schedule` (the cost copies and the wave tables) is built from `duals`
    and the diagrams' current arcs by `open`, and freed by `close` once the
    copies are back in `duals`.  `held` keeps it open between the passes of
    one `run`; a pass outside `run` closes it behind itself.
    """

    __slots__ = ("base", "roots", "var", "first", "last", "wave", "fw", "bw", "fresh", "schedule", "held")

    @classmethod
    def build(cls, bdds, active):
        """The store for `bdds`, or None when its schedule would have too many waves to pay off."""
        import numpy as np

        self = cls()
        sizes = np.fromiter(map(len, (b.lo for b in bdds)), np.int64, len(bdds))
        levels = np.fromiter(map(len, (b.support for b in bdds)), np.int64, len(bdds))
        self.base = np.cumsum(sizes) - sizes
        self.roots = self.base + np.fromiter((b.root for b in bdds), np.int64, len(bdds))
        ends = np.cumsum(levels)[levels > 0]
        self.var = np.fromiter(chain.from_iterable(b.support for b in bdds), np.int32, int(levels.sum()))
        self.first = np.zeros(len(self.var), bool)
        self.first[ends - levels[levels > 0]] = True
        self.last = np.zeros(len(self.var), bool)
        self.last[ends - 1] = True
        limit = (int(sizes.sum()) - 2 * len(bdds)) // ARRAY_MIN_WAVE_NODES
        num_vars = max(active, default=-1) + 1
        self.wave = {}
        for forward, has, step in ((True, ~self.first, -1), (False, ~self.last, 1)):
            self.wave[forward] = _wave_numbers(self.var, has, step, num_vars, limit)
            if self.wave[forward] is None:
                return None
        self.fw = np.full(int(sizes.sum()), INF)
        self.bw = np.full(int(sizes.sum()), INF)
        self.fresh = False
        self.schedule = None
        self.held = False
        return self

    def open(self, state):
        """The schedule, built from `state.duals` and the diagrams' arcs unless already open."""
        if self.schedule is None:
            self.schedule = _Schedule(state, self)
        return self.schedule

    def close(self, state):
        """Write the cost copies back into `state.duals` and free the schedule."""
        if self.schedule is None:
            return
        flat = self.schedule.costs.tolist()
        k = 0
        for costs in state.duals:
            n = len(costs)
            costs[:] = flat[k : k + n]
            k += n
        self.schedule = None

    def refresh(self, state):
        """`DualState.refresh` on the store: a fresh schedule, then every backward value.

        The schedule stays open, so a `run` that follows uses it.
        """
        import numpy as np

        self.schedule = None
        sched = self.open(state)
        fw, bw, costs = self.fw, self.bw, sched.costs
        bw[self.base + FALSE] = INF
        bw[self.base + TRUE] = 0.0
        for w in sched.waves[False]:  # bottom-up in every diagram
            a = bw[w.lo]
            b = _spread(costs[w.slots], w.columns) + bw[w.hi]
            bw[w.nodes] = np.where(a <= b, a, b)
        state.energies[:] = bw[self.roots].tolist()
        fw[self.roots[self.roots != self.base + FALSE]] = 0.0
        self.fresh = False

    def sweep(self, state, forward):
        """One pass, one vectorised coordinate step per wave; False once it proves infeasibility.

        The arithmetic is `mma_update`'s, float for float; see the module
        notes.  A variable whose total is not finite goes through `_forcing`
        alone.  A proof latches `state.infeasible` and leaves the cost copies
        as the sequential pass would: the steps of the variables from the
        first proving one on, in pass order, are undone.
        """
        import numpy as np

        sched = self.open(state)
        fw, bw, costs = self.fw, self.bw, sched.costs
        saved = costs.copy()
        proof = None
        with np.errstate(all="ignore"):  # inf - inf is the nan of an empty diagram, as in the lists
            for w in sched.waves[forward]:
                f = fw[w.nodes]
                a = bw[w.lo]
                h = bw[w.hi]
                c = costs[w.slots]
                n = len(c)
                m0 = f + a
                m1 = f + _spread(c, w.columns)
                m1 += h
                for start, count in w.columns[1:]:  # fold node k of the first `count` slots into node 0
                    np.minimum(m0[:count], m0[start : start + count], out=m0[:count])
                    np.minimum(m1[:count], m1[start : start + count], out=m1[:count])
                d = np.empty(n + 1)
                np.subtract(m1[:n], m0[:n], out=d[:n])
                d[n] = 0.0  # the pad of `groups`
                total = np.zeros(len(w.count))
                for column in w.groups:  # each variable's diffs in slot order, from 0.0
                    total += d[column]
                share = (total / w.count)[w.slot_var]
                new = c - d[:n]
                if w.member is None:
                    new += share
                else:
                    new = np.where(w.member, new + share, new)
                bad = ~np.isfinite(total)
                if bad.any():
                    for i in np.flatnonzero(bad).tolist():
                        at = w.groups[:, i]
                        at = at[at < n]
                        old = c[at].tolist()
                        forcing = _forcing(d[at].tolist())
                        if forcing is None:
                            rank = int(w.rank[i])
                            if proof is None or (rank < proof if forward else rank > proof):
                                proof = rank
                            new[at] = old
                            continue
                        shifts, members, part = forcing
                        new[at] = [(x - s) + part if m else x - s for x, s, m in zip(old, shifts, members)]
                costs[w.slots] = new
                if forward:
                    fw[w.below] = INF
                    np.minimum.at(fw, w.lo, f)
                    np.minimum.at(fw, w.hi, f + _spread(new, w.columns))
                else:
                    b = _spread(new, w.columns) + h
                    bw[w.nodes] = np.where(a <= b, a, b)
        if proof is not None:
            undo = sched.rank >= proof if forward else sched.rank <= proof
            costs[undo] = saved[undo]
            state.infeasible = True
        else:
            self.fresh = forward
            if forward:
                state.energies[:] = fw[self.base + TRUE].tolist()
            else:
                state.energies[:] = bw[self.roots].tolist()
        if not self.held:
            self.close(state)
        return proof is None

    def margins(self, state):
        """Each variable's sum of m1 - m0 over its diagrams, as `primal.compute_scores` adds them.

        One numpy array, the variables in the order of their first slot, as
        `state.slots` lists them.  Requires a feasible state.  The direction
        `fresh` names is current with the cost copies and is read as it is;
        the other one is swept afresh into a temporary array, so `fw` and
        `bw` stay as the passes left them.  A slot's pair comes from
        `min_marginals`' float operations, and each variable's diffs are
        added in slot order from 0.0, so the margins equal `compute_scores`'
        per-diagram sums to the bit.
        """
        import numpy as np

        sched = self.open(state)
        costs = sched.costs
        fw, bw = self.fw, self.bw
        if self.fresh:  # a forward pass came last: backward values afresh, as `refresh` computes them
            bw = np.full(len(bw), INF)
            bw[self.base + TRUE] = 0.0
            for w in sched.waves[False]:
                a = bw[w.lo]
                b = _spread(costs[w.slots], w.columns) + bw[w.hi]
                bw[w.nodes] = np.where(a <= b, a, b)
        else:  # forward values afresh, scattered wave by wave while the pairs are read
            fw = np.full(len(fw), INF)
            fw[self.roots[self.roots != self.base + FALSE]] = 0.0
        diff = np.empty(len(costs))
        for w in sched.waves[True]:
            f = fw[w.nodes]
            m0 = f + bw[w.lo]
            fc = f + _spread(costs[w.slots], w.columns)
            m1 = fc + bw[w.hi]
            if not self.fresh:
                np.minimum.at(fw, w.lo, f)
                np.minimum.at(fw, w.hi, fc)
            for start, count in w.columns[1:]:
                np.minimum(m0[:count], m0[start : start + count], out=m0[:count])
                np.minimum(m1[:count], m1[start : start + count], out=m1[:count])
            n = len(w.slots)
            diff[w.slots] = m1[:n] - m0[:n]
        del fw, bw  # frees the temporary array before the fold allocates
        # each variable's slots, in slot order: fold them column by column from 0.0
        by_var = np.argsort(self.var, kind="stable")
        var = self.var[by_var]
        starts = np.flatnonzero(np.append(True, var[1:] != var[:-1]))
        counts = np.diff(np.append(starts, len(var)))
        total = np.zeros(len(starts))
        with np.errstate(invalid="ignore"):  # inf + -inf: forced both ways, nan as in `compute_scores`
            for k in range(int(counts.max(initial=0))):
                has = counts > k
                total[has] += diff[by_var[starts[has] + k]]
        return total[np.argsort(by_var[starts])]


def _spread(values, columns):
    """Per-slot `values` onto a wave's nodes, column by column."""
    import numpy as np

    if len(columns) == 1:
        return values[: columns[0][1]]
    return np.concatenate([values[:count] for _, count in columns])


def _wave_numbers(var, has, step, num_vars, limit):
    """Per variable: 0, or 1 + the largest number among the variables stepped just before it.

    `has` flags the slots whose diagram steps another variable just before
    them in this direction, at slot offset `step`.  Waves are peeled off
    one at a time, each from the variables whose predecessors are all
    numbered, so the work is linear in the slots plus a few numpy calls per
    wave.  None when more than `limit` waves would be needed.
    """
    import numpy as np

    child = var[has]
    parent = var[np.flatnonzero(has) + step]
    by_parent = np.argsort(parent, kind="stable")
    out = np.bincount(parent, minlength=num_vars)
    first = np.cumsum(out) - out
    waiting = np.bincount(child, minlength=num_vars)
    wave = np.zeros(num_vars, np.int32)
    frontier = np.flatnonzero(waiting == 0)
    for number in range(1, limit + 1):
        count = out[frontier]
        edges = by_parent[np.repeat(first[frontier] - (np.cumsum(count) - count), count) + np.arange(count.sum())]
        if not len(edges):
            return wave
        if number == limit:
            return None
        kids = child[edges]
        waiting -= np.bincount(kids, minlength=num_vars)
        kids = np.unique(kids)
        frontier = kids[waiting[kids] == 0]
        wave[frontier] = number
    return None


class _Wave:
    """The tables of one wave in one direction; see `_Schedule`."""

    __slots__ = (
        "slots", "nodes", "lo", "hi", "columns", "below",
        "groups", "slot_var", "count", "member", "rank",
    )


class _Schedule:
    """The cost copies and per-direction wave tables of an `_ArrayStore`.

    `costs` is flat in slot order (diagram by diagram, level by level), and
    `rank` gives each slot's variable's place in `active`.  `waves[forward]`
    lists the waves in pass order.  Within a wave:
    - `slots` come widest level first.  `nodes` holds node k of every slot
      wider than k, for k = 0, 1, ...: node 0 of the i-th slot sits at i, and
      each column k is the block `(start, count)` of `columns` over the first
      `count` slots.  `lo`/`hi` are the nodes' children (the false terminal
      being the sink), and `below` holds the nodes a forward step resets
      (the level below, or the true terminal).
    - `groups[k, v]` is the place of variable v's k-th slot (in slot
      order), padded with the place of a trailing 0.0; `slot_var` is the
      inverse.  `count` is the number of members per variable, `member` the
      member flags (None when every slot is one), and `rank` each variable's
      place in `active`.
    """

    __slots__ = ("costs", "rank", "waves")

    def __init__(self, state, store):
        import numpy as np

        i32 = np.int32
        bdds, var = state.bdds, store.var
        total = len(var)
        base = store.base.astype(i32)
        levels = np.fromiter(map(len, (b.support for b in bdds)), np.int64, len(bdds))
        diag = np.repeat(np.arange(len(bdds), dtype=i32), levels)
        width = np.fromiter(map(len, chain.from_iterable(b.level_nodes for b in bdds)), i32, total)
        start = np.cumsum(width) - width
        nodes = np.fromiter(
            chain.from_iterable(chain.from_iterable(b.level_nodes for b in bdds)), i32, int(width.sum())
        )
        nodes += np.repeat(base[diag], width)
        shift = np.repeat(base, np.diff(np.append(store.base, len(store.fw))))
        lo = np.fromiter(chain.from_iterable(b.lo for b in bdds), i32, len(shift))
        lo += shift
        hi = np.fromiter(chain.from_iterable(b.hi for b in bdds), i32, len(shift))
        hi += shift
        del shift
        heads = np.concatenate((nodes, base + TRUE))  # what a slot's `below` draws from
        rank_of = np.zeros_like(store.wave[True])  # one entry per variable
        rank_of[state.active] = np.arange(len(state.active), dtype=i32)
        self.rank = rank = rank_of[var]
        del rank_of
        self.costs = np.fromiter(chain.from_iterable(state.duals), np.float64, total)
        self.waves = {}
        for forward, ahead in ((True, ~store.last), (False, ~store.first)):
            number = store.wave[forward][var]
            order = np.lexsort((-width, number)).astype(i32)  # stable: slot order within a width
            bounds = np.searchsorted(number[order], np.arange(int(number.max(initial=-1)) + 2)).tolist()
            del number
            self.waves[forward] = [
                _wave(order[a:b], width, start, nodes, lo, hi, rank, ahead, state.averaging == SRMP,
                      store.last, diag, heads if forward else None)
                for a, b in zip(bounds, bounds[1:])
            ]


def _wave(sl, width, start, nodes, lo, hi, rank, ahead, srmp, last, diag, heads):
    """The `_Wave` of the slots `sl`, widest level first; `heads` only for a forward wave."""
    import numpy as np

    i32 = np.int32
    w = _Wave()
    n = len(sl)
    w.slots = sl
    # node k of every slot wider than k; the slots wider than k are a prefix
    # (column 0 may miss slots, and even be empty: an empty diagram's levels)
    counts = np.bincount(width[sl], minlength=2)[::-1].cumsum()[::-1][1:].tolist()
    wn = nodes[np.concatenate([start[sl[:c]] + k for k, c in enumerate(counts)])]
    w.columns = list(zip(np.cumsum([0] + counts).tolist(), counts))
    w.nodes, w.lo, w.hi = wn, lo[wn], hi[wn]
    # variables: the places of each one's slots, in slot order
    r = rank[sl]
    pos = np.lexsort((sl, r)).astype(i32)
    r = r[pos]
    fresh = np.ones(n, bool)
    fresh[1:] = r[1:] != r[:-1]
    vstart = np.flatnonzero(fresh)
    vcount = np.diff(np.append(vstart, n))
    vid = np.repeat(np.arange(len(vstart), dtype=i32), vcount)
    w.groups = np.full((int(vcount.max()), len(vstart)), n, i32)
    w.groups[np.arange(n) - vstart[vid], vid] = pos
    w.slot_var = np.empty(n, i32)
    w.slot_var[pos] = vid
    w.rank = r[vstart]
    w.member = None
    w.count = vcount.astype(np.float64)
    if srmp:
        ah = ahead[sl]
        member = ah | (np.bincount(w.slot_var, weights=ah, minlength=len(vstart)) == 0)[w.slot_var]
        if not member.all():
            w.member = member
            w.count = np.bincount(w.slot_var, weights=member, minlength=len(vstart))
    if heads is not None:
        end = last[sl]
        nxt = np.where(end, 0, sl + 1)
        size = np.where(end, 1, width[nxt])
        source = np.where(end, len(nodes) + diag[sl], start[nxt])
        place = np.cumsum(size) - size
        w.below = heads[np.repeat(source - place, size) + np.arange(int(size.sum()), dtype=i32)]
    return w


def cost_scale(state: DualState) -> float:
    """min(1, largest |c_i|), c_i the sum of variable i's cost copies; 1 if all are 0.

    The stopping rule divides bound changes by max(scale, |lb|), so it is
    relative for small objectives too and unchanged when some cost is >= 1.
    """
    totals = {}  # each variable's copies summed in diagram order, as sum() would
    for bdd, costs in zip(state.bdds, state.duals):
        for var, c in zip(bdd.support, costs):
            totals[var] = totals.get(var, 0) + c
    largest = max(map(abs, totals.values()), default=0.0)
    return min(1.0, largest) if largest > 0 else 1.0


def run(state: DualState, max_passes=DEFAULT_MAX_PASSES, tolerance=DEFAULT_TOLERANCE) -> DualReport:
    """Alternate forward/backward passes until converged or out of passes.

    max_passes counts directional sweeps (a forward/backward round is two);
    tolerance is the bound change per round, relative to the bound or to
    the cost scale (see `cost_scale`), below which the run stops -- zero
    disables the check and runs to the pass limit.

    On the array store one schedule serves every pass of the run.  A run
    that ends feasible reads the rounding margins off it before it is
    freed (`_ArrayStore.margins`) and keeps them in `state.margins`, where
    `primal.compute_scores` takes them instead of sweeping each diagram;
    the next pass or `refresh` drops them.  When the run returns, the cost
    copies are back in `state.duals` and the schedule is freed.
    """
    store = state.store
    if store is None:
        return _run(state, max_passes, tolerance)
    store.held = True
    try:
        report = _run(state, max_passes, tolerance)
        if not state.infeasible:
            state.margins = store.margins(state)
        return report
    finally:
        store.held = False
        store.close(state)
        if state._slots is None:  # the rounding search reads it next
            state._slots = _slot_map(state.bdds)


def _run(state, max_passes, tolerance):
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
