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

A coordinate step reads the marginals at every covering level, shifts the
copies, and advances the messages at those levels (forward: the values of
the level below, the true terminal's below the last level; backward: the
level's own), with the kernel arithmetic written inline over level records.
`refresh` builds the records from the arcs as they are then, together
with each direction's step schedule: the steps' records in pass order.
A record holds its level's first node and that node's children inline,
and the level's other nodes as `(node, lo, hi)` triples, so no kernel
looks an arc up.  The first node seeds the level's two minima, and a
forward step has it write its children first, without a compare but
where its two arcs meet; so the step resets to +inf only the other nodes
of the level below, which the record lists.  A removed first node writes
nothing, and its level below is reset whole.  A pass runs one kernel per
algebra, `_min_steps` or `_soft_steps`, over its whole schedule, with no
call per step; `mma_update` is the same kernel run on a one-step
schedule, so each algebra has exactly one kernel body.
A record ends with its level's parts, `(v, lo, hi, rest, reset)`, which
depend only on the arcs and levels (`_level_parts`).  A diagram whose
arcs are as built takes them from its template, where they are built
once for every row of the shape; one that a fix has changed derives them
from its live arcs by the same function.  `refresh` then sweeps each
diagram backward from its parts by `_bsweep` (either algebra).
`min_marginals` runs the same min-sum `_bsweep` and then a fresh forward
sweep over one diagram's arcs, and is where
`DualState.margins` reads the rounding margins on the list store.  A
`DualState` picks its algebra once, from its smoothing.
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
commute, so a pass may take them in any order.  A variable's wave is 0,
or 1 + the largest wave among the variables its diagrams step just
before it in a forward pass, so the forward waves are the levels of that
dependency order.  A diagram's levels then have strictly increasing wave
numbers, so no wave holds two levels of one diagram, and the waves in
reverse order are a valid backward order too: one partition, and one set
of tables per wave, serves both directions.  Each wave's steps run as
one vectorised step: the same additions, subtractions, minima and
divisions as `mma_update`, on the same operands in the same
association.  Both stores fold a step's total slot by slot from 0.0
(`np.sum` would pair the terms differently, and so would `sum`, which
compensates float sums from Python 3.12 on), and the bound is the
diagrams' optima folded left from 0.0 too: the lists add the energies
one by one, the store its optima by one `np.add.accumulate` over
`(0.0, *optima)`, which adds in order, so a pass reads no optimum into
Python.  A variable whose total is not finite goes through `_forcing`
alone.  So bounds, cost copies, energies and everything downstream are
equal to the bit on either store.  A proof of infeasibility leaves the
copies as the sequential pass would, by undoing the steps of the
variables from the first proving one on.  numpy is imported only on the
array path.

On the store `state.energies`, like `state.duals`, is current between
calls: a refresh writes it, and a pass writes it back with the copies,
after each pass outside `run` and once when `run` returns.  The store's
index tables are `np.intp`, numpy's own index type: any other integer
index array is cast to it on every fancy index.  A 10,000-element gather
from a 70,000-element array took 41 us with int32 indices, 21 us with
intp and 25 us by `np.take` on int32, and a scatter 58 against 32 us;
`np.take` would spare only the gathers, as scatters and `np.minimum.at`
cast too.  The intp tables cost grid some 2 MB of peak RSS (Python 3.11,
numpy 2.4, 2-core x86-64 VM).

Both stores build what depends only on the diagrams' levels and supports
once, with the state, and read the cost copies and the arcs only at
`refresh`: the array store its wave tables, the list store its member
flags and counts.  The array store tiles its per-diagram and per-level
tables from those of each distinct template (`_tile`), so a shape's
levels are read once however many rows it has.  After a fix or a
rollback, `refresh` brings the passes up to date on either store.  The
rounding margins, each variable's sum of m1 - m0 over its diagrams, are
computed on demand by `DualState.margins`: on the array store by one
read-only wave pass into temporary forward and backward arrays, on lists
by one `min_marginals` sweep per diagram.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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
#   importing numpy alone costing some 10 MB (peak RSS 17.6 -> 27.8 MB after
#   importing bddsolve.solver, Python 3.11, numpy 2.4, x86-64 Linux);
# - batch-small (at most a few hundred nodes per instance) on the store:
#   bound_s 0.67 -> 2.72 s, numpy's per-call cost swamping tiny waves.  Even
#   checking the waves of each instance, to keep them on lists, cost +19%
#   solve_s and +45% peak_rss_mb.
ARRAY_MIN_NODES = 1 << 15
# ... and at least this many nodes per wave.  A wave costs some 30 numpy
# calls whatever its size; per pass that is about 37 us, against some 400 ns
# a node saved over the lists (grid in input order, 5 waves: 519 ns a node on
# lists, 119 on the store), so the store breaks even near 90 nodes per wave.
# A 3,000-node chain in Cuthill-McKee order (11,998 waves of 7 nodes) passes
# in 460 ms on the store against 40 ms on lists; grid in that order (234
# waves of 212 nodes) in 14 ms against 26 ms.  Measured with the list kernels
# that loop their update half by index and trim the forward reset (best of
# 3 x 6 passes, Python 3.11, 2-core x86-64 VM).
ARRAY_MIN_WAVE_NODES = 1 << 7


class TraceEntry(NamedTuple):
    """One pass of a run: its number from 1, its direction, the bound after it and its time."""

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
    `covering[var]` lists the diagrams covering the variable, ascending:
    the decomposition's `var_subproblems`, kept by reference.  The
    constructor rejects unknown modes (`check_modes`) and diagrams whose
    supports disagree with the decomposition, and ends with a `refresh`,
    so a new state is ready for a pass.

    Either store reads `duals` into its tables and the diagrams' arcs only
    at `refresh`.  So after direct surgery on `duals`, or fixing or
    rolling back diagrams, call `refresh` before the next pass or
    `margins`.  On the array store (`store` set, see the module notes)
    `fw`/`bw` are None and `schedules` are empty; the store keeps the
    messages, and between calls of `refresh`, `forward_pass`,
    `backward_pass` and `run` the cost copies are back in `duals` and the
    optima in `energies`.

    On the list store, `members[forward][var]` is `(flags, count)` for a
    step in that direction: per covering diagram whether it shares the
    step's averaged total (uniform: every one; srmp: those with a level
    still ahead, or every one if none has), and the number of members.
    These depend only on levels and supports and are built here.
    `refresh` builds the level records from the arcs as they are then,
    one per diagram level: `(fw[j], bw[j], duals[j], lev, v, lo, hi, rest,
    reset)`, where v is the level's first node and lo, hi its children,
    `rest` holds the level's other nodes as `(node, lo, hi)` triples, and
    `reset` the nodes a forward step resets to +inf: the level below (or
    `(TRUE,)` below the last level) less lo and hi, which the step writes
    without a compare.  A diagram whose arcs are as built takes these
    parts from its template, so rows of one shape share them while they
    are unfixed (see the module notes).  `records[var]` holds the
    variable's level records, diagrams in order, and `schedules[forward]`
    each step's `(records, flags, count)` in pass order: `active` going
    forward, reversed going back.
    """

    def __init__(self, bdds, decomposition, duals, smoothing, averaging):
        check_modes(smoothing, averaging)
        if len(bdds) != len(decomposition.subproblem_vars):
            raise ValueError(f"{len(bdds)} diagrams for {len(decomposition.subproblem_vars)} subproblems")
        for j, (bdd, support) in enumerate(zip(bdds, decomposition.subproblem_vars)):
            if bdd.support != tuple(support):
                raise ValueError(f"diagram {j} disagrees with the decomposition's support")
        self.bdds = bdds
        self.duals = duals
        self.smoothing = smoothing
        self.averaging = averaging
        self.smin = _soft_min(smoothing) if smoothing > 0 else None
        self.infeasible = False
        self.covering = decomposition.var_subproblems
        self.active = [i for i in decomposition.order if self.covering[i]]
        self.energies = [0.0] * len(bdds)
        self.store = None
        if self.smin is None and sum(len(b.lo) - 2 for b in bdds) >= ARRAY_MIN_NODES:
            self.store = _ArrayStore.build(bdds, self.active, averaging)
        self.records = {}
        self.schedules = {True: [], False: []}
        if self.store is not None:
            self.fw = self.bw = None
        else:
            self.fw = [[INF] * len(b.lo) for b in bdds]
            self.bw = [[INF] * len(b.lo) for b in bdds]
            self.members = _members(bdds, self.covering, self.active, averaging)
        self.refresh()

    def dual_value(self):
        """Current sum of per-diagram optima (raw: no offset, no free vars), folded from 0.0."""
        if self.infeasible:
            return INF
        total = 0.0
        for e in self.energies:
            total += e
        return total

    def refresh(self):
        """Recompute every backward value and energy; reseed forward roots.

        Runs at the end of construction; needed again after any direct
        surgery on `duals`; passes keep the arrays current on their own.
        A diagram of a row with no variables has no levels, so its root's
        seeded forward value stays its optimum.  On the array store this also
        re-reads `duals` and the diagrams' arcs.
        """
        if self.store is not None:
            self.store.refresh(self)
        else:
            records = {}  # per variable its level records, diagrams in order, as lists
            for j, bdd in enumerate(self.bdds):
                fwj, bwj, costs = self.fw[j], self.bw[j], self.duals[j]
                parts = bdd.derived(_level_parts)
                _bsweep(parts, bwj, costs, self.smin)
                self.energies[j] = bwj[bdd.root]
                fwj[bdd.root] = 0.0
                for lev, (var, part) in enumerate(zip(bdd.support, parts)):
                    records.setdefault(var, []).append((fwj, bwj, costs, lev, *part))
            active = self.active
            self.records = records = {var: tuple(records[var]) for var in active}
            ahead, back = self.members[True], self.members[False]
            self.schedules = {
                True: [(records[var],) + ahead[var] for var in active],
                False: [(records[var],) + back[var] for var in reversed(active)],
            }
        if any(e == INF for e in self.energies):
            self.infeasible = True

    def margins(self):
        """`{var: margin}` for every covered variable, in `active` order.

        A variable's margin is its m1 - m0 summed over its diagrams from 0.0
        in diagram order, each an IEEE difference of min-sum marginals over
        the current cost copies (+inf where a diagram forces 0, -inf where
        it forces 1, nan where forcings conflict), whatever the smoothing.
        Computed afresh on each call from a feasible state: on the array
        store by one read-only wave pass (see `_ArrayStore.margins`), on
        lists by one `min_marginals` sweep per diagram; equal to the bit.
        """
        if self.store is not None:
            return self.store.margins(self)
        sums = {}
        for j, bdd in enumerate(self.bdds):
            for var, (m0, m1) in zip(bdd.support, min_marginals(bdd, self.duals[j])):
                sums[var] = sums.get(var, 0.0) + (m1 - m0)
        return {var: sums[var] for var in self.active if var in sums}


def _members(bdds, covering, active, averaging):
    """`members[forward][var]` of the list store (see `DualState`)."""
    interned = {}  # equal flag tuples share one (flags, count) pair

    def members(flags):
        if True not in flags:
            flags = (True,) * len(flags)
        pair = interned.get(flags)
        if pair is None:
            pair = interned[flags] = (flags, sum(flags))
        return pair

    if averaging != SRMP:
        every = {var: members((True,) * len(covering[var])) for var in active}
        return {True: every, False: every}
    # a member has a level ahead of the variable's in the pass
    return {
        forward: {var: members(tuple([var != bdds[j].support[end] for j in covering[var]])) for var in active}
        for forward, end in ((True, -1), (False, 0))
    }


def check_modes(smoothing, averaging):
    """Raise ValueError unless `averaging` is known and `smoothing` lies in [0, 2^60]."""
    if averaging not in (UNIFORM, SRMP):
        raise ValueError(f"unknown averaging mode {averaging!r}")
    if not 0 <= smoothing <= MAX_OBJECTIVE:  # NaN fails too
        raise ValueError(f"smoothing must lie in [0, 2^60], got {smoothing!r}")


def init_duals(bdds, decomposition, objective, smoothing=0.0, averaging=UNIFORM) -> DualState:
    """Split each covered variable's cost equally over its diagrams.

    The diagrams must agree level-for-level with the decomposition's
    supports (both sort by the global order); `DualState` checks that and
    the modes, and refreshes, so the state is ready for a forward pass.
    """
    # c.numerator / c.denominator is float(c) for a Fraction or an int, without
    # the call through numbers.Rational.__float__: one correctly rounded division
    share = [c.numerator / c.denominator / len(js) if js else None
             for c, js in zip(objective, decomposition.var_subproblems)]
    duals = [list(map(share.__getitem__, support)) for support in decomposition.subproblem_vars]
    return DualState(list(bdds), decomposition, duals, smoothing, averaging)


# -- message kernels ---------------------------------------------------------------
#
# `cost` is the cost copy on the 1-arcs of the level; 0-arcs are free.  Every
# value is in cost units, +inf where no path exists.


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


def _level_parts(diagram):
    """Per level, top first, the `(v, lo, hi, rest, reset)` that end its level records (see `DualState`).

    Read off the arcs and levels of `diagram`: a `Template`'s as built, or
    a `Bdd`'s as they are now.
    """
    lo, hi = diagram.lo, diagram.hi
    parts = []
    below = (TRUE,)
    for level in reversed(diagram.level_nodes):
        triples = [(v, lo[v], hi[v]) for v in level]
        v, l, h = triples[0]
        reset = tuple([c for c in below if c != l and c != h])
        parts.append((v, l, h, tuple(triples[1:]), reset))
        below = level
    parts.reverse()
    return tuple(parts)


def _bsweep(parts, bwj, costs, smin):
    """Seed the terminals and recompute every backward value bottom-up from a diagram's level parts."""
    bwj[FALSE] = INF
    bwj[TRUE] = 0.0
    for lev in range(len(parts) - 1, -1, -1):
        v, l, h, rest, _ = parts[lev]
        cost = costs[lev]
        if smin is None:
            a = bwj[l]
            b = cost + bwj[h]
            bwj[v] = a if a <= b else b
            for v, l, h in rest:
                a = bwj[l]
                b = cost + bwj[h]
                bwj[v] = a if a <= b else b
        else:
            bwj[v] = smin(bwj[l], cost + bwj[h])
            for v, l, h in rest:
                bwj[v] = smin(bwj[l], cost + bwj[h])


def min_marginals(bdd, costs):
    """Per-level (min path cost with the level's variable at 0, same at 1).

    `costs[lev]` is the cost of the 1-arcs at level `lev`.  The backward
    values come from `_bsweep` over the diagram's level parts (its
    template's while the arcs are as built); the forward sweep is a fresh
    one over the arcs, with the kernels' float operations but no level
    records (they would cost more to build than one sweep saves).
    """
    lo, hi, nodes = bdd.lo, bdd.hi, bdd.level_nodes
    bw = [INF] * len(lo)
    _bsweep(bdd.derived(_level_parts), bw, costs, None)
    fw = [INF] * len(lo)
    fw[bdd.root] = 0.0
    out = []
    for lev, cost in enumerate(costs):
        m0 = m1 = INF
        for v in nodes[lev]:
            base = fw[v]
            a = base + bw[lo[v]]
            if a < m0:
                m0 = a
            b = base + cost + bw[hi[v]]
            if b < m1:
                m1 = b
        out.append((m0, m1))
        if lev + 1 < len(nodes):
            for v in nodes[lev + 1]:
                fw[v] = INF
            for v in nodes[lev]:
                base = fw[v]
                c = lo[v]
                if c and base < fw[c]:
                    fw[c] = base
                c = hi[v]
                if c:
                    b = base + cost
                    if b < fw[c]:
                        fw[c] = b
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
    sum is averaged over the members `state.members` holds for this
    variable and direction.  An update that proves infeasibility latches it and
    leaves the messages as they were.  It is the pass kernel run on a
    one-step schedule.
    """
    if state.store is not None:
        raise ValueError("mma_update steps the list kernels; this state's messages are in its array store")
    records = state.records.get(var)
    if records is None:
        raise ValueError(f"variable {var} is not covered by any diagram")
    entry = (records,) + state.members[forward][var]
    steps = _min_steps if state.smin is None else _soft_steps
    return steps(state, (entry,), forward)


def _min_steps(state, schedule, forward):
    """Run the min-sum steps of `schedule` in order; returns the diffs of the last one run.

    Each entry is a step's `(records, members, count)` (see `DualState`).  Stops
    at the first step that proves infeasibility, latching it.  A level's
    first node seeds its marginal pair.  Going forward it writes its
    children before any other node of the level does, without a compare
    but where both its arcs meet, so the step resets to +inf only the
    record's `reset`, the rest of the level below.  Writing x where
    min(+inf, x) was written is exact because no node value, cost copy or
    marginal is ever nan or -inf.  The update half reads the step's
    shifts and member flags by a running index: zipping them with the
    records costs about as much as the whole marginal half.
    """
    isfinite, inf = math.isfinite, INF  # locals: this loop is the list store's whole pass
    diffs = []
    for records, members, count in schedule:
        diffs = []
        total = 0.0  # folded left in slot order, as the array store sums its columns
        for fwj, bwj, costs, lev, v, l, h, rest, _ in records:
            cost = costs[lev]
            base = fwj[v]
            m0 = base + bwj[l]
            m1 = base + cost + bwj[h]
            for v, l, h in rest:
                base = fwj[v]
                a = base + bwj[l]
                if a < m0:
                    m0 = a
                b = base + cost + bwj[h]
                if b < m1:
                    m1 = b
            d = m1 - m0
            diffs.append(d)
            total += d
        shifts = diffs
        if isfinite(total):
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
            i = 0
            for fwj, _, costs, lev, v, l, h, rest, reset in records:
                cost = costs[lev] - shifts[i]
                if members[i]:
                    cost += share
                i += 1
                costs[lev] = cost
                for c in reset:
                    fwj[c] = inf
                base = fwj[v]
                if l:
                    fwj[l] = base
                if h:
                    b = base + cost
                    fwj[h] = b if h != l or b < base else base
                for v, l, h in rest:
                    base = fwj[v]
                    if l and base < fwj[l]:
                        fwj[l] = base
                    if h:
                        b = base + cost
                        if b < fwj[h]:
                            fwj[h] = b
        else:
            i = 0
            for _, bwj, costs, lev, v, l, h, rest, _ in records:
                cost = costs[lev] - shifts[i]
                if members[i]:
                    cost += share
                i += 1
                costs[lev] = cost
                a = bwj[l]
                b = cost + bwj[h]
                bwj[v] = a if a <= b else b
                for v, l, h in rest:
                    a = bwj[l]
                    b = cost + bwj[h]
                    bwj[v] = a if a <= b else b
    return diffs


def _soft_steps(state, schedule, forward):
    """`_min_steps` with every minimum a soft minimum at the state's temperature.

    The soft minimum of +inf and x is x to the bit, so the first node's
    values seed and write as in `_min_steps`, and a forward step resets
    the same nodes.
    """
    smin, isfinite, inf = state.smin, math.isfinite, INF
    diffs = []
    for records, members, count in schedule:
        diffs = []
        total = 0.0
        for fwj, bwj, costs, lev, v, l, h, rest, _ in records:
            cost = costs[lev]
            base = fwj[v]
            m0 = base + bwj[l]
            m1 = base + cost + bwj[h]
            for v, l, h in rest:
                base = fwj[v]
                m0 = smin(m0, base + bwj[l])
                m1 = smin(m1, base + cost + bwj[h])
            d = m1 - m0
            diffs.append(d)
            total += d
        shifts = diffs
        if isfinite(total):
            share = total / count
        else:
            forcing = _forcing(diffs)
            if forcing is None:
                state.infeasible = True
                return diffs
            shifts, members, share = forcing
        if forward:
            i = 0
            for fwj, _, costs, lev, v, l, h, rest, reset in records:
                cost = costs[lev] - shifts[i]
                if members[i]:
                    cost += share
                i += 1
                costs[lev] = cost
                for c in reset:
                    fwj[c] = inf
                base = fwj[v]
                if l:
                    fwj[l] = base
                if h:
                    fwj[h] = base + cost if h != l else smin(base, base + cost)
                for v, l, h in rest:
                    base = fwj[v]
                    if l:
                        fwj[l] = smin(fwj[l], base)
                    if h:
                        fwj[h] = smin(fwj[h], base + cost)
        else:
            i = 0
            for _, bwj, costs, lev, v, l, h, rest, _ in records:
                cost = costs[lev] - shifts[i]
                if members[i]:
                    cost += share
                i += 1
                costs[lev] = cost
                bwj[v] = smin(bwj[l], cost + bwj[h])
                for v, l, h in rest:
                    bwj[v] = smin(bwj[l], cost + bwj[h])
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
    if state.store is not None:
        total = state.store.sweep(state, forward)
    else:
        steps = _min_steps if state.smin is None else _soft_steps
        steps(state, state.schedules[forward], forward)
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
    reads its forward value, while its backward value stays +inf.  `costs`
    holds the cost copies flat in slot order (diagram by diagram, level by
    level), and `rank` gives each slot's variable's place in `active`.
    `wave` is each variable's wave number, and `waves` lists the waves'
    tables in forward pass order; a backward pass runs them in reverse
    (see the module notes and `_Wave`).  All of these live as long as the
    state.  `build` makes every table
    that depends only on the diagrams' levels and supports; `refresh`
    re-reads `costs` from `duals` and each wave's `lo`/`hi` from the arcs.
    `optima` holds each diagram's optimum as the last refresh or completed
    pass left it, at `fw[trues]` or `bw[roots]`.  A pass writes the copies
    back into `duals` and the optima into `energies` (`write_back`),
    except while `held`: `run` holds them until its last pass.
    """

    __slots__ = ("base", "roots", "trues", "wave", "rank", "waves", "costs", "optima", "fw", "bw", "held")

    @classmethod
    def build(cls, bdds, active, averaging):
        """The store for `bdds`, or None when it would have too many waves to pay off."""
        import numpy as np

        i32 = np.int32
        self = cls()
        sizes, levels, roots, width, nodes = _tile(bdds)
        self.base = np.cumsum(sizes) - sizes
        self.roots = self.base + roots
        self.trues = self.base + TRUE
        ends = np.cumsum(levels)[levels > 0]
        var = np.fromiter(chain.from_iterable(b.support for b in bdds), i32, int(levels.sum()))
        first = np.zeros(len(var), bool)
        first[ends - levels[levels > 0]] = True
        last = np.zeros(len(var), bool)
        last[ends - 1] = True
        limit = (int(sizes.sum()) - 2 * len(bdds)) // ARRAY_MIN_WAVE_NODES
        num_vars = max(active, default=-1) + 1
        self.wave = _wave_numbers(var, first, num_vars, limit)
        if self.wave is None:
            return None
        diag = np.repeat(np.arange(len(bdds), dtype=i32), levels)
        start = np.cumsum(width) - width
        nodes += np.repeat(self.base[diag], width)
        heads = np.concatenate((nodes, self.trues))  # what a slot's `below` draws from
        rank_of = np.zeros(num_vars, i32)
        rank_of[active] = np.arange(len(active), dtype=i32)
        self.rank = rank = rank_of[var]
        number = self.wave[var]
        order = np.lexsort((-width, number))  # stable: slot order within a width
        bounds = np.searchsorted(number[order], np.arange(int(number.max(initial=-1)) + 2)).tolist()
        self.waves = [
            _wave(order[a:b], width, start, nodes, rank, first, last, averaging == SRMP, diag, heads)
            for a, b in zip(bounds, bounds[1:])
        ]
        self.costs = self.optima = None
        self.fw = np.full(int(sizes.sum()), INF)
        self.bw = np.full(int(sizes.sum()), INF)
        self.held = False
        return self

    def write_back(self, state):
        """Write the cost copies back into `state.duals` and the optima into `state.energies`."""
        flat = self.costs.tolist()
        k = 0
        for costs in state.duals:
            n = len(costs)
            costs[:] = flat[k : k + n]
            k += n
        state.energies[:] = self.optima.tolist()

    def bound(self):
        """The optima added left to right from 0.0, as `DualState.dual_value` adds the energies.

        One `np.add.accumulate`, which adds in order; `np.sum` would pair
        the terms differently.
        """
        import numpy as np

        return float(np.add.accumulate(np.concatenate(((0.0,), self.optima)))[-1])

    def refresh(self, state):
        """`DualState.refresh` on the store: re-read the cost copies and arcs, then every backward value."""
        import numpy as np

        bdds = state.bdds
        self.costs = np.fromiter(chain.from_iterable(state.duals), np.float64, len(self.rank))
        shift = np.repeat(self.base, np.diff(np.append(self.base, len(self.fw))))
        lo = np.fromiter(chain.from_iterable(b.lo for b in bdds), np.intp, len(shift))
        lo += shift
        hi = np.fromiter(chain.from_iterable(b.hi for b in bdds), np.intp, len(shift))
        hi += shift
        for w in self.waves:  # the false terminal is the sink
            w.lo, w.hi = lo[w.nodes], hi[w.nodes]
        self._backward(self.bw)
        self.optima = self.bw[self.roots]
        state.energies[:] = self.optima.tolist()
        self.fw[self.roots] = 0.0

    def _backward(self, bw):
        """Every backward value of `bw` afresh from the cost copies, bottom-up in every diagram."""
        import numpy as np

        bw[self.base + FALSE] = INF
        bw[self.base + TRUE] = 0.0
        for w in reversed(self.waves):
            a = bw[w.lo]
            b = _spread(self.costs[w.slots], w.columns) + bw[w.hi]
            bw[w.nodes] = np.where(a <= b, a, b)
        return bw

    def sweep(self, state, forward):
        """One pass, one vectorised coordinate step per wave; returns the raw bound, +inf on a proof.

        The arithmetic is `mma_update`'s, float for float; see the module
        notes.  A variable whose total is not finite goes through `_forcing`
        alone.  A proof latches `state.infeasible` and leaves the cost copies
        as the sequential pass would: the steps of the variables from the
        first proving one on, in pass order, are undone.
        """
        import numpy as np

        fw, bw, costs = self.fw, self.bw, self.costs
        saved = costs.copy()
        proof = None
        with np.errstate(all="ignore"):  # inf - inf is the nan of an empty diagram, as in the lists
            for w in self.waves if forward else reversed(self.waves):
                member, count = w.members[forward]
                f = fw[w.nodes]
                a = bw[w.lo]
                h = bw[w.hi]
                c = costs[w.slots]
                n = len(c)
                d, total = _diffs(w, f, a, h, c)
                share = (total / count)[w.slot_var]
                new = c - d[:n]
                if member is None:
                    new += share
                else:
                    new = np.where(member, new + share, new)
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
            undo = self.rank >= proof if forward else self.rank <= proof
            costs[undo] = saved[undo]
            state.infeasible = True
        else:
            self.optima = fw[self.trues] if forward else bw[self.roots]
        if not self.held:
            self.write_back(state)
        return INF if proof is not None else self.bound()

    def margins(self, state):
        """`DualState.margins` on the store: one read-only forward wave pass.

        Backward values are computed afresh into a temporary array as
        `refresh` computes them, and forward values are scattered afresh
        into another, wave by wave while each wave's pairs are read as a
        pass reads them; so `fw` and `bw` stay as the passes left them.  A
        slot's pair comes from `min_marginals`' float operations, and each
        variable's diffs are folded from 0.0 in slot order, so the margins
        equal the per-diagram sums to the bit.
        """
        import numpy as np

        bw = self._backward(np.full(len(self.bw), INF))
        fw = np.full(len(self.fw), INF)
        fw[self.roots] = 0.0
        out = np.empty(len(state.active))
        with np.errstate(all="ignore"):  # inf + -inf: forced both ways, nan as on the lists
            for w in self.waves:
                f = fw[w.nodes]
                c = self.costs[w.slots]
                out[w.rank] = _diffs(w, f, bw[w.lo], bw[w.hi], c)[1]
                np.minimum.at(fw, w.lo, f)
                np.minimum.at(fw, w.hi, f + _spread(c, w.columns))
        return dict(zip(state.active, out.tolist()))


def _diffs(w, f, a, h, c):
    """Wave `w`'s diffs m1 - m0 per slot, padded with a 0.0, and each variable's total.

    `f` holds the wave's forward node values, `a`/`h` the backward values
    of their 0- and 1-children, and `c` the cost copies per slot.  Each
    total adds the variable's diffs in slot order from 0.0.
    """
    import numpy as np

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
    total = np.zeros(len(w.rank))
    for column in w.groups:
        total += d[column]
    return d, total


def _spread(values, columns):
    """Per-slot `values` onto a wave's nodes, column by column."""
    import numpy as np

    if len(columns) == 1:
        return values[: columns[0][1]]
    return np.concatenate([values[:count] for _, count in columns])


def _tile(bdds):
    """Per diagram its size, levels and root, and per slot its width and nodes, from the templates.

    The nodes are numbered within their diagram.  Each distinct
    template's levels are read once, and every diagram of that template
    gets them by one gather per table; nothing is kept with the template.
    """
    import numpy as np

    index = {}  # template -> its place among the distinct templates
    which = np.array([index.setdefault(b.template, len(index)) for b in bdds], np.intp)
    templates = list(index)
    levels = [t.level_nodes for t in templates]
    t_sizes = np.fromiter((len(t.lo) for t in templates), np.intp, len(templates))
    t_roots = np.fromiter((t.root for t in templates), np.intp, len(templates))
    t_levels = np.fromiter(map(len, levels), np.intp, len(templates))
    t_counts = np.fromiter((sum(map(len, nodes)) for nodes in levels), np.intp, len(templates))
    t_width = np.fromiter(map(len, chain.from_iterable(levels)), np.intp, int(t_levels.sum()))
    t_nodes = np.fromiter(chain.from_iterable(chain.from_iterable(levels)), np.intp, int(t_counts.sum()))
    levels = t_levels[which]
    width = t_width[_ranges((np.cumsum(t_levels) - t_levels)[which], levels)]
    nodes = t_nodes[_ranges((np.cumsum(t_counts) - t_counts)[which], t_counts[which])]
    return t_sizes[which], levels, t_roots[which], width, nodes


def _ranges(starts, counts):
    """`starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1` for every i, concatenated."""
    import numpy as np

    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _wave_numbers(var, first, num_vars, limit):
    """Per variable: 0, or 1 + the largest number among the variables stepped just before it.

    `first` flags the slots at a diagram's first level; any other slot's
    diagram steps the previous slot's variable just before it.  Waves are
    peeled off one at a time, each from the variables whose predecessors are
    all numbered, so the work is linear in the slots plus a few numpy calls
    per wave.  None when more than `limit` waves would be needed.
    """
    import numpy as np

    later = np.flatnonzero(~first)
    child = var[later]
    parent = var[later - 1]
    by_parent = np.argsort(parent, kind="stable")
    out = np.bincount(parent, minlength=num_vars)
    start = np.cumsum(out) - out
    waiting = np.bincount(child, minlength=num_vars)
    wave = np.zeros(num_vars, np.int32)
    frontier = np.flatnonzero(waiting == 0)
    for number in range(1, limit + 1):
        edges = by_parent[_ranges(start[frontier], out[frontier])]
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
    """The tables of one wave of an `_ArrayStore`, for passes in either direction.

    - `slots` come widest level first.  `nodes` holds node k of every slot
      wider than k, for k = 0, 1, ...: node 0 of the i-th slot sits at i, and
      each column k is the block `(start, count)` of `columns` over the first
      `count` slots.  `lo`/`hi` are the nodes' children as of the last
      `refresh` (the false terminal being the sink), and `below` holds the
      nodes a forward step resets (the level below, or the true terminal).
    - `groups[k, v]` is the place of variable v's k-th slot (in slot
      order), padded with the place of a trailing 0.0; `slot_var` is the
      inverse, and `rank` each variable's place in `active`.
      `members[forward]` is `(member, count)` for a step in that
      direction: the member flags (None when every slot is one) and the
      number of members per variable.
    - The tables a pass indexes by are `np.intp` (see the module notes).
    """

    __slots__ = ("slots", "nodes", "lo", "hi", "columns", "below", "groups", "slot_var", "members", "rank")


def _wave(sl, width, start, nodes, rank, first, last, srmp, diag, heads):
    """The `_Wave` of the slots `sl`, widest level first."""
    import numpy as np

    w = _Wave()
    n = len(sl)
    w.slots = sl
    # node k of every slot wider than k; the slots wider than k are a prefix
    counts = np.bincount(width[sl])[::-1].cumsum()[::-1][1:].tolist()
    w.nodes = nodes[np.concatenate([start[sl[:c]] + k for k, c in enumerate(counts)])]
    w.columns = list(zip(np.cumsum([0] + counts).tolist(), counts))
    # variables: the places of each one's slots, in slot order
    r = rank[sl]
    pos = np.lexsort((sl, r))
    r = r[pos]
    vstart = np.flatnonzero(np.append(True, r[1:] != r[:-1]))
    vcount = np.diff(np.append(vstart, n))
    vid = np.repeat(np.arange(len(vstart)), vcount)
    w.groups = np.full((int(vcount.max()), len(vstart)), n, np.intp)
    w.groups[np.arange(n) - vstart[vid], vid] = pos
    w.slot_var = np.empty(n, np.intp)
    w.slot_var[pos] = vid
    w.rank = r[vstart]
    every = (None, vcount.astype(np.float64))
    w.members = {True: every, False: every}
    if srmp:
        # a member has a level still ahead of the slot's in the pass
        for forward, ahead in ((True, ~last[sl]), (False, ~first[sl])):
            member = ahead | (np.bincount(w.slot_var, weights=ahead, minlength=len(vstart)) == 0)[w.slot_var]
            if not member.all():
                w.members[forward] = (member, np.bincount(w.slot_var, weights=member, minlength=len(vstart)))
    end = last[sl]
    nxt = np.where(end, 0, sl + 1)
    size = np.where(end, 1, width[nxt])
    source = np.where(end, len(nodes) + diag[sl], start[nxt])
    w.below = heads[_ranges(source, size)]
    return w


def cost_scale(state: DualState) -> float:
    """min(1, largest |c_i|), c_i the sum of variable i's cost copies; 1 if all are 0.

    The stopping rule divides bound changes by max(scale, |lb|), so it is
    relative for small objectives too and unchanged when some cost is >= 1.
    """
    totals = {}  # each variable's copies added left to right in diagram order
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
    disables the check and runs to the pass limit, and the scale, which
    only the check reads, is then not computed.

    On the array store the passes of one run keep the cost copies and the
    optima in the store; they are back in `state.duals` and
    `state.energies` when the run returns.
    """
    store = state.store
    if store is None:
        return _run(state, max_passes, tolerance)
    store.held = True
    try:
        return _run(state, max_passes, tolerance)
    finally:
        store.held = False
        store.write_back(state)


def _run(state, max_passes, tolerance):
    trace = []
    lb = state.dual_value()
    if state.infeasible:
        return DualReport(INF, 0, "infeasible", trace)
    scale = cost_scale(state) if tolerance > 0 else None  # read only by the stopping rule
    passes = 0
    prev_round = lb
    termination = "pass_limit"
    while passes < max_passes:
        forward = passes % 2 == 0
        t0 = time.perf_counter()
        lb = forward_pass(state) if forward else backward_pass(state)
        ms = (time.perf_counter() - t0) * 1000.0
        passes += 1
        trace.append(TraceEntry(passes, "forward" if forward else "backward", lb, ms))
        if state.infeasible:
            termination = "infeasible"
            break
        if forward:
            continue
        if scale is not None and abs(lb - prev_round) / max(scale, abs(lb)) < tolerance:
            termination = "converged"
            break
        prev_round = lb
    return DualReport(INF if state.infeasible else lb, passes, termination, trace)
