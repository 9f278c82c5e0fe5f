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

With smoothing alpha > 0 marginals become soft minima at temperature
alpha, smin(a, b) = -alpha*log(exp(-a/alpha) + exp(-b/alpha)); the uniform
update then equalises the smoothed differences exactly, which is the exact
coordinate optimum of the smoothed dual, so monotonicity still holds.  Srmp
plus smoothing carries no such guarantee.  Both algebras keep every message
in cost units, so node values, energies and marginals read the same way
whatever the temperature.

A step's diffs m1 - m0 come from plain IEEE subtraction (+inf: the diagram
forces the variable to 0, -inf: to 1, nan: it is empty), and only a
non-finite sum leaves the averaging loop.  Diagrams forcing the variable
agree -> the finite diffs are dumped on the forcing diagrams (their optimum
can absorb shifts for free on the side they force); they disagree, or one
is empty -> the instance is proven infeasible and the bound becomes +inf.

There is one message kernel set per algebra: `marg`, `scatter`, `bstep`
and `fw_energy`, in a min-sum and a soft-min version; a `DualState` picks
its set once, from its smoothing.  The passes run the kernels
incrementally; `min_marginals` runs the min-sum ones as a fresh sweep over
one diagram, which is where the rounding search reads its margins.  The
kernels skip no removed node and are exact on restricted diagrams too:
fixation leaves no live node pointing at a removed one, so a removed node
is unreachable (value +inf) or a dead end (both arcs on the false
terminal).  The generic reference sweeps they are tested against live with
the tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .bdd import FALSE, TRUE

INF = math.inf

UNIFORM = "uniform"
SRMP = "srmp"

DEFAULT_MAX_PASSES = 1000
DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Termination controls for `run`.

    max_passes counts directional sweeps (a forward/backward round is two);
    tolerance is the bound change per round, relative to the bound or to
    the cost scale (see `cost_scale`), below which the run stops -- zero
    disables the check and runs to the pass limit.
    """

    max_passes: int = DEFAULT_MAX_PASSES
    tolerance: float = DEFAULT_TOLERANCE


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
    constraint set empty.  The kernel set `marg`, `scatter`, `bstep`,
    `fw_energy` (min-sum, or soft-min at temperature `smoothing`) is chosen
    once, here.

    `sweeps[forward][var]` is `(ahead, members, count)` for a sweep in that
    direction, fixed once: the slots with a level still ahead, per-slot
    averaging flags and their count (uniform: every slot; srmp: the slots
    ahead, or every slot if none is).
    """

    def __init__(self, bdds, decomposition, duals, smoothing, averaging):
        self.bdds = bdds
        self.decomposition = decomposition
        self.duals = duals
        self.smoothing = smoothing
        self.averaging = averaging
        self.marg, self.scatter, self.bstep, self.fw_energy = (
            _soft_min_kernels(smoothing) if smoothing > 0 else _MIN_KERNELS
        )
        self.infeasible = False
        self.fw = [[INF] * len(b.lo) for b in bdds]
        self.bw = [[INF] * len(b.lo) for b in bdds]
        self.energies = [0.0] * len(bdds)
        self.slots = {}
        for j, b in enumerate(bdds):
            for lev, var in enumerate(b.support):
                self.slots.setdefault(var, []).append((j, lev))
        last = [len(b.support) - 1 for b in bdds]
        everyone = {}  # slot count -> all-True flags, shared

        def entry(slots, ahead):
            if averaging == SRMP and ahead:
                return ahead, tuple(s in ahead for s in slots), len(ahead)
            return ahead, everyone.setdefault(len(slots), (True,) * len(slots)), len(slots)

        self.sweeps = {
            True: {v: entry(ss, [s for s in ss if s[1] < last[s[0]]]) for v, ss in self.slots.items()},
            False: {v: entry(ss, [s for s in ss if s[1] > 0]) for v, ss in self.slots.items()},
        }
        self.active = [i for i in decomposition.order if decomposition.var_subproblems[i]]

    @property
    def num_subproblems(self):
        return len(self.bdds)

    def dual_value(self):
        """Current sum of per-diagram optima (raw: no offset, no free vars)."""
        if self.infeasible:
            return INF
        return sum(self.energies)

    def refresh(self):
        """Recompute every backward value and energy; reseed forward roots.

        Needed once after construction and after any direct surgery on
        `duals`; passes keep the arrays current on their own.
        """
        for j, bdd in enumerate(self.bdds):
            bwj = self.bw[j]
            _bsweep(bdd, bwj, self.duals[j], self.bstep)
            self.energies[j] = bwj[bdd.root]
            if bdd.root >= 2:
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
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")
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


def _bstep_min(bdd, bwj, level, cost):
    lo, hi = bdd.lo, bdd.hi
    for v in bdd.level_nodes[level]:
        a = bwj[lo[v]]
        b = cost + bwj[hi[v]]
        bwj[v] = a if a <= b else b


def _fw_energy_min(bdd, fwj, cost_last):
    lo, hi = bdd.lo, bdd.hi
    best = INF
    for v in bdd.level_nodes[-1]:
        if lo[v] == TRUE and fwj[v] < best:
            best = fwj[v]
        if hi[v] == TRUE:
            b = fwj[v] + cost_last
            if b < best:
                best = b
    return best


_MIN_KERNELS = (_marg_min, _scatter_min, _bstep_min, _fw_energy_min)


def _soft_min_kernels(alpha):
    """The soft-min kernel set at temperature alpha > 0, shaped like `_MIN_KERNELS`."""

    def smin(a, b):
        # -alpha * log(exp(-a/alpha) + exp(-b/alpha)); exact when b is +inf
        if a > b:
            a, b = b, a
        if b == INF:
            return a
        return a - alpha * math.log1p(math.exp((a - b) / alpha))

    def marg(bdd, fwj, bwj, level, cost):
        lo, hi = bdd.lo, bdd.hi
        m0 = m1 = INF
        for v in bdd.level_nodes[level]:
            base = fwj[v]
            m0 = smin(m0, base + bwj[lo[v]])
            m1 = smin(m1, base + cost + bwj[hi[v]])
        return m0, m1

    def scatter(bdd, fwj, level, cost):
        lo, hi = bdd.lo, bdd.hi
        for v in bdd.level_nodes[level + 1]:
            fwj[v] = INF
        for v in bdd.level_nodes[level]:
            base = fwj[v]
            c = lo[v]
            if c >= 2:
                fwj[c] = smin(fwj[c], base)
            c = hi[v]
            if c >= 2:
                fwj[c] = smin(fwj[c], base + cost)

    def bstep(bdd, bwj, level, cost):
        lo, hi = bdd.lo, bdd.hi
        for v in bdd.level_nodes[level]:
            bwj[v] = smin(bwj[lo[v]], cost + bwj[hi[v]])

    def fw_energy(bdd, fwj, cost_last):
        lo, hi = bdd.lo, bdd.hi
        total = INF
        for v in bdd.level_nodes[-1]:
            if lo[v] == TRUE:
                total = smin(total, fwj[v])
            if hi[v] == TRUE:
                total = smin(total, fwj[v] + cost_last)
        return total

    return marg, scatter, bstep, fw_energy


def _bsweep(bdd, bwj, costs, bstep):
    """Seed the terminals and recompute every backward value bottom-up."""
    bwj[FALSE] = INF
    bwj[TRUE] = 0.0
    for lev in range(bdd.num_levels - 1, -1, -1):
        bstep(bdd, bwj, lev, costs[lev])


def min_marginals(bdd, costs):
    """Per-level (min path cost with the level's variable at 0, same at 1).

    `costs[lev]` is the cost of the 1-arcs at level `lev`.  One fresh
    backward and forward sweep; a sentinel diagram has no levels to report.
    """
    if bdd.root < 2:
        return []
    bw = [INF] * len(bdd.lo)
    _bsweep(bdd, bw, costs, _bstep_min)
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
    """One min-marginal-averaging step for one variable.

    Reads the marginal pair in every covering diagram (requires fw current
    at the variable's levels and bw current below them), then shifts the
    cost copies.  Returns the diffs m1 - m0 in slot order (see the module
    notes for infinities and nan).  A finite sum is averaged over the
    members `state.sweeps` holds for this variable and direction.  Does
    not advance any messages; callers step fw/bw afterwards.
    """
    slots = state.slots.get(var)
    if not slots:
        raise ValueError(f"variable {var} is not covered by any diagram")
    bdds, fw, bw, duals, marg = state.bdds, state.fw, state.bw, state.duals, state.marg
    diffs = []
    for j, lev in slots:
        m0, m1 = marg(bdds[j], fw[j], bw[j], lev, duals[j][lev])
        diffs.append(m1 - m0)
    total = sum(diffs)
    if math.isfinite(total):
        _, members, count = state.sweeps[forward][var]
        share = total / count
        for (j, lev), d, member in zip(slots, diffs, members):
            duals[j][lev] -= d
            if member:
                duals[j][lev] += share
        return diffs

    forced_zero = [slot for slot, d in zip(slots, diffs) if d == INF]
    forced_one = [slot for slot, d in zip(slots, diffs) if d == -INF]
    if (forced_zero and forced_one) or any(map(math.isnan, diffs)):
        state.infeasible = True
        return diffs
    # Move only diffs that prefer the impossible value: cost shifted off a
    # side no solution uses cannot hurt any diagram, and (for soft minima)
    # shifting the agreeing side would.  The forcing diffs fail both tests.
    absorbers = forced_zero or forced_one
    moved = 0.0
    for (j, lev), d in zip(slots, diffs):
        if (d < 0.0) if forced_zero else (d > 0.0):
            duals[j][lev] -= d
            moved += d
    if moved:
        share = moved / len(absorbers)
        for j, lev in absorbers:
            duals[j][lev] += share
    return diffs


# -- passes ----------------------------------------------------------------------


def _finish_pass(state: DualState, read):
    """Store every diagram's optimum and return the raw bound.

    `read(j, bdd)` is a non-sentinel diagram's optimum, taken from the
    messages the pass left current; sentinels need none.  Latches
    infeasibility.
    """
    energies = state.energies
    for j, bdd in enumerate(state.bdds):
        if bdd.root == TRUE:
            energies[j] = 0.0
        elif bdd.root == FALSE:
            energies[j] = INF
        else:
            energies[j] = read(j, bdd)
    total = state.dual_value()
    if total == INF:
        state.infeasible = True
    return total


def forward_pass(state: DualState):
    """Sweep the variable order forward; returns the raw bound afterwards.

    Requires bw current everywhere (a refresh or a completed backward
    pass).  Leaves fw current everywhere, so a backward pass may follow.
    """
    if state.infeasible:
        return INF
    bdds, fw, duals, scatter = state.bdds, state.fw, state.duals, state.scatter
    sweep = state.sweeps[True]
    for var in state.active:
        mma_update(state, var, forward=True)
        if state.infeasible:
            return INF
        for j, lev in sweep[var][0]:
            scatter(bdds[j], fw[j], lev, duals[j][lev])
    fw_energy = state.fw_energy
    return _finish_pass(state, lambda j, bdd: fw_energy(bdd, fw[j], duals[j][-1]))


def backward_pass(state: DualState):
    """Sweep the variable order backward; returns the raw bound afterwards.

    Requires fw current everywhere (a completed forward pass).  Leaves bw
    current everywhere, so a forward pass may follow.
    """
    if state.infeasible:
        return INF
    bdds, bw, duals, bstep = state.bdds, state.bw, state.duals, state.bstep
    for var in reversed(state.active):
        mma_update(state, var, forward=False)
        if state.infeasible:
            return INF
        for j, lev in state.slots[var]:
            bstep(bdds[j], bw[j], lev, duals[j][lev])
    return _finish_pass(state, lambda j, bdd: bw[j][bdd.root])


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


def run(state: DualState, config: SolverConfig = None) -> DualReport:
    """Alternate forward/backward passes until converged or out of passes."""
    if config is None:
        config = SolverConfig()
    trace = []
    lb = state.dual_value()
    if state.infeasible:
        return DualReport(INF, 0, "infeasible", trace)
    scale = cost_scale(state)
    passes = 0
    prev_round = lb
    termination = "pass_limit"
    while passes < config.max_passes:
        t0 = time.perf_counter()
        lb = forward_pass(state)
        passes += 1
        trace.append(TraceEntry(passes, "forward", lb, (time.perf_counter() - t0) * 1000.0))
        if state.infeasible:
            termination = "infeasible"
            break
        if passes >= config.max_passes:
            break
        t0 = time.perf_counter()
        lb = backward_pass(state)
        passes += 1
        trace.append(TraceEntry(passes, "backward", lb, (time.perf_counter() - t0) * 1000.0))
        if state.infeasible:
            termination = "infeasible"
            break
        if abs(lb - prev_round) / max(scale, abs(lb)) < config.tolerance:
            termination = "converged"
            break
        prev_round = lb
    return DualReport(INF if state.infeasible else lb, passes, termination, trace)
