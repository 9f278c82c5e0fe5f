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

With smoothing alpha > 0 marginals become soft minima computed in the log
domain (temperature alpha); the uniform update then equalises the smoothed
differences exactly, which is the exact coordinate optimum of the smoothed
dual, so monotonicity still holds.  Srmp plus smoothing carries no such
guarantee.

A variable forced in some diagram gives an infinite difference: diagrams
forcing it agree -> the finite diffs are dumped on the forcing diagrams
(their optimum can absorb shifts for free on the side they force); they
disagree -> the instance is proven infeasible and the bound becomes +inf.

There is one message kernel family per algebra: `_bstep_*`, `_scatter_*`,
`_marg_*` and `_fw_energy_*`, in a min-sum and a log-sum-exp version.  The
passes run them incrementally; `min_marginals` runs the min-sum ones as a
fresh sweep over one diagram, which is where the rounding search reads its
margins.  The generic reference sweeps they are tested against live with
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


@dataclass(frozen=True)
class SolverConfig:
    """Termination controls for `run`.

    max_passes counts directional sweeps (a forward/backward round is two);
    tolerance is the bound change per round, relative to the bound or to
    the cost scale (see `cost_scale`), below which the run stops -- zero
    disables the check and runs to the pass limit.
    """

    max_passes: int = DEFAULT_MAX_PASSES
    tolerance: float = 1e-6


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
    objective coefficient.  `fw`/`bw` hold forward/backward node values
    (log-domain when smoothing), `energies[j]` the latest per-diagram
    optimum in bound scale, and `infeasible` latches once any update proves
    the constraint set empty.
    """

    def __init__(self, bdds, decomposition, duals, smoothing, averaging):
        self.bdds = bdds
        self.decomposition = decomposition
        self.duals = duals
        self.smoothing = smoothing
        self.averaging = averaging
        self.infeasible = False
        ident = -INF if smoothing > 0 else INF
        self.fw = [[ident] * len(b.lo) for b in bdds]
        self.bw = [[ident] * len(b.lo) for b in bdds]
        self.energies = [0.0] * len(bdds)
        self.slots = {}
        for j, b in enumerate(bdds):
            for lev, var in enumerate(b.support):
                self.slots.setdefault(var, []).append((j, lev))
        self.active = [i for i in decomposition.order if decomposition.var_subproblems[i]]

    @property
    def num_subproblems(self):
        return len(self.bdds)

    def dual_value(self):
        """Current sum of per-diagram optima (raw: no offset, no free vars)."""
        if self.infeasible:
            return INF
        return sum(self.energies)

    def theta(self, j, lev):
        """Arc weight of the 1-arc at (j, lev) in the message domain."""
        lam = self.duals[j][lev]
        return -lam / self.smoothing if self.smoothing > 0 else lam

    def refresh(self):
        """Recompute every backward value and energy; reseed forward roots.

        Needed once after construction and after any direct surgery on
        `duals`; passes keep the arrays current on their own.
        """
        smoothing = self.smoothing
        for j, bdd in enumerate(self.bdds):
            fwj, bwj = self.fw[j], self.bw[j]
            if smoothing > 0:
                bwj[FALSE] = -INF
                bwj[TRUE] = 0.0
                for lev in range(bdd.num_levels - 1, -1, -1):
                    _bstep_lse(bdd, bwj, lev, self.theta(j, lev))
                self.energies[j] = -smoothing * bwj[bdd.root]
            else:
                _bsweep_min(bdd, bwj, self.duals[j])
                self.energies[j] = bwj[bdd.root]
            if bdd.root >= 2:
                fwj[bdd.root] = 0.0
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


# -- specialised message kernels (min-sum) ---------------------------------------


def _marg_min(bdd, fwj, bwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    m0 = m1 = INF
    for v in bdd.level_nodes[level]:
        if alive[v]:
            base = fwj[v]
            a = base + bwj[lo[v]]
            if a < m0:
                m0 = a
            b = base + theta + bwj[hi[v]]
            if b < m1:
                m1 = b
    return m0, m1


def _scatter_min(bdd, fwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    for v in bdd.level_nodes[level + 1]:
        fwj[v] = INF
    for v in bdd.level_nodes[level]:
        if alive[v]:
            base = fwj[v]
            c = lo[v]
            if c >= 2 and base < fwj[c]:
                fwj[c] = base
            c = hi[v]
            if c >= 2:
                b = base + theta
                if b < fwj[c]:
                    fwj[c] = b


def _bstep_min(bdd, bwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    for v in bdd.level_nodes[level]:
        if alive[v]:
            a = bwj[lo[v]]
            b = theta + bwj[hi[v]]
            bwj[v] = a if a <= b else b


def _bsweep_min(bdd, bwj, costs):
    """Seed the terminals and recompute every backward value bottom-up."""
    bwj[FALSE] = INF
    bwj[TRUE] = 0.0
    for lev in range(bdd.num_levels - 1, -1, -1):
        _bstep_min(bdd, bwj, lev, costs[lev])


def min_marginals(bdd, costs):
    """Per-level (min path cost with the level's variable at 0, same at 1).

    `costs[lev]` is the cost of the 1-arcs at level `lev`.  One fresh
    backward and forward sweep; a sentinel diagram has no levels to report.
    """
    if bdd.root < 2:
        return []
    bw = [INF] * len(bdd.lo)
    _bsweep_min(bdd, bw, costs)
    fw = [INF] * len(bdd.lo)
    fw[bdd.root] = 0.0
    last = bdd.num_levels - 1
    out = []
    for lev in range(bdd.num_levels):
        out.append(_marg_min(bdd, fw, bw, lev, costs[lev]))
        if lev < last:
            _scatter_min(bdd, fw, lev, costs[lev])
    return out


def _fw_energy_min(bdd, fwj, theta_last):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    best = INF
    for v in bdd.level_nodes[-1]:
        if alive[v]:
            if lo[v] == TRUE and fwj[v] < best:
                best = fwj[v]
            if hi[v] == TRUE:
                b = fwj[v] + theta_last
                if b < best:
                    best = b
    return best


# -- specialised message kernels (log domain) -------------------------------------


def _lse2(a, b):
    if a >= b:
        if b == -INF:
            return a
        return a + math.log1p(math.exp(b - a))
    if a == -INF:
        return b
    return b + math.log1p(math.exp(a - b))


def _marg_lse(bdd, fwj, bwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    v0 = v1 = -INF
    for v in bdd.level_nodes[level]:
        if alive[v]:
            base = fwj[v]
            v0 = _lse2(v0, base + bwj[lo[v]])
            v1 = _lse2(v1, base + theta + bwj[hi[v]])
    return v0, v1


def _scatter_lse(bdd, fwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    for v in bdd.level_nodes[level + 1]:
        fwj[v] = -INF
    for v in bdd.level_nodes[level]:
        if alive[v]:
            base = fwj[v]
            c = lo[v]
            if c >= 2:
                fwj[c] = _lse2(fwj[c], base)
            c = hi[v]
            if c >= 2:
                fwj[c] = _lse2(fwj[c], base + theta)


def _bstep_lse(bdd, bwj, level, theta):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    for v in bdd.level_nodes[level]:
        if alive[v]:
            bwj[v] = _lse2(bwj[lo[v]], theta + bwj[hi[v]])


def _fw_energy_lse(bdd, fwj, theta_last):
    lo, hi, alive = bdd.lo, bdd.hi, bdd.alive
    total = -INF
    for v in bdd.level_nodes[-1]:
        if alive[v]:
            if lo[v] == TRUE:
                total = _lse2(total, fwj[v])
            if hi[v] == TRUE:
                total = _lse2(total, fwj[v] + theta_last)
    return total


# -- the coordinate update ---------------------------------------------------------


def _predicted_increase(diffs):
    """Exact bound gain of one hard-min update, in extended arithmetic.

    Finite diffs: min(0, sum) - sum of min(0, d).  One-sided infinities put
    the finite diffs on the forcing diagrams, whose optimum ignores the
    shift (forced-0) or absorbs it linearly (forced-1); the residual terms
    below are the limits of the same formula.
    """
    if any(d == INF for d in diffs):
        return -sum(min(0.0, d) for d in diffs if d != INF)
    if any(d == -INF for d in diffs):
        return sum(max(0.0, d) for d in diffs if d != -INF)
    total = sum(diffs)
    return min(0.0, total) - sum(min(0.0, d) for d in diffs)


def mma_update(state: DualState, var, forward=True, observer=None):
    """One min-marginal-averaging step for one variable.

    Reads the marginal pair in every covering diagram (requires fw current
    at the variable's levels and bw current below them), then shifts the
    cost copies.  Returns (diffs, predicted) where `predicted` is the exact
    bound increase for hard minima, +inf when the step proves infeasibility,
    and None when smoothing (no closed form is claimed).  Does not advance
    any messages; callers step fw/bw afterwards with the new weights.
    """
    slots = state.slots.get(var)
    if not slots:
        raise ValueError(f"variable {var} is not covered by any diagram")
    smoothing = state.smoothing
    duals = state.duals
    items = []
    if smoothing > 0:
        for j, lev in slots:
            v0, v1 = _marg_lse(state.bdds[j], state.fw[j], state.bw[j], lev, state.theta(j, lev))
            items.append((j, lev, -smoothing * v0, -smoothing * v1))
    else:
        for j, lev in slots:
            m0, m1 = _marg_min(state.bdds[j], state.fw[j], state.bw[j], lev, duals[j][lev])
            items.append((j, lev, m0, m1))
    if observer is not None:
        observer.marginals(var, items)

    diffs = []
    forced_zero = []  # slot positions where the diagram forces var = 0
    forced_one = []
    finite = []
    dead = False
    for pos, (j, lev, m0, m1) in enumerate(items):
        if m1 == INF:
            if m0 == INF:
                dead = True  # the diagram itself has no solutions left
                diffs.append(math.nan)
                continue
            diffs.append(INF)
            forced_zero.append(pos)
        elif m0 == INF:
            diffs.append(-INF)
            forced_one.append(pos)
        else:
            diffs.append(m1 - m0)
            finite.append(pos)

    if dead or (forced_zero and forced_one):
        state.infeasible = True
        predicted = INF
    else:
        absorbers = forced_zero or forced_one
        if absorbers:
            # Move only diffs that prefer the impossible value: cost shifted
            # off a side no solution uses cannot hurt any diagram, and (for
            # soft minima) shifting the agreeing side would.
            moved = 0.0
            for pos in finite:
                d = diffs[pos]
                if (d < 0.0) if forced_zero else (d > 0.0):
                    j, lev, _, _ = items[pos]
                    duals[j][lev] -= d
                    moved += d
            if moved:
                share = moved / len(absorbers)
                for pos in absorbers:
                    j, lev, _, _ = items[pos]
                    duals[j][lev] += share
        else:
            total = sum(diffs)
            if state.averaging == SRMP:
                if forward:
                    members = [
                        pos
                        for pos, (j, lev, _, _) in enumerate(items)
                        if lev + 1 < state.bdds[j].num_levels
                    ]
                else:
                    members = [pos for pos, (j, lev, _, _) in enumerate(items) if lev > 0]
                if not members:
                    members = range(len(items))
            else:
                members = range(len(items))
            share = total / len(members)
            in_set = set(members)
            for pos, (j, lev, _, _) in enumerate(items):
                duals[j][lev] -= diffs[pos]
                if pos in in_set:
                    duals[j][lev] += share
        predicted = None if smoothing > 0 else _predicted_increase(diffs)

    if observer is not None:
        observer.updated(var, diffs, predicted)
    return diffs, predicted


# -- passes ----------------------------------------------------------------------


def _finish_pass(state: DualState, read):
    """Store every diagram's optimum and return the raw bound.

    `read(j, bdd)` is a non-sentinel diagram's optimum in the message
    domain, taken from the messages the pass left current; sentinels need
    none.  Latches infeasibility.
    """
    smoothing = state.smoothing
    energies = state.energies
    for j, bdd in enumerate(state.bdds):
        if bdd.root == TRUE:
            energies[j] = 0.0
        elif bdd.root == FALSE:
            energies[j] = INF
        elif smoothing > 0:
            energies[j] = -smoothing * read(j, bdd)
        else:
            energies[j] = read(j, bdd)
    total = state.dual_value()
    if total == INF:
        state.infeasible = True
    return total


def forward_pass(state: DualState, observer=None):
    """Sweep the variable order forward; returns the raw bound afterwards.

    Requires bw current everywhere (a refresh or a completed backward
    pass).  Leaves fw current everywhere, so a backward pass may follow.
    """
    if state.infeasible:
        return INF
    smoothing = state.smoothing
    scatter = _scatter_lse if smoothing > 0 else _scatter_min
    for var in state.active:
        mma_update(state, var, forward=True, observer=observer)
        if state.infeasible:
            return INF
        for j, lev in state.slots[var]:
            if lev + 1 < state.bdds[j].num_levels:
                scatter(state.bdds[j], state.fw[j], lev, state.theta(j, lev))
    fw_energy = _fw_energy_lse if smoothing > 0 else _fw_energy_min
    return _finish_pass(
        state, lambda j, bdd: fw_energy(bdd, state.fw[j], state.theta(j, bdd.num_levels - 1))
    )


def backward_pass(state: DualState, observer=None):
    """Sweep the variable order backward; returns the raw bound afterwards.

    Requires fw current everywhere (a completed forward pass).  Leaves bw
    current everywhere, so a forward pass may follow.
    """
    if state.infeasible:
        return INF
    smoothing = state.smoothing
    bstep = _bstep_lse if smoothing > 0 else _bstep_min
    for var in reversed(state.active):
        mma_update(state, var, forward=False, observer=observer)
        if state.infeasible:
            return INF
        for j, lev in state.slots[var]:
            bstep(state.bdds[j], state.bw[j], lev, state.theta(j, lev))
    return _finish_pass(state, lambda j, bdd: state.bw[j][bdd.root])


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


def run(state: DualState, config: SolverConfig = None, observer=None) -> DualReport:
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
        lb = forward_pass(state, observer)
        passes += 1
        trace.append(TraceEntry(passes, "forward", lb, (time.perf_counter() - t0) * 1000.0))
        if state.infeasible:
            termination = "infeasible"
            break
        if passes >= config.max_passes:
            break
        t0 = time.perf_counter()
        lb = backward_pass(state, observer)
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
