"""Reference message passing over decision diagrams, generic in the algebra.

A test oracle: clear, slow, and independent of the solver's specialised
kernels, which the tests check against it.

A sweep assigns every node two values: the best way to reach it from the
root (forward) and the best completion down to the true terminal
(backward).  "Best" is defined by an algebra: values along a path are
accumulated with `combine`, alternatives are folded with `merge`.  The
min-sum instance yields optimal values and per-variable min-marginals, the
counting instance path counts, and the log-partition instance smoothed
(soft-min) values; only the pair of operators changes.

Arc weights: a node's 1-arc carries the weight `arc_weight(theta)` for that
level's parameter theta, 0-arcs are free.  Callers are responsible for the
parameter scale (e.g. passing -lambda/alpha and rescaling results when
smoothing).

These routines favour clarity; `bddsolve.dual` runs specialised min-sum
and soft-min kernels computing the same values in cost units.  The
`scratch_*` functions recompute a dual state's marginals and energies from
scratch; `marginals_of_set` reads the same marginals off an enumerated
assignment set; `slot_pass` runs a dual
pass with one kernel call per covering level, the loop the solver's fused
coordinate step must match to the bit; `predicted_increase` is the
closed-form bound gain of one hard-min update; `update_pass` runs a pass
as one `dual.mma_update` call per variable, and `watch_updates` routes the
passes through it to show every update to a checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bddsolve import dual
from bddsolve.bdd import FALSE, TRUE, Bdd
from bdd_queries import level_of, slot_map

INF = math.inf


def log_sum_exp(a, b):
    """log(e^a + e^b) without overflow; -inf behaves as log(0)."""
    if a == -INF:
        return b
    if b == -INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True)
class MarginalAlgebra:
    """Operator pair (plus identities) defining one message-passing semantics.

    Attributes
    ----------
    combine : accumulate weights along a single path.
    merge : fold the values of alternative paths.
    path_identity : value of the empty path (neutral for combine).
    merge_identity : value of "no alternatives" (neutral for merge).
    arc_weight : weight a 1-arc contributes, given the level parameter.
    """

    name: str
    combine: Callable
    merge: Callable
    path_identity: object
    merge_identity: object
    arc_weight: Callable

    def __repr__(self):
        return f"MarginalAlgebra({self.name})"


MIN_MARGINAL = MarginalAlgebra(
    name="min_marginal",
    combine=lambda a, b: a + b,
    merge=min,
    path_identity=0.0,
    merge_identity=INF,
    arc_weight=lambda theta: theta,
)

LOG_PARTITION = MarginalAlgebra(
    name="log_partition",
    combine=lambda a, b: a + b,
    merge=log_sum_exp,
    path_identity=0.0,
    merge_identity=-INF,
    arc_weight=lambda theta: theta,
)

COUNTING = MarginalAlgebra(
    name="counting",
    combine=lambda a, b: a * b,
    merge=lambda a, b: a + b,
    path_identity=1,
    merge_identity=0,
    arc_weight=lambda theta: 1,
)


class MessageStore:
    """Forward/backward value arrays for one diagram, indexed by node id."""

    __slots__ = ("fw", "bw")

    def __init__(self, bdd: Bdd, algebra: MarginalAlgebra):
        n = len(bdd.lo)
        self.fw = [algebra.merge_identity] * n
        self.bw = [algebra.merge_identity] * n
        self.reset(bdd, algebra)

    def reset(self, bdd: Bdd, algebra: MarginalAlgebra):
        """Seed terminals and the root; interior values await the sweeps."""
        for arr in (self.fw, self.bw):
            for i in range(len(arr)):
                arr[i] = algebra.merge_identity
        self.bw[TRUE] = algebra.path_identity
        if bdd.root >= 2:
            self.fw[bdd.root] = algebra.path_identity


def _live(bdd: Bdd, v) -> bool:
    """Whether node v is not removed: a removed node has both arcs on the false terminal."""
    return bdd.lo[v] != FALSE or bdd.hi[v] != FALSE


def backward_step(bdd: Bdd, store: MessageStore, level: int, theta, algebra: MarginalAlgebra):
    """Recompute backward values of `level` from the level below."""
    bw, lo, hi = store.bw, bdd.lo, bdd.hi
    w = algebra.arc_weight(theta)
    combine, merge = algebra.combine, algebra.merge
    for v in bdd.level_nodes[level]:
        if _live(bdd, v):
            bw[v] = merge(bw[lo[v]], combine(w, bw[hi[v]]))


def forward_step(bdd: Bdd, store: MessageStore, level: int, theta, algebra: MarginalAlgebra):
    """Push forward values from `level` one level down (overwriting there)."""
    if level + 1 >= len(bdd.level_nodes):
        raise ValueError("forward_step has no level below the last")
    fw, lo, hi = store.fw, bdd.lo, bdd.hi
    w = algebra.arc_weight(theta)
    combine, merge = algebra.combine, algebra.merge
    ident = algebra.merge_identity
    for v in bdd.level_nodes[level + 1]:
        fw[v] = ident
    for v in bdd.level_nodes[level]:
        if not _live(bdd, v):
            continue
        base = fw[v]
        c = lo[v]
        if c >= 2:
            fw[c] = merge(fw[c], base)
        c = hi[v]
        if c >= 2:
            fw[c] = merge(fw[c], combine(base, w))


def aggregate_marginals(bdd: Bdd, store: MessageStore, level: int, theta, algebra: MarginalAlgebra):
    """Fold fw/arc/bw over a level into the pair of per-value marginals.

    Returns (value over paths with the level's variable at 0, same at 1) in
    the algebra's domain; assumes fw is current at `level` and bw below it.
    """
    fw, bw, lo, hi = store.fw, store.bw, bdd.lo, bdd.hi
    w = algebra.arc_weight(theta)
    combine, merge = algebra.combine, algebra.merge
    m0 = m1 = algebra.merge_identity
    for v in bdd.level_nodes[level]:
        if not _live(bdd, v):
            continue
        base = fw[v]
        m0 = merge(m0, combine(base, bw[lo[v]]))
        m1 = merge(m1, combine(combine(base, w), bw[hi[v]]))
    return m0, m1


def backward_sweep(bdd: Bdd, store: MessageStore, thetas, algebra: MarginalAlgebra):
    """Full bottom-up pass; afterwards bw is current at every level."""
    store.bw[TRUE] = algebra.path_identity
    store.bw[FALSE] = algebra.merge_identity
    for level in range(len(bdd.level_nodes) - 1, -1, -1):
        backward_step(bdd, store, level, thetas[level], algebra)


def marginal_sweep(bdd: Bdd, store: MessageStore, thetas, algebra: MarginalAlgebra):
    """Fresh marginals for every level: one backward plus one forward pass."""
    if bdd.root < 2:
        return []
    backward_sweep(bdd, store, thetas, algebra)
    if bdd.root >= 2:
        store.fw[bdd.root] = algebra.path_identity
    out = []
    for level in range(len(bdd.level_nodes)):
        out.append(aggregate_marginals(bdd, store, level, thetas[level], algebra))
        if level + 1 < len(bdd.level_nodes):
            forward_step(bdd, store, level, thetas[level], algebra)
    return out


def subproblem_energy(bdd: Bdd, store: MessageStore, algebra: MarginalAlgebra):
    """Merged value over all accepted paths, read at the root.

    Requires a completed backward sweep.  Sentinel diagrams need no sweep:
    an always-true row contributes the empty path, an empty one nothing.
    """
    if bdd.root == TRUE:
        return algebra.path_identity
    if bdd.root == FALSE:
        return algebra.merge_identity
    return store.bw[bdd.root]


def forward_energy(bdd: Bdd, store: MessageStore, theta, algebra: MarginalAlgebra):
    """Same value as `subproblem_energy`, read from the last level's fw side."""
    if bdd.root == TRUE:
        return algebra.path_identity
    if bdd.root == FALSE:
        return algebra.merge_identity
    fw, lo, hi = store.fw, bdd.lo, bdd.hi
    w = algebra.arc_weight(theta)
    combine, merge = algebra.combine, algebra.merge
    total = algebra.merge_identity
    for v in bdd.level_nodes[-1]:
        if not _live(bdd, v):
            continue
        if lo[v] == TRUE:
            total = merge(total, fw[v])
        if hi[v] == TRUE:
            total = merge(total, combine(fw[v], w))
    return total


# -- from-scratch recomputation of a dual state --------------------------------


def scratch_marginals(state, j):
    """Per-level marginal pairs of diagram j in bound scale, from a fresh sweep."""
    bdd = state.bdds[j]
    if state.smoothing > 0:
        thetas = [-lam / state.smoothing for lam in state.duals[j]]
        store = MessageStore(bdd, LOG_PARTITION)
        raw = marginal_sweep(bdd, store, thetas, LOG_PARTITION)
        a = state.smoothing
        return [(-a * v0, -a * v1) for v0, v1 in raw]
    store = MessageStore(bdd, MIN_MARGINAL)
    return marginal_sweep(bdd, store, state.duals[j], MIN_MARGINAL)


def scratch_energy(state, j):
    """Diagram j's optimum in bound scale, from a fresh sweep."""
    bdd = state.bdds[j]
    if state.smoothing > 0:
        thetas = [-lam / state.smoothing for lam in state.duals[j]]
        store = MessageStore(bdd, LOG_PARTITION)
        backward_sweep(bdd, store, thetas, LOG_PARTITION)
        return -state.smoothing * subproblem_energy(bdd, store, LOG_PARTITION)
    store = MessageStore(bdd, MIN_MARGINAL)
    backward_sweep(bdd, store, state.duals[j], MIN_MARGINAL)
    return subproblem_energy(bdd, store, MIN_MARGINAL)


def scratch_dual_value(state):
    """Sum of every diagram's scratch energy."""
    return sum(scratch_energy(state, j) for j in range(len(state.bdds)))


# -- marginals of an enumerated assignment set ---------------------------------


def marginals_of_set(assignments, values, alpha=0.0):
    """Per-variable value-conditioned aggregates of an assignment set.

    With alpha == 0 returns hard min-marginals; otherwise the smoothed
    counterpart -alpha * log(sum(exp(-v / alpha))).  Empty sides give inf.
    """
    values = np.asarray(values, dtype=np.float64)
    out = []
    for i in range(assignments.shape[1]):
        pair = []
        for val in (0, 1):
            side = values[assignments[:, i] == val]
            if len(side) == 0:
                pair.append(math.inf)
            elif alpha == 0.0:
                pair.append(float(side.min()))
            else:
                pair.append(float(-alpha * np.logaddexp.reduce(-side / alpha)))
        out.append(tuple(pair))
    return out


# -- the per-level pass loop ---------------------------------------------------


def level_kernels(state):
    """`(marg, scatter, bstep, readout)` for one diagram, in the state's algebra.

    `marg(bdd, fwj, bwj, level, cost)` is the level's marginal pair and
    `scatter(bdd, fwj, level, cost)` recomputes the forward values of the
    level below from the level's own, whose 1-arcs cost `cost`.
    `bstep(bdd, bwj, level, cost)` recomputes one level's backward values
    and `readout(bdd, fwj, cost)` is the optimum read off the last level's
    forward values.  All fold with the state's `smin`, or for min-sum with a
    min keeping the earlier value on ties, node by node in level order.
    """
    if state.smin is None:

        def smin(a, b):
            return a if a <= b else b

    else:
        smin = state.smin

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

    def readout(bdd, fwj, cost):
        lo, hi = bdd.lo, bdd.hi
        total = INF
        for v in bdd.level_nodes[-1]:
            if lo[v] == TRUE:
                total = smin(total, fwj[v])
            if hi[v] == TRUE:
                total = smin(total, fwj[v] + cost)
        return total

    return marg, scatter, bstep, readout


def _slot_update(state, slots, forward, marg):
    """One coordinate step over one variable's `slots`, messages untouched; returns its kind.

    "average", "forced" or "infeasible" (latched on the state).  Members are
    derived from the diagrams' level counts, not from `state.members`.
    """
    bdds, fw, bw, duals = state.bdds, state.fw, state.bw, state.duals
    diffs = []
    for j, lev in slots:
        m0, m1 = marg(bdds[j], fw[j], bw[j], lev, duals[j][lev])
        diffs.append(m1 - m0)
    total = sum(diffs)
    if math.isfinite(total):
        ahead = [lev < bdds[j].num_levels - 1 if forward else lev > 0 for j, lev in slots]
        members = ahead if state.averaging == dual.SRMP and any(ahead) else [True] * len(slots)
        share = total / sum(members)
        for (j, lev), d, member in zip(slots, diffs, members):
            duals[j][lev] -= d
            if member:
                duals[j][lev] += share
        return "average"
    forced_zero = [slot for slot, d in zip(slots, diffs) if d == INF]
    forced_one = [slot for slot, d in zip(slots, diffs) if d == -INF]
    if (forced_zero and forced_one) or any(map(math.isnan, diffs)):
        state.infeasible = True
        return "infeasible"
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
    return "forced"


def slot_pass(state, forward, kinds=None):
    """A dual pass the per-level way: a step, then one kernel call per slot.

    The loop `dual.forward_pass`/`backward_pass` ran before a coordinate
    step became one fused call over level records; same arithmetic, so the
    results must agree to the bit.  A forward step at a diagram's last level
    writes the true terminal's forward value from `readout`, and the pass
    reads each optimum there (forward) or at the root (backward); sentinel
    diagrams are read off their root.  `kinds`, a Counter, tallies the steps.
    """
    if state.infeasible:
        return INF
    marg, scatter, bstep, readout = level_kernels(state)
    bdds, fw, bw, duals = state.bdds, state.fw, state.bw, state.duals
    slots = slot_map(bdds)
    for var in state.active if forward else reversed(state.active):
        kind = _slot_update(state, slots[var], forward, marg)
        if kinds is not None:
            kinds[kind] += 1
        if state.infeasible:
            return INF
        for j, lev in slots[var]:
            if not forward:
                bstep(bdds[j], bw[j], lev, duals[j][lev])
            elif lev < bdds[j].num_levels - 1:
                scatter(bdds[j], fw[j], lev, duals[j][lev])
            else:
                fw[j][TRUE] = readout(bdds[j], fw[j], duals[j][lev])
    for j, bdd in enumerate(bdds):
        if bdd.root < 2:
            state.energies[j] = 0.0 if bdd.root == TRUE else INF
        else:
            state.energies[j] = fw[j][TRUE] if forward else bw[j][bdd.root]
    total = sum(state.energies)
    if total == INF:
        state.infeasible = True
    return total


# -- watching the dual's coordinate updates ------------------------------------


def predicted_increase(diffs):
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


def update_pass(state, forward, observer=None):
    """A list-store pass as the explicit `dual.mma_update` sequence; returns the raw bound.

    One call per variable of `state.active`, in that order going forward
    and in reverse going back, then the optimum read where the pass left it
    current, as `dual.forward_pass`/`backward_pass` read it; they run the
    same steps as one loop over the state's step schedule, so the results
    must agree to the bit.  With an `observer` each step is shown to it as
    `watch_updates` describes.
    """
    if state.infeasible:
        return INF
    for var in state.active if forward else reversed(state.active):
        if observer is not None:
            marg = level_kernels(state)[0]
            items = []
            for j in state.covering[var]:
                lev = level_of(state.bdds[j], var)
                items.append((j, lev, *marg(state.bdds[j], state.fw[j], state.bw[j], lev, state.duals[j][lev])))
            observer.marginals(var, items)
        diffs = dual.mma_update(state, var, forward)
        if observer is not None:
            if state.infeasible:
                predicted = INF
            elif state.smoothing > 0:
                predicted = None
            else:
                predicted = predicted_increase(diffs)
            observer.updated(var, diffs, predicted)
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


def watch_updates(monkeypatch, observer):
    """Run every list-store pass as `update_pass`, showing each step to `observer`.

    Before a step `observer.marginals(var, items)` gets the
    `(j, lev, m0, m1)` the update is about to read, from the state's cached
    messages (`level_kernels`); after it `observer.updated(var, diffs, predicted)` gets the returned
    diffs and the predicted bound gain: +inf when the update proved
    infeasibility, None when smoothing (no closed form is claimed),
    `predicted_increase(diffs)` otherwise.  `run`, `forward_pass` and
    `backward_pass` all pass through `dual._pass`, which this replaces.
    """
    monkeypatch.setattr(dual, "_pass", lambda state, forward: update_pass(state, forward, observer))
