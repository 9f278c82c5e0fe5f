"""Exhaustive-search oracles and families of benchmark instances.

The oracles enumerate every 0/1 assignment (vectorised, but still capped at
a couple dozen variables) and exist so the iterative solver has something
exact to be checked against.  The generators produce small structured
instances -- random rows, grid labelling problems, quadratic matchings,
two-frame tracking, discrete tomography -- deterministically in their seed.
Only the oracles need numpy, so they import it themselves and the
generators stay cheap to import.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .model import ILPInstance, LinearConstraint, Relation

BRUTE_FORCE_CAP = 22
_CHUNK = 1 << 16


def _feasible_chunks(instance: ILPInstance, cap):
    """Yield (indices, bits) of the feasible assignments, chunk by chunk.

    An assignment's index is its bit pattern, variable 0 least significant;
    `bits` has one row per index, and chunks come in increasing index order.
    Chunks without a feasible assignment are skipped.
    """
    import numpy as np

    n = instance.num_vars
    if n > cap:
        raise ValueError(f"{n} variables is past the enumeration cap {cap}")
    rows = [
        (
            np.array([i for i, _ in c.terms], dtype=np.int64),
            np.array([a for _, a in c.terms], dtype=np.int64),
            c.relation,
            c.rhs,
        )
        for c in instance.constraints
    ]
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        bits = (ks[:, None] >> shifts) & 1
        mask = np.ones(len(ks), dtype=bool)
        for sup, co, rel, rhs in rows:
            act = bits[:, sup] @ co
            if rel is Relation.LE:
                mask &= act <= rhs
            elif rel is Relation.GE:
                mask &= act >= rhs
            else:
                mask &= act == rhs
        if mask.any():
            yield ks[mask], bits[mask]


def brute_force_solve(instance: ILPInstance, cap=BRUTE_FORCE_CAP):
    """Exact optimum by enumeration.

    Returns (value, assignment) with the objective as a Fraction (offset
    included), or (None, None) when no assignment is feasible.  Ties pick
    the assignment whose bit pattern, variable 0 least significant, encodes
    the smallest integer.
    """
    import numpy as np

    n = instance.num_vars
    scale = math.lcm(*(f.denominator for f in instance.objective)) if n else 1
    costs = np.array([int(f * scale) for f in instance.objective], dtype=np.int64)
    best_val = None
    best_idx = None
    for ks, bits in _feasible_chunks(instance, cap):
        vals = bits @ costs
        pos = int(np.argmin(vals))
        val = int(vals[pos])
        if best_val is None or val < best_val:
            best_val = val
            best_idx = int(ks[pos])
    if best_val is None:
        return None, None
    assignment = tuple(int((best_idx >> i) & 1) for i in range(n))
    return Fraction(best_val, scale) + instance.objective_offset, assignment


# -- instance generators --------------------------------------------------------


def random_ilp(num_vars, num_rows, seed, coeff_pool=(1, 2, 3, -1, -2, -3)):
    """Rows over random supports with random small coefficients.

    Each `<=` and `>=` row on its own is satisfiable, since its right-hand
    side lies between its least and greatest sums; an `=` row may not be
    (seed 0's `r2: 3 x5 - 2 x6 = -1`).  Their conjunction may or may not be.
    """
    rng = random.Random(seed)
    objective = [Fraction(rng.randint(-5, 5)) for _ in range(num_vars)]
    rows = []
    for r in range(num_rows):
        k = rng.randint(min(2, num_vars), min(num_vars, 5))
        support = sorted(rng.sample(range(num_vars), k))
        terms = tuple((i, rng.choice(coeff_pool)) for i in support)
        lo = sum(min(0, a) for _, a in terms)
        hi = sum(max(0, a) for _, a in terms)
        relation = rng.choice((Relation.LE, Relation.GE, Relation.EQ))
        rows.append(LinearConstraint(f"r{r}", terms, relation, rng.randint(lo, hi)))
    names = [f"x{i}" for i in range(num_vars)]
    return ILPInstance(names, objective, tuple(rows), name=f"random-{seed}")


def _grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def mrf_instance(rows, cols, labels, seed):
    """Grid labelling as an exact 0/1 program.

    One indicator u{node}_{label} per node and label, one p{a}_{b}_{la}_{lb}
    per edge and label pair; rows pick exactly one label per node, exactly
    one pair per edge, and tie the two choices together.  A 1xN grid is a
    chain.
    """
    rng = random.Random(seed)
    names = []
    index = {}

    def add(name):
        index[name] = len(names)
        names.append(name)

    nodes = rows * cols
    for v in range(nodes):
        for l in range(labels):
            add(f"u{v}_{l}")
    edges = _grid_edges(rows, cols)
    for a, b in edges:
        for la in range(labels):
            for lb in range(labels):
                add(f"p{a}_{b}_{la}_{lb}")
    objective = [Fraction(rng.randint(-5, 5)) for _ in names]

    cons = []
    for v in range(nodes):
        terms = tuple((index[f"u{v}_{l}"], 1) for l in range(labels))
        cons.append(LinearConstraint(f"node{v}", terms, Relation.EQ, 1))
    for a, b in edges:
        terms = tuple(
            (index[f"p{a}_{b}_{la}_{lb}"], 1) for la in range(labels) for lb in range(labels)
        )
        cons.append(LinearConstraint(f"edge{a}_{b}", terms, Relation.EQ, 1))
        for la in range(labels):
            terms = tuple((index[f"p{a}_{b}_{la}_{lb}"], 1) for lb in range(labels)) + (
                (index[f"u{a}_{la}"], -1),
            )
            cons.append(LinearConstraint(f"left{a}_{b}_{la}", terms, Relation.EQ, 0))
        for lb in range(labels):
            terms = tuple((index[f"p{a}_{b}_{la}_{lb}"], 1) for la in range(labels)) + (
                (index[f"u{b}_{lb}"], -1),
            )
            cons.append(LinearConstraint(f"right{a}_{b}_{lb}", terms, Relation.EQ, 0))
    return ILPInstance(names, objective, tuple(cons), name=f"mrf-{rows}x{cols}-{labels}-{seed}")


def graph_matching_instance(size, seed):
    """Quadratic assignment between two node sets of `size`.

    Linear part x{l}_{r}, quadratic part nu{l}_{lp}_{r}_{rp} over ordered
    pairs of distinct nodes on both sides, linked to the x variables by one
    equality per (pair, endpoint) so the relaxation is exact on integral
    points.
    """
    rng = random.Random(seed)
    names = []
    index = {}

    def add(name):
        index[name] = len(names)
        names.append(name)

    for l in range(size):
        for r in range(size):
            add(f"x{l}_{r}")
    lpairs = [(l, lp) for l in range(size) for lp in range(size) if l != lp]
    rpairs = [(r, rp) for r in range(size) for rp in range(size) if r != rp]
    for l, lp in lpairs:
        for r, rp in rpairs:
            add(f"nu{l}_{lp}_{r}_{rp}")
    objective = [Fraction(rng.randint(-5, 5)) for _ in names]

    cons = []
    for l in range(size):
        terms = tuple((index[f"x{l}_{r}"], 1) for r in range(size))
        cons.append(LinearConstraint(f"left{l}", terms, Relation.EQ, 1))
    for r in range(size):
        terms = tuple((index[f"x{l}_{r}"], 1) for l in range(size))
        cons.append(LinearConstraint(f"right{r}", terms, Relation.EQ, 1))
    for l, lp in lpairs:
        for r in range(size):
            terms = tuple(
                (index[f"nu{l}_{lp}_{r}_{rp}"], 1) for rp in range(size) if rp != r
            ) + ((index[f"x{l}_{r}"], -1),)
            cons.append(LinearConstraint(f"outp{l}_{lp}_{r}", terms, Relation.EQ, 0))
        for rp in range(size):
            terms = tuple(
                (index[f"nu{l}_{lp}_{r}_{rp}"], 1) for r in range(size) if r != rp
            ) + ((index[f"x{lp}_{rp}"], -1),)
            cons.append(LinearConstraint(f"inp{l}_{lp}_{rp}", terms, Relation.EQ, 0))
    return ILPInstance(names, objective, tuple(cons), name=f"matching-{size}-{seed}")


def cell_tracking_instance(detections, seed):
    """Two-frame detection/transition selection.

    Detections a{i} (first frame) and b{j} (second) plus transitions t{i}_{j}
    over a sparse neighbourhood; flow conservation ties every detection with
    a nonempty arc set to its transitions, and neighbouring detections
    within a frame exclude each other.  All-zero is always feasible.
    """
    rng = random.Random(seed)
    names = []
    index = {}

    def add(name):
        index[name] = len(names)
        names.append(name)

    for i in range(detections):
        add(f"a{i}")
    for j in range(detections):
        add(f"b{j}")
    arcs = []
    for i in range(detections):
        for j in range(detections):
            if abs(i - j) <= 1 and rng.random() < 0.8:
                arcs.append((i, j))
                add(f"t{i}_{j}")
    objective = [Fraction(rng.randint(-5, 5)) for _ in names]

    cons = []
    for i in range(detections):
        out = [j for (ii, j) in arcs if ii == i]
        if out:
            terms = ((index[f"a{i}"], 1),) + tuple((index[f"t{i}_{j}"], -1) for j in out)
            cons.append(LinearConstraint(f"out{i}", terms, Relation.EQ, 0))
    for j in range(detections):
        inc = [i for (i, jj) in arcs if jj == j]
        if inc:
            terms = ((index[f"b{j}"], 1),) + tuple((index[f"t{i}_{j}"], -1) for i in inc)
            cons.append(LinearConstraint(f"in{j}", terms, Relation.EQ, 0))
    for prefix in ("a", "b"):
        for i in range(0, detections - 1, 2):
            terms = ((index[f"{prefix}{i}"], 1), (index[f"{prefix}{i + 1}"], 1))
            cons.append(LinearConstraint(f"excl_{prefix}{i}", terms, Relation.LE, 1))
    return ILPInstance(names, objective, tuple(cons), name=f"tracking-{detections}-{seed}")


def tomography_instance(length, labels, seed, num_projections=None):
    """Chain labelling with summed-intensity measurements.

    Takes the chain from `mrf_instance` and adds projection equalities: over
    random windows, the label values (label-0 terms drop out) must add up to
    what a hidden ground-truth labelling produces, so the instance is always
    feasible.
    """
    base = mrf_instance(1, length, labels, seed)
    rng = random.Random(f"tomography-{seed}")
    truth = [rng.randrange(labels) for _ in range(length)]
    if num_projections is None:
        num_projections = max(1, length // 2)
    name_to_index = base.name_to_index
    cons = list(base.constraints)
    for t in range(num_projections):
        width = rng.randint(2, min(4, length))
        start = rng.randint(0, length - width)
        window = range(start, start + width)
        terms = tuple(
            (name_to_index[f"u{i}_{l}"], l) for i in window for l in range(1, labels)
        )
        rhs = sum(truth[i] for i in window)
        if not terms:
            continue
        cons.append(LinearConstraint(f"proj{t}", terms, Relation.EQ, rhs))
    return ILPInstance(
        list(base.var_names),
        list(base.objective),
        tuple(cons),
        name=f"tomography-{length}-{labels}-{seed}",
    )
