"""In-memory spans for the traced run, installed from outside the program.

The wrappers replace public functions where each caller looks them up
(module globals, or the `Bdd` class for methods), so the program itself is
unchanged.  A span records calls, inclusive time and self time: its
duration minus the part covered by spans opened inside it.  Per-call
`Bdd.checkpoint` is deliberately not wrapped -- it runs millions of times
on a grid and the wrapper would dominate; `checkpoint_all` calls are
counted with their diagram count instead.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregates spans by name; `keep` names also keep every duration."""

    def __init__(self, clock=time.perf_counter, keep=()):
        self.clock = clock
        self.keep = frozenset(keep)
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()
        self._open = []  # child seconds accumulated by each open span

    def span(self, name, fn, after=None):
        """Wrap `fn` so each call is a span `name`.

        `after(tracer, args, result)` runs once the clock has stopped; its
        cost is charged to no span, so it cannot inflate a parent's self
        time.
        """
        clock = self.clock

        def traced(*args, **kwargs):
            opened = self._open
            opened.append(0.0)
            start = clock()
            stop = None
            try:
                result = fn(*args, **kwargs)
                stop = clock()
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                end = clock()
                duration = (end if stop is None else stop) - start
                child = opened.pop()
                if opened:
                    opened[-1] += end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child
                if name in self.keep:
                    self.durations[name].append(duration)

        return traced

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "median_ms": {k: statistics.median(v) * 1000.0 for k, v in self.durations.items() if v},
            "counts": dict(self.counts),
        }


def _count_checkpoints(tracer, args, result):
    tracer.counts["bdd.checkpoints"] += len(args[0])


def _count_conflicts(tracer, args, result):
    if result is False:
        tracer.counts["primal.conflicts"] += 1


def _max_row_nodes(tracer, args, result):
    n = result.node_count()
    if n > tracer.counts["bdd.max_row_nodes"]:
        tracer.counts["bdd.max_row_nodes"] = n


def targets():
    """(owner, attribute, span name, after) for every wrapped function."""
    from bddsolve import bdd, dual, primal, solver

    return [
        (solver, "order_variables", "model.order_variables", None),
        (solver, "decompose", "model.decompose", None),
        (solver, "presolve_free", "model.presolve_free", None),
        (solver, "build_bdd", "bdd.build", _max_row_nodes),
        (bdd.Bdd, "fix", "bdd.fix", None),
        (bdd.Bdd, "forced_literals", "bdd.forced_literals", None),
        (solver, "init_duals", "dual.init", None),
        (dual, "run", "dual.run", None),
        (dual, "forward_pass", "dual.forward_pass", None),
        (dual, "backward_pass", "dual.backward_pass", None),
        (primal, "primal_search", "primal.search", None),
        (primal, "compute_scores", "primal.scores", None),
        (primal, "checkpoint_all", "primal.checkpoint_all", _count_checkpoints),
        (primal, "rollback_all", "primal.rollback_all", None),
        (primal, "restriction_propagation", "primal.propagate", _count_conflicts),
    ]


KEEP_DURATIONS = ("dual.forward_pass", "dual.backward_pass")


def install(tracer):
    """Install wrappers for every target that exists; returns an undo callable."""
    undo = []
    for owner, attr, name, after in targets():
        original = owner.__dict__.get(attr)
        if original is None:
            continue
        setattr(owner, attr, tracer.span(name, original, after))
        undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
