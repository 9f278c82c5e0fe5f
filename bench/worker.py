"""Solving process of the benchmark: LP text in, per-instance outcomes out.

Reads one JSON job on stdin -- {"src", "instances": [[name, lp_text]],
"options", "seconds", "trace"} -- and repeats `model.parse_lp` +
`solver.solve_instance` over the instances, one at a time, while another
repetition still fits in `seconds` (at least once).  With "trace" set, the
first half of the time runs untraced and the second half with the span
wrappers of spans.py installed.  Writes one JSON object to stdout.  Started
by run.py in a fresh process, so its peak resident memory is that of
parsing and solving alone.

Between instances, at least two seconds apart, the worker times a fixed
pure-Python kernel that belongs to the benchmark, not to the solver.  Its
duration over REFERENCE_S is the machine's slowdown, which run.py divides
out of the instances solved in between (see README.md, "Noise and
calibration").
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

REFERENCE_S = 0.2  # the kernel's duration on the defining machine when unloaded


def calibration_s(size=20_000, sweeps=120):
    """Wall time of a fixed min-sum style sweep over Python lists."""
    lo = [(7 * v + 3) % size for v in range(size)]
    hi = [(11 * v + 5) % size for v in range(size)]
    w = [float((13 * v) % 17) - 8.0 for v in range(size)]
    fw = [0.0] * size
    start = time.perf_counter()
    for _ in range(sweeps):
        for v in range(size):
            a = fw[lo[v]] + w[v]
            b = fw[hi[v]] - w[v]
            fw[v] = (a if a < b else b) * 0.5
    return time.perf_counter() - start


class Calibrator:
    """Measures the machine's slowdown over stretches of at least `stretch_s`.

    `mark(outcome)` closes the current stretch once it is long enough:
    every outcome in it gets the mean slowdown of the two kernel runs that
    bound it.  `close()` ends a stretch early, at the end of a repetition.
    """

    def __init__(self, stretch_s=2.0):
        self.stretch_s = stretch_s
        self.pending = []
        self.last = calibration_s()
        self.since = time.perf_counter()

    def mark(self, outcome):
        self.pending.append(outcome)
        if time.perf_counter() - self.since >= self.stretch_s:
            self.close()

    def close(self):
        if not self.pending:
            return
        now = calibration_s()
        slowdown = (self.last + now) / 2 / REFERENCE_S
        for outcome in self.pending:
            outcome["slowdown"] = slowdown
        self.pending = []
        self.last = now
        self.since = time.perf_counter()


def solve_rep(parse, solve, texts, options, calibrator):
    """Parse and solve every instance once; wall time covers text to report."""
    out = []
    for name, text in texts:
        start = time.perf_counter()
        try:
            report = solve(parse(text, name), options)
        except Exception as exc:  # one bad instance must not hide the others
            outcome = {"name": name, "status": "error", "error": repr(exc),
                       "solve_s": time.perf_counter() - start, "dual_ms": 0.0, "primal_ms": 0.0,
                       "passes": 0, "lower_bound": -math.inf, "attempts": 0, "num_nodes": 0}
        else:
            wall = time.perf_counter() - start
            value = report.objective_value
            outcome = {
                "name": name,
                "solve_s": wall,
                "dual_ms": report.dual_time_ms,
                "primal_ms": report.primal_time_ms,
                "status": report.status,
                "termination": report.termination,
                "passes": report.passes,
                "lower_bound": report.lower_bound,
                "objective": None if value is None else str(value),
                "solution": report.solution,
                "attempts": report.primal_attempts,
                "num_nodes": report.num_nodes,
            }
        out.append(outcome)
        calibrator.mark(outcome)
    calibrator.close()
    return out


def repeat(seconds, fn):
    """Run `fn` at least once, and again while another run still fits in `seconds`.

    The fit is judged by the mean run so far, so the loop ends close to
    `seconds` instead of overrunning by up to one run.
    """
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        reps.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def main():
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import bddsolve
    from bddsolve import model, solver

    if src not in Path(bddsolve.__file__).resolve().parents:
        sys.exit(f"bddsolve imported from {bddsolve.__file__}, not from {src}")
    options = solver.SolveOptions(**job["options"])
    texts = job["instances"]
    seconds = job["seconds"]

    calibrator = Calibrator()

    def untraced_rep():
        return {"instances": solve_rep(model.parse_lp, solver.solve_instance, texts, options, calibrator)}

    traced = []
    if job["trace"]:
        import spans

        reps = repeat(seconds / 2, untraced_rep)
        tracer = spans.Tracer(keep=spans.KEEP_DURATIONS)
        restore = spans.install(tracer)
        parse = tracer.span("model.parse", model.parse_lp)
        solve = tracer.span("solver.solve_instance", solver.solve_instance)

        def traced_rep():
            tracer.reset()
            instances = solve_rep(parse, solve, texts, options, calibrator)
            return {"instances": instances, "spans": tracer.snapshot()}

        try:
            traced = repeat(seconds / 2, traced_rep)
        finally:
            restore()
    else:
        reps = repeat(seconds, untraced_rep)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"reps": reps, "traced": traced, "peak_rss_mb": peak_mb}, sys.stdout)


if __name__ == "__main__":
    main()
