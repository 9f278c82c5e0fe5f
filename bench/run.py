"""Run one workload of the bddsolve benchmark and print its metrics.

    python3 bench/run.py --workload grid --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the solver is imported from its `src/`.
The workload's instances are generated from the seed and written as LP
text; a fresh process (worker.py) parses and solves them one at a time,
repeating the set for --seconds.  Each end-to-end time is the median over
those repetitions, in seconds at a reference machine speed: worker.py
times a fixed kernel around each repetition to measure how much slower
the machine ran.  Generation and the brute-force oracle run here, outside
the timed process.  Every outcome then passes the correctness gate:
the solution is re-checked against the generated rows and re-costed, the
lower bound may not exceed the objective (or the oracle's optimum), a
verdict must agree with the oracle, and every repetition must reproduce the
first one exactly.

With --trace 1 the worker spends half the time untraced and half with span
wrappers installed; the traced outcomes must equal the untraced ones, and
the per-layer metrics come from the traced half.

Prints a table of every metric by name and unit, then one JSON line.  Exit
status: 0 when every check passed, 1 when the correctness gate failed, 2
when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import derive
from workloads import WORKLOADS, instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "bound_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY_UNITS = {"lower_bound": "objective", "gap": "fraction", "failed_frac": "fraction"}


def fail_setup(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_solver():
    if not (SRC / "bddsolve" / "__init__.py").is_file():
        fail_setup(f"no solver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bddsolve

    if SRC.resolve() not in Path(bddsolve.__file__).resolve().parents:
        fail_setup(f"bddsolve imported from {bddsolve.__file__}, not from {SRC}")


def check_pinned(solve_options_cls, options):
    """SolveOptions fields the workload leaves unpinned; a pinned field that vanished is an error."""
    fields = {f.name for f in dataclasses.fields(solve_options_cls)}
    missing = set(options) - fields
    if missing:
        fail_setup(f"SolveOptions no longer has {sorted(missing)}; re-pin the workload")
    return sorted(fields - set(options))


def run_worker(texts, options, seconds, trace):
    job = {"src": str(SRC), "instances": texts, "options": options, "seconds": seconds, "trace": trace}
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: the solving process ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout)


SIGNATURE = ("status", "termination", "passes", "lower_bound", "objective", "attempts", "solution")


def signature(outcome):
    return tuple(outcome.get(k) for k in SIGNATURE)


def bound_holds(lower_bound, value):
    """lower_bound <= value, up to the solver's relative tolerance."""
    value = float(value)
    return lower_bound <= value + 1e-6 * max(1.0, abs(value))


def check_outcome(inst, out, workload, oracle_value):
    """Problems with one instance's outcome; empty when it passes the gate."""
    status = out["status"]
    if status == "error":
        return [f"raised {out['error']}"]
    problems = []
    lb = out["lower_bound"]
    if status == derive.SOLVED:
        sol = out["solution"]
        if sol is None or len(sol) != inst.num_vars or not inst.check_assignment(sol):
            return ["returned solution fails the re-check"]
        value = inst.objective_value(sol)
        if out["objective"] is None or Fraction(out["objective"]) != value:
            problems.append(f"reported objective {out['objective']} but the solution costs {value}")
        if not bound_holds(lb, value):
            problems.append(f"lower bound {lb} exceeds objective {value}")
        if workload.oracle and (oracle_value is None or value < oracle_value):
            problems.append(f"solution {value} contradicts the oracle's {oracle_value}")
    elif status == derive.INFEASIBLE:
        if not workload.oracle or oracle_value is not None:
            problems.append("claims infeasible but the instance is feasible")
    elif status != derive.DUAL_ONLY:
        problems.append(f"unknown status {status!r}")
    if workload.oracle and oracle_value is not None and status != derive.INFEASIBLE:
        if not bound_holds(lb, oracle_value):
            problems.append(f"lower bound {lb} exceeds the optimum {oracle_value}")
    return problems


def gate(insts, reps, traced, workload, oracle):
    """Check the first repetition and that every other one reproduces it.

    Returns (problems, outcomes, attempted, failed); `outcomes` holds one
    (status, passed) pair per instance of the first repetition.
    """
    first = reps[0]
    problems = []
    outcomes = []
    for inst, out, opt in zip(insts, first, oracle):
        bad = check_outcome(inst, out, workload, opt)
        problems += [f"{inst.name}: {p}" for p in bad]
        outcomes.append((out["status"], not bad))
    failed = sum(1 for _, ok in outcomes if not ok)
    attempted = len(insts)
    later = [(f"repetition {r}", rep) for r, rep in enumerate(reps[1:], start=1)]
    later += [("traced run", rep) for rep in traced]
    for what, rep in later:
        for inst, ref, out in zip(insts, first, rep):
            attempted += 1
            if signature(out) != signature(ref):
                failed += 1
                problems.append(f"{inst.name}: {what} does not reproduce the untraced outcome")
    return problems, outcomes, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")

    load_solver()
    from bddsolve import model, solver, testkit

    workload = WORKLOADS[args.workload]
    unpinned = check_pinned(solver.SolveOptions, workload.options)
    insts = instances(workload.name, args.seed)
    texts = [[inst.name, model.write_lp(inst)] for inst in insts]
    result = run_worker(texts, workload.options, args.seconds, bool(args.trace))
    if result is None:
        fail_setup("the solving process failed")
    oracle = [testkit.brute_force_solve(inst)[0] for inst in insts] if workload.oracle else [None] * len(insts)

    reps = result["reps"]
    traced = result["traced"]
    first = reps[0]["instances"]
    problems, outcomes, attempted, failed = gate(
        insts, [r["instances"] for r in reps], [t["instances"] for t in traced], workload, oracle
    )

    totals = [derive.rep_totals(r["instances"]) for r in reps]
    end_to_end = {name: derive.median_of(totals, name) for name in ("solve_s", "setup_s", "bound_s")}
    end_to_end["peak_rss_mb"] = result["peak_rss_mb"]
    quality = {
        "lower_bound": derive.lower_bound_sum(first),
        "gap": derive.mean_gap(first),
        "failed_frac": derive.failed_frac(outcomes),
    }

    print(f"workload {workload.name}, seed {args.seed}: {len(insts)} instance(s) x {len(reps)} untraced"
          f" repetition(s), {len(traced)} traced")
    print(f"options {json.dumps(workload.options)}")
    if unpinned:
        print(f"note: SolveOptions fields not pinned by this workload: {unpinned}")
    raw = [derive.rep_totals(r["instances"], at_reference_speed=False)["solve_s"] for r in reps]
    slowdowns = [derive.mean_slowdown(r["instances"]) for r in reps]
    print(f"raw wall solve_s per repetition: median {statistics.median(raw):.4f} s"
          f" (min {min(raw):.4f}, max {max(raw):.4f}); machine slowdown median"
          f" {statistics.median(slowdowns):.3f} (min {min(slowdowns):.3f}, max {max(slowdowns):.3f})")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<26} {end_to_end[name]:>14.6g} {unit}")
    for name, unit in QUALITY_UNITS.items():
        if name == "lower_bound" and workload.oracle:
            print(f"  {name:<26} {'n/a':>14} {unit} (infeasible instances have no finite bound)")
        else:
            print(f"  {name:<26} {quality[name]:>14.6g} {unit}")

    if args.trace:
        layers = derive.median_metrics([
            derive.at_reference_speed(derive.layer_metrics(t["spans"], t["instances"]),
                                      derive.mean_slowdown(t["instances"]))
            for t in traced
        ])
        layers["dual.lower_bound"] = quality["lower_bound"]
        layers["solver.gap"] = quality["gap"]
        layers["solver.failed_frac"] = quality["failed_frac"]
        traced_solve = statistics.median(derive.rep_totals(t["instances"])["solve_s"] for t in traced)
        layers["trace.overhead_ratio"] = traced_solve / end_to_end["solve_s"]
        for name, unit in derive.LAYER_UNITS.items():
            print(f"  {name:<26} {layers[name]:>14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in derive.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for p in problems[:20]:
        print(f"FAIL {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
