"""Command-line front end.

``bddsolve solve -i FILE`` reads a 0-1 program in the LP-style text format,
runs the dual/primal pipeline, prints a JSON report to stdout and a short
human summary to stderr.  Exit codes: 0 a solution was found, 2 the
instance was proven infeasible, 3 the dual finished but rounding ran out
of budget, 1 bad usage or unreadable input.

``bddsolve generate KIND`` writes a benchmark instance in the same text
format, to stdout or to ``-o FILE``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bdd import BddBuildError, build_bdd
from .dual import DEFAULT_MAX_PASSES, DEFAULT_TOLERANCE, SRMP, UNIFORM
from .model import ORDERS, LpParseError, ModelError, decompose, order_variables, parse_lp, write_lp
from .primal import ABS_MARGIN, COUNT_ALIGNED, NEG_MARGIN
from .solver import DUAL_ONLY, INFEASIBLE, SOLVED, RunReport, SolveOptions, solve_instance

_EXIT_CODES = {SOLVED: 0, INFEASIBLE: 2, DUAL_ONLY: 3}
_DIRECTION_TAGS = {"forward": "fw", "backward": "bw"}
_ORDER_NAMES = {order.replace("_", "-"): order for order in ORDERS}
_PRIMAL_ORDER_NAMES = {"neg-mm": NEG_MARGIN, "abs-mm": ABS_MARGIN, "reduction": COUNT_ALIGNED}


def _at_least(least):
    """An argparse type: an integer no smaller than `least`; the error names the flag."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors lead with `bddsolve: `, as the other exit-1 errors do."""

    def error(self, message):
        self.exit(2, f"bddsolve: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(
        prog="bddsolve",
        description="Lagrangean decomposition solver for 0-1 integer programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file ('-' reads stdin)")
    solve.add_argument("file", nargs="?", default=None,
                       help="instance in LP-style text format, or '-' for stdin")
    solve.add_argument("-i", "--input", default=None, metavar="FILE",
                       help="same as the positional FILE argument")
    solve.add_argument("--max-passes", type=_at_least(0), default=DEFAULT_MAX_PASSES, metavar="N",
                       help="directional sweep limit for the dual loop (default %(default)s)")
    solve.add_argument("--tol", "--tolerance", dest="tolerance", type=float,
                       default=DEFAULT_TOLERANCE, metavar="EPS",
                       help="relative bound-improvement threshold; 0 disables (default %(default)s)")
    solve.add_argument("--smoothing", type=float, default=0.0, metavar="ALPHA",
                       help="temperature for soft-min messages; 0 = exact min (default 0)")
    solve.add_argument("--averaging", choices=(UNIFORM, SRMP), default=UNIFORM,
                       help="how marginal differences are redistributed (default uniform)")
    solve.add_argument("--primal-order", choices=sorted(_PRIMAL_ORDER_NAMES), default="neg-mm",
                       help="variable scoring for the rounding search (default neg-mm)")
    solve.add_argument("--order", choices=sorted(_ORDER_NAMES), default="input",
                       help="variable elimination order (default input)")
    solve.add_argument("--node-budget", type=_at_least(0), default=None, metavar="N",
                       help="rounding-search attempt budget; default 10x variables, 0 = unlimited")
    solve.add_argument("--trace", metavar="PATH",
                       help="write one JSON line per dual sweep to PATH")
    solve.add_argument("--dump-bdd", metavar="ROW", dest="dump_bdd",
                       help="print the decision diagram of row ROW as DOT and exit")

    gen = sub.add_parser("generate", help="write a benchmark instance")
    kinds = gen.add_subparsers(dest="kind", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="write here instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    g = kinds.add_parser("random_ilp", help="random small 0-1 program")
    g.add_argument("--vars", type=_at_least(1), default=8)
    g.add_argument("--cons", type=_at_least(0), default=5)
    add_output(g)

    g = kinds.add_parser("mrf", help="chain labelling model")
    g.add_argument("--nodes", type=_at_least(1), default=3)
    g.add_argument("--labels", type=_at_least(1), default=2)
    add_output(g)

    g = kinds.add_parser("matching", help="quadratic assignment on a bipartite graph")
    g.add_argument("--size", type=_at_least(1), default=3)
    add_output(g)

    g = kinds.add_parser("tracking", help="detection linking with flow conservation")
    g.add_argument("--detections", type=_at_least(1), default=5)
    add_output(g)

    g = kinds.add_parser("tomography", help="chain labelling with projection equalities")
    g.add_argument("--length", type=_at_least(2), default=6)  # a projection window spans 2 or more
    g.add_argument("--labels", type=_at_least(1), default=3)
    g.add_argument("--projections", type=_at_least(0), default=None)
    add_output(g)

    return parser


def _read_instance(path):
    if path == "-":
        text = sys.stdin.read()
        name = "stdin"
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        name = path.rsplit("/", 1)[-1]
        if name.endswith(".lp"):
            name = name[: -len(".lp")]
    return parse_lp(text, name=name)


def _report_payload(report: RunReport, var_names):
    lb = None if math.isinf(report.lower_bound) else report.lower_bound
    payload = {
        "instance": report.instance_name,
        "variables": report.num_vars,
        "constraints": report.num_constraints,
        "nodes": report.num_nodes,
        "status": report.status,
        "termination": report.termination,
        "passes": report.passes,
        "lower_bound": lb,
        "upper_bound": None,
        "gap": report.gap,
        "objective_exact": None,
        "solution": None,
        "primal_attempts": report.primal_attempts,
        "primal_conflicts": report.primal_conflicts,
        "primal_backtracks": report.primal_backtracks,
        "primal_max_depth": report.primal_max_depth,
        "primal_propagated": report.primal_propagated,
        "build_time_ms": round(report.build_time_ms, 3),
        "dual_time_ms": round(report.dual_time_ms, 3),
        "primal_time_ms": round(report.primal_time_ms, 3),
    }
    if report.solution is not None:
        payload["upper_bound"] = float(report.objective_value)
        payload["objective_exact"] = str(report.objective_value)
        payload["solution"] = dict(zip(var_names, report.solution))
    return payload


def _summary_lines(report: RunReport):
    lines = [
        "%s: %d variables, %d rows, %d diagram nodes"
        % (report.instance_name, report.num_vars, report.num_constraints, report.num_nodes)
    ]
    if report.status == INFEASIBLE:
        lines.append("proven infeasible after %d passes" % report.passes)
    else:
        lines.append(
            "dual bound %.6g after %d passes (%s)"
            % (report.lower_bound, report.passes, report.termination)
        )
        if report.status == SOLVED:
            lines.append(
                "solution found: objective %s (%d attempts)"
                % (report.objective_value, report.primal_attempts)
            )
        else:
            lines.append("no solution within attempt budget (%d attempts)" % report.primal_attempts)
    return lines


def _cmd_solve(args):
    if args.input is not None and args.file is not None and args.input != args.file:
        print("bddsolve: give the input either positionally or with -i, not both",
              file=sys.stderr)
        return 1
    path = args.input if args.input is not None else args.file
    if path is None:
        print("bddsolve: no input file (use FILE or -i FILE; '-' reads stdin)", file=sys.stderr)
        return 1
    instance = _read_instance(path)

    if args.dump_bdd is not None:
        order = order_variables(instance, _ORDER_NAMES[args.order])
        supports = decompose(instance, order).subproblem_vars
        for constraint, support in zip(instance.constraints, supports):
            if constraint.name == args.dump_bdd:
                diagram = build_bdd(constraint, support)
                sys.stdout.write(diagram.to_dot(instance.var_names))
                return 0
        print("bddsolve: no row named %r" % args.dump_bdd, file=sys.stderr)
        return 1

    options = SolveOptions(
        max_passes=args.max_passes,
        tolerance=args.tolerance,
        smoothing=args.smoothing,
        averaging=args.averaging,
        strategy=_PRIMAL_ORDER_NAMES[args.primal_order],
        primal_budget=args.node_budget,
        order=_ORDER_NAMES[args.order],
    )
    report = solve_instance(instance, options)

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for entry in report.trace:
                handle.write(json.dumps({
                    "pass": entry.pass_index,
                    "direction": _DIRECTION_TAGS[entry.direction],
                    "lb": None if math.isinf(entry.lower_bound) else entry.lower_bound,
                    "time_ms": round(entry.time_ms, 3),
                }) + "\n")

    payload = _report_payload(report, instance.var_names)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    for line in _summary_lines(report):
        print(line, file=sys.stderr)
    return _EXIT_CODES[report.status]


def _cmd_generate(args):
    from . import testkit  # only `generate` needs the generators

    if args.kind == "random_ilp":
        instance = testkit.random_ilp(args.vars, args.cons, args.seed)
    elif args.kind == "mrf":
        instance = testkit.mrf_instance(1, args.nodes, args.labels, args.seed)
    elif args.kind == "matching":
        instance = testkit.graph_matching_instance(args.size, args.seed)
    elif args.kind == "tracking":
        instance = testkit.cell_tracking_instance(args.detections, args.seed)
    else:
        instance = testkit.tomography_instance(
            args.length, args.labels, args.seed, args.projections
        )
    text = write_lp(instance)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_generate(args)
    except LpParseError as exc:
        print("bddsolve: parse error: %s" % exc, file=sys.stderr)
        return 1
    except (ModelError, BddBuildError, ValueError, OSError) as exc:
        print("bddsolve: %s" % exc, file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
