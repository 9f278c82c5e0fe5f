import argparse
import io
import json
import re
import subprocess
import sys

import pytest

from bddsolve import cli
from bddsolve.cli import _ORDER_NAMES, _build_parser, entry, main
from bddsolve.dual import DEFAULT_MAX_PASSES, DEFAULT_TOLERANCE, SRMP, UNIFORM
from bddsolve.model import ORDERS, parse_lp, write_lp
from bddsolve.primal import STRATEGIES
from bddsolve.testkit import mrf_instance, random_ilp

SMALL = """\
Minimize
 obj: - 2 x + y - z
Subject To
 pick: x + y + z = 1
 cap: x + y <= 1
Binary
 x y z
End
"""

SIMPLEX = """\
Minimize
 obj: x1 + 2 x2 + 3 x3
Subject To
 sum: x1 + x2 + x3 = 1
Binary
 x1 x2 x3
End
"""

INFEASIBLE = """\
Minimize
 obj: x
Subject To
 up: x >= 1
 down: x <= 0
Binary
 x
End
"""


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.lp"
    path.write_text(SMALL)
    return str(path)


def test_solve_writes_json_report(small_file, capsys):
    code = main(["solve", small_file])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["instance"] == "small"
    assert payload["variables"] == 3
    assert payload["constraints"] == 2
    assert payload["status"] == "solved"
    assert payload["solution"] == {"x": 1, "y": 0, "z": 0}
    assert payload["upper_bound"] == -2.0
    assert payload["objective_exact"] == "-2"
    assert payload["lower_bound"] <= -2.0 + 1e-9
    assert type(payload["build_time_ms"]) is float and payload["build_time_ms"] >= 0.0
    assert "solution found" in captured.err


def test_unit_simplex_bounds_meet(tmp_path, capsys):
    path = tmp_path / "simplex.lp"
    path.write_text(SIMPLEX)
    code = main(["solve", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["upper_bound"] == 1.0
    assert abs(payload["lower_bound"] - 1.0) <= 1e-6
    assert payload["solution"] == {"x1": 1, "x2": 0, "x3": 0}


def test_input_flag_matches_positional(small_file, capsys):
    code = main(["solve", "-i", small_file])
    first = json.loads(capsys.readouterr().out)
    assert code == 0
    code = main(["solve", small_file])
    second = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {k: v for k, v in first.items() if not k.endswith("_ms")} == \
           {k: v for k, v in second.items() if not k.endswith("_ms")}
    assert main(["solve", small_file, "-i", "/other.lp"]) == 1
    assert main(["solve"]) == 1


def test_zero_passes_reports_initial_bound(small_file, capsys):
    code = main(["solve", small_file, "--max-passes", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 3)
    assert payload["passes"] == 0
    assert payload["lower_bound"] is not None


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text(INFEASIBLE)
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["status"] == "infeasible"
    assert payload["termination"] == "infeasible"
    assert payload["lower_bound"] is None
    assert payload["upper_bound"] is None
    assert payload["solution"] is None
    assert "infeasible" in captured.err


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    path = tmp_path / "grid.lp"
    path.write_text(write_lp(mrf_instance(2, 2, 2, seed=1)))
    code = main(["solve", str(path), "--node-budget", "1"])
    captured = capsys.readouterr()
    assert code == 3
    payload = json.loads(captured.out)
    assert payload["status"] == "dual_only"
    assert payload["solution"] is None
    assert payload["lower_bound"] is not None


def test_json_carries_search_counters(tmp_path, capsys):
    path = tmp_path / "backtrack.lp"
    path.write_text(write_lp(random_ilp(6, 4, seed=10)))
    assert main(["solve", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    counters = [payload[k] for k in ("primal_attempts", "primal_conflicts", "primal_backtracks",
                                     "primal_max_depth")]
    assert counters == [4, 3, 1, 1]


def test_json_carries_the_propagated_count(tmp_path, capsys):
    path = tmp_path / "simplex.lp"
    path.write_text(SIMPLEX)
    assert main(["solve", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    # one decision on x1 forces x2 and x3 to 0
    assert (payload["primal_attempts"], payload["primal_propagated"]) == (1, 2)


@pytest.mark.parametrize("smoothing", ["inf", "nan", "1e308", "-1"])
def test_unusable_smoothing_exits_1(tmp_path, capsys, smoothing):
    # inf once proved this feasible instance infeasible; 1e308 overflowed the diffs
    path = tmp_path / "mrf.lp"
    path.write_text(write_lp(mrf_instance(1, 3, 2, seed=0)))
    code = main(["solve", str(path), "--smoothing", smoothing])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("bddsolve: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "option, value",
    [("--node-budget", "-5"), ("--max-passes", "-3"), ("--tol", "nan"), ("--tol", "-1")],
)
def test_out_of_range_solve_options_exit_1(small_file, capsys, option, value):
    code = main(["solve", small_file, option, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("bddsolve: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("option, value", [("--node-budget", "-3"), ("--max-passes", "-1")])
def test_solve_range_errors_name_the_flag(small_file, capsys, option, value):
    assert main(["solve", small_file, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    first, usage = captured.err.split("\n", 1)
    assert first == f"bddsolve: argument {option}: must be at least 0, got {value}"
    assert usage.startswith("usage: bddsolve solve ")


def test_max_passes_default_matches_the_library():
    args = _build_parser().parse_args(["solve", "x.lp"])
    assert args.max_passes == DEFAULT_MAX_PASSES
    assert args.tolerance == DEFAULT_TOLERANCE


def test_order_flag_names_every_library_order():
    assert sorted(_ORDER_NAMES.values()) == sorted(ORDERS)


def test_every_mode_choice_reaches_the_solve_as_a_library_value(small_file, capsys, monkeypatch):
    # each CLI spelling maps onto a value SolveOptions accepts, and together
    # the spellings of a flag name every value the library knows
    seen = []
    solve = cli.solve_instance

    def recording(instance, options):
        seen.append(options)
        return solve(instance, options)

    monkeypatch.setattr(cli, "solve_instance", recording)
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0]: a.choices for a in commands.choices["solve"]._actions if a.choices}
    for flag, field, values in (
        ("--averaging", "averaging", {UNIFORM, SRMP}),
        ("--primal-order", "strategy", set(STRATEGIES)),
        ("--order", "order", set(ORDERS)),
    ):
        del seen[:]
        for choice in flags[flag]:
            assert main(["solve", small_file, flag, choice]) == 0
            capsys.readouterr()
        assert {getattr(options, field) for options in seen} == values and len(seen) == len(values)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.lp"
    for text in (
        "Maximize\n obj: x\nEnd\n",
        # out-of-range objectives: float() overflowed, or the dual sums did
        "Minimize\n obj: " + "9" * 400 + " x\nSubject To\n r: x <= 1\nBinary\n x\nEnd\n",
        "Minimize\n obj: - " + "9" * 308 + " x + " + "9" * 308 + " y\nSubject To\n"
        " r: x + y <= 1\nBinary\n x y\nEnd\n",
    ):
        path.write_text(text)
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("bddsolve: parse error: ")


def test_missing_file_exit_code(capsys):
    code = main(["solve", "/nonexistent/nowhere.lp"])
    assert code == 1
    assert "bddsolve:" in capsys.readouterr().err


def test_usage_errors_and_help(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--node-budget" in out and "--primal-order" in out


def test_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SMALL))
    code = main(["solve", "-"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["instance"] == "stdin"
    assert payload["status"] == "solved"


def test_option_spellings_accepted(small_file, capsys):
    code = main(["solve", small_file, "--tol", "0", "--max-passes", "8",
                 "--order", "cuthill-mckee", "--primal-order", "reduction",
                 "--averaging", "srmp", "--smoothing", "0.2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["passes"] == 8
    assert payload["status"] == "solved"


def test_dump_bdd_prints_dot(small_file, capsys):
    code = main(["solve", small_file, "--dump-bdd", "pick"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("digraph")
    code = main(["solve", small_file, "--dump-bdd", "nosuchrow"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""


def test_trace_file(small_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["solve", small_file, "--max-passes", "6", "--tol", "0",
                 "--trace", str(trace)])
    capsys.readouterr()
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == 6
    assert {l["direction"] for l in lines} == {"fw", "bw"}
    assert all(set(l) == {"pass", "direction", "lb", "time_ms"} for l in lines)
    passes = [l["pass"] for l in lines]
    assert passes == sorted(passes)
    bounds = [l["lb"] for l in lines]
    assert all(b >= a - 1e-9 for a, b in zip(bounds, bounds[1:]))


def test_generate_kinds(capsys):
    expected = {
        ("generate", "random_ilp", "--vars", "6", "--cons", "4", "--seed", "3"): (6, 4),
        ("generate", "mrf", "--nodes", "3", "--labels", "2", "--seed", "0"): (14, 13),
        ("generate", "matching", "--size", "2", "--seed", "1"): (8, 12),
        ("generate", "tracking", "--detections", "4", "--seed", "2"): None,
        ("generate", "tomography", "--length", "4", "--labels", "2", "--seed", "1"): None,
    }
    for argv, shape in expected.items():
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        instance = parse_lp(out)
        if shape is not None:
            assert (instance.num_vars, len(instance.constraints)) == shape


@pytest.mark.parametrize("argv, flag", [
    (("random_ilp", "--vars", "0"), "--vars"),
    (("random_ilp", "--vars", "-1"), "--vars"),
    (("random_ilp", "--cons", "-1"), "--cons"),
    (("mrf", "--labels", "0"), "--labels"),
    (("mrf", "--nodes", "-2"), "--nodes"),
    (("matching", "--size", "0"), "--size"),
    (("tracking", "--detections", "-1"), "--detections"),
    (("tomography", "--length", "0"), "--length"),
    (("tomography", "--length", "1"), "--length"),
    (("tomography", "--labels", "0"), "--labels"),
    (("tomography", "--projections", "-1"), "--projections"),
])
def test_generate_rejects_sizes_out_of_range(argv, flag, capsys):
    assert main(["generate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("random_ilp", "--vars", "1"),
    ("random_ilp", "--vars", "2", "--cons", "0"),
    ("mrf", "--nodes", "1", "--labels", "1"),
    ("matching", "--size", "1"),
    ("tracking", "--detections", "1"),
    ("tomography", "--length", "2", "--labels", "1"),
    ("tomography", "--length", "2", "--labels", "2", "--projections", "0"),
])
def test_generate_writes_what_solve_reads_at_the_smallest_sizes(argv, capsys, monkeypatch):
    for seed in range(3):
        assert main(["generate", *argv, "--seed", str(seed)]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        assert main(["solve", "-"]) in (0, 2, 3)
        assert json.loads(capsys.readouterr().out)["status"] in ("solved", "infeasible", "dual_only")


def test_entry_exits_with_the_command_status(monkeypatch, capsys):
    # `entry` is what the installed `bddsolve` script runs: argv in, SystemExit out
    monkeypatch.setattr(sys, "argv", ["bddsolve", "generate", "mrf"])
    with pytest.raises(SystemExit) as stop:
        entry()
    assert stop.value.code == 0
    assert parse_lp(capsys.readouterr().out).num_vars == 14


def test_generate_output_file_deterministic(tmp_path, capsys):
    a = tmp_path / "a.lp"
    b = tmp_path / "b.lp"
    for target in (a, b):
        code = main(["generate", "mrf", "--nodes", "3", "--labels", "2",
                     "--seed", "0", "-o", str(target)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert parse_lp(a.read_text()).num_vars == 14


def test_generate_then_solve_round_trip(capsys):
    assert main(["generate", "mrf", "--nodes", "5", "--labels", "3", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    monkey_stdin = io.StringIO(text)
    old = sys.stdin
    sys.stdin = monkey_stdin
    try:
        code = main(["solve", "-"])
    finally:
        sys.stdin = old
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "solved"
    instance = parse_lp(text)
    solution = [payload["solution"][nm] for nm in instance.var_names]
    assert instance.check_assignment(solution)


def _mask_times(text):
    return re.sub(r'"(?:time_ms|build_time_ms|dual_time_ms|primal_time_ms)": [0-9.eE+-]+', '"t": 0', text)


def test_cli_import_leaves_numpy_out(cli_env):
    code = "import sys, bddsolve.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_subprocess_runs_are_identical(tmp_path, cli_env):
    path = tmp_path / "grid.lp"
    path.write_text(write_lp(mrf_instance(2, 2, 2, seed=4)))
    cmd = [sys.executable, "-m", "bddsolve.cli", "solve", str(path)]
    first = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    assert first.returncode == 0 and second.returncode == 0
    assert _mask_times(first.stdout) == _mask_times(second.stdout)


def test_json_reports_the_gap(small_file, tmp_path, capsys):
    assert main(["solve", small_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    ub, lb = payload["upper_bound"], payload["lower_bound"]
    assert payload["gap"] == min(1.0, max(0.0, (ub - lb) / max(abs(ub), abs(lb))))
    infeasible = tmp_path / "bad.lp"
    infeasible.write_text(INFEASIBLE)
    assert main(["solve", str(infeasible)]) == 2
    assert json.loads(capsys.readouterr().out)["gap"] == 0.0
    unsolved = tmp_path / "grid.lp"
    unsolved.write_text(write_lp(mrf_instance(2, 2, 2, seed=1)))
    assert main(["solve", str(unsolved), "--node-budget", "1"]) == 3
    assert json.loads(capsys.readouterr().out)["gap"] is None
