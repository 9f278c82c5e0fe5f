"""Acceptance suite: one test per shipped guarantee, each printing a PASS or
FAIL line (run with ``pytest -s`` or ``-rA`` to see them).

Every numeric claim is checked against an oracle computed here by plain
enumeration, never against the library's own fast path.
"""

import json
import math
import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from bddsolve import dual
from bddsolve.bdd import build_bdd
from bddsolve.dual import (
    SRMP,
    UNIFORM,
    backward_pass,
    forward_pass,
    init_duals,
    min_marginals,
    run,
)
from bddsolve.model import (
    ILPInstance,
    LinearConstraint,
    Relation,
    decompose,
    presolve_free,
    write_lp,
)
from bddsolve.primal import _path_counts, primal_search
from bddsolve.testkit import brute_force_solve, mrf_instance, random_ilp
from bdd_queries import check_invariants, fresh_trail, journal, slot_map, solutions
from reference_algebra import (
    COUNTING,
    LOG_PARTITION,
    MIN_MARGINAL,
    MessageStore,
    backward_sweep,
    marginal_sweep,
    scratch_energy,
    scratch_marginals,
    subproblem_energy,
    watch_updates,
)

INF = math.inf


@contextmanager
def criterion(tag, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"{tag}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget {budget}s"


def _close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _random_row(rng, name, max_support=12):
    k = rng.randint(1, max_support)
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
    low = sum(min(a, 0) for a in coeffs)
    high = sum(max(a, 0) for a in coeffs)
    rhs = rng.randint(low - 1, high + 1)
    relation = rng.choice((Relation.LE, Relation.GE, Relation.EQ))
    return LinearConstraint(name, tuple(enumerate(coeffs)), relation, rhs)


def _wide_row(rng, name):
    """8 to 12 variables, coefficients in +-[1, 10**6], rhs near a random subset's sum."""
    k = rng.randint(8, 12)
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(k)]
    relation = rng.choice((Relation.LE, Relation.GE, Relation.EQ))
    rhs = sum(a for a in coeffs if rng.random() < 0.5)
    if relation is not Relation.EQ:
        rhs += rng.randint(-(10**6), 10**6)
    return LinearConstraint(name, tuple(enumerate(coeffs)), relation, rhs)


def _brute_solutions(constraint, k):
    out = set()
    for mask in range(1 << k):
        bits = [(mask >> i) & 1 for i in range(k)]
        if constraint.is_satisfied_by(bits):
            out.add(tuple(bits))
    return out


def _softmin(values, alpha):
    if not values:
        return INF
    low = min(values)
    return low - alpha * math.log(math.fsum(math.exp(-(v - low) / alpha) for v in values))


def _state_for(instance, smoothing=0.0, averaging=UNIFORM):
    dec = decompose(instance)
    bdds = [build_bdd(c, support) for c, support in zip(instance.constraints, dec.subproblem_vars)]
    if any(b.is_empty() for b in bdds):
        return None, dec, bdds
    return init_duals(bdds, dec, instance.objective, smoothing, averaging), dec, bdds


def _snapshot(bdd):
    return (list(bdd.lo), list(bdd.hi), bdd.root, len(journal(bdd)))


# -- 1: row diagrams encode exactly the satisfying set ------------------------


def test_c01_row_diagrams_match_enumeration():
    with criterion("criterion 01 (diagram/enumeration equivalence)", budget=10.0):
        rng = random.Random("acceptance-rows")
        nonempty = 0
        for t in range(500):
            con = _random_row(rng, f"r{t}")
            k = len(con.terms)
            diagram = build_bdd(con)
            want = _brute_solutions(con, k)
            assert solutions(diagram) == want, f"row {t} disagrees with enumeration"
            nonempty += bool(want)
        assert nonempty > 400  # the sampler must mostly produce satisfiable rows
        # wide coefficients leave gaps between the residual intervals of a level
        nonempty = 0
        for t in range(100):
            con = _wide_row(rng, f"w{t}")
            diagram = build_bdd(con)
            want = _brute_solutions(con, len(con.terms))
            assert solutions(diagram) == want, f"wide row {t} disagrees with enumeration"
            check_invariants(diagram, reduced=True)
            nonempty += bool(want)
        assert nonempty > 80


# -- 2: the three-variable unit-sum diagram, before and after fixing ----------


def test_c02_unit_sum_diagram_shape_and_fixing():
    with criterion("criterion 02 (unit-sum diagram shape)", budget=1.0):
        con = LinearConstraint("unit", ((1, 1), (3, 1), (7, 1)), Relation.EQ, 1)
        diagram = build_bdd(con)
        assert diagram.support == (1, 3, 7)
        assert diagram.node_count() == 5
        assert solutions(diagram) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        trail = fresh_trail(diagram)
        token = trail.checkpoint()
        assert diagram.fix(3, 1)
        assert diagram.node_count() == 3
        assert solutions(diagram) == {(0, 1, 0)}
        trail.rollback(token)
        assert diagram.node_count() == 5


# -- 3: cached sweeps equal brute-force marginals under every algebra ---------


def test_c03_marginals_match_brute_force():
    with criterion("criterion 03 (marginal oracle equivalence)", budget=10.0):
        rng = random.Random("acceptance-marginals")
        checked = 0
        for t in range(200):
            con = _random_row(rng, f"m{t}", max_support=10)
            k = len(con.terms)
            diagram = build_bdd(con)
            sols = sorted(_brute_solutions(con, k))
            if not sols:
                assert diagram.is_empty()
                continue
            checked += 1
            lam = [rng.uniform(-5.0, 5.0) for _ in range(k)]
            costs = [math.fsum(l * b for l, b in zip(lam, sol)) for sol in sols]

            got = marginal_sweep(diagram, MessageStore(diagram, MIN_MARGINAL), lam, MIN_MARGINAL)
            fast = min_marginals(diagram, lam)
            for lev in range(k):
                want0 = min((c for c, s in zip(costs, sols) if s[lev] == 0), default=INF)
                want1 = min((c for c, s in zip(costs, sols) if s[lev] == 1), default=INF)
                assert _close(got[lev][0], want0, 1e-9)
                assert _close(got[lev][1], want1, 1e-9)
                assert _close(fast[lev][0], want0, 1e-9)
                assert _close(fast[lev][1], want1, 1e-9)

            counts = marginal_sweep(diagram, MessageStore(diagram, COUNTING), [0.0] * k, COUNTING)
            fast_counts = _path_counts(diagram)
            for lev in range(k):
                assert counts[lev][0] == sum(1 for s in sols if s[lev] == 0)
                assert counts[lev][1] == sum(1 for s in sols if s[lev] == 1)
                assert fast_counts[lev][0] == sum(1 for s in sols if s[lev] == 0)
                assert fast_counts[lev][1] == sum(1 for s in sols if s[lev] == 1)

            for alpha in (1.0, 0.1, 0.01):
                thetas = [-l / alpha for l in lam]
                raw = marginal_sweep(diagram, MessageStore(diagram, LOG_PARTITION), thetas,
                                     LOG_PARTITION)
                for lev in range(k):
                    soft0 = _softmin([c for c, s in zip(costs, sols) if s[lev] == 0], alpha)
                    soft1 = _softmin([c for c, s in zip(costs, sols) if s[lev] == 1], alpha)
                    assert _close(-alpha * raw[lev][0], soft0, 1e-9)
                    assert _close(-alpha * raw[lev][1], soft1, 1e-9)
        assert checked >= 150


# -- 4: every averaging step increases the bound by the closed-form amount ----


def _closed_form_increase(diffs):
    """min(0, sum) - sum of min(0, d); None when the extended sum is inf-inf."""
    if any(d != d for d in diffs):
        return None
    if any(d == -INF for d in diffs):
        return None
    total = math.fsum(diffs)
    return min(0.0, total) - math.fsum(min(0.0, d) for d in diffs)


class _IncreaseChecker:
    def __init__(self, state):
        self.state = state
        self.updates = 0
        self.matched = 0
        self.indeterminate = 0
        self.latched = 0

    def marginals(self, var, items):
        self._items = items
        self._before = math.fsum(scratch_energy(self.state, j) for j, _, _, _ in items)
        diffs = []
        for _, _, m0, m1 in items:
            if m1 == INF and m0 == INF:
                diffs.append(math.nan)
            elif m1 == INF:
                diffs.append(INF)
            elif m0 == INF:
                diffs.append(-INF)
            else:
                diffs.append(m1 - m0)
        self._diffs = diffs

    def updated(self, var, diffs, predicted):
        self.updates += 1
        if self.state.infeasible:
            assert predicted == INF
            self.latched += 1
            return
        after = math.fsum(scratch_energy(self.state, j) for j, _, _, _ in self._items)
        realized = after - self._before
        assert realized >= -1e-9, f"bound decreased by {-realized} at variable {var}"
        expected = _closed_form_increase(self._diffs)
        if expected is None:
            self.indeterminate += 1
            return
        assert abs(realized - expected) <= 1e-9, (
            f"variable {var}: realized {realized} vs closed form {expected}")
        self.matched += 1


def test_c04_update_increase_matches_closed_form(monkeypatch):
    with criterion("criterion 04 (closed-form bound increase)", budget=20.0):
        rng = random.Random("acceptance-increase")
        updates = matched = 0
        for t in range(50):
            instance = random_ilp(rng.randint(4, 16), rng.randint(1, 6), seed=1000 + t)
            state, _, _ = _state_for(instance)
            if state is None:
                continue
            checker = _IncreaseChecker(state)
            with monkeypatch.context() as patch:
                watch_updates(patch, checker)
                run(state, max_passes=6, tolerance=0.0)
            assert checker.updates > 0
            updates += checker.updates
            matched += checker.matched
        assert updates >= 1000, f"only {updates} updates exercised"
        assert matched >= updates // 2, f"closed form applied to only {matched}/{updates}"


# -- 5: smoothed energies sit strictly between the exact bound and its slack --


def test_c05_smoothed_energy_sandwich():
    with criterion("criterion 05 (soft-min energy sandwich)", budget=10.0):
        rng = random.Random("acceptance-sandwich")
        checked = strict_checked = underflow = 0
        for t in range(50):
            instance = random_ilp(rng.randint(4, 14), rng.randint(1, 6), seed=2000 + t)
            state, _, bdds = _state_for(instance)
            if state is None:
                continue
            run(state, max_passes=3, tolerance=0.0)
            if state.infeasible:
                continue
            for j, diagram in enumerate(bdds):
                sols = solutions(diagram)
                if not sols:
                    continue
                lam = state.duals[j]
                costs = [math.fsum(l * b for l, b in zip(lam, sol)) for sol in sols]
                exact = scratch_energy(state, j)
                assert _close(exact, min(costs), 1e-9)
                for alpha in (1.0, 0.1, 0.01):
                    thetas = [-l / alpha for l in lam]
                    store = MessageStore(diagram, LOG_PARTITION)
                    backward_sweep(diagram, store, thetas, LOG_PARTITION)
                    soft = -alpha * subproblem_energy(diagram, store, LOG_PARTITION)
                    assert _close(soft, _softmin(costs, alpha), 1e-7)
                    slack = alpha * math.log(len(sols))
                    assert soft <= exact + 1e-7
                    assert soft >= exact - slack - 1e-7
                    checked += 1
                    if len(sols) >= 2:
                        low = min(costs)
                        mass = math.fsum(math.exp(-(c - low) / alpha) for c in costs)
                        gap = alpha * math.log1p(max(0.0, mass - 1.0))
                        if gap > 1e-9 * max(1.0, abs(exact)):
                            # the analytic gap is wide enough to see in doubles
                            assert soft < exact, "soft minimum not strictly below"
                            strict_checked += 1
                        else:
                            underflow += 1
        assert checked >= 300
        assert strict_checked >= checked // 3
        # strictness holds in exact arithmetic; skipping underflowed gaps is
        # recorded rather than hidden
        assert underflow <= checked


# -- 6: cached messages agree with from-scratch recomputation everywhere ------


class _MarginalChecker:
    def __init__(self, state):
        self.state = state
        self.compared = 0

    def marginals(self, var, items):
        for j, lev, m0, m1 in items:
            want0, want1 = scratch_marginals(self.state, j)[lev]
            assert _close(m0, want0, 1e-9), f"diagram {j} level {lev}: {m0} vs {want0}"
            assert _close(m1, want1, 1e-9), f"diagram {j} level {lev}: {m1} vs {want1}"
            self.compared += 1

    def updated(self, var, diffs, predicted):
        pass


def test_c06_incremental_marginals_match_scratch(monkeypatch):
    with criterion("criterion 06 (incremental message correctness)", budget=20.0):
        compared = 0
        for t in range(20):
            instance = random_ilp(5 + (t % 8), 2 + (t % 4), seed=3000 + t)
            for smoothing, averaging in ((0.0, UNIFORM), (0.0, SRMP), (0.5, UNIFORM)):
                state, _, _ = _state_for(instance, smoothing, averaging)
                if state is None:
                    continue
                checker = _MarginalChecker(state)
                with monkeypatch.context() as patch:
                    watch_updates(patch, checker)
                    run(state, max_passes=5, tolerance=0.0)
                assert checker.compared > 0
                compared += checker.compared
        assert compared >= 2000, f"only {compared} marginal pairs compared"


# -- 7: bounds never exceed the optimum; cost copies always sum to the cost ---


def _check_split_invariant(state, instance):
    for var, slots in slot_map(state.bdds).items():
        total = math.fsum(state.duals[j][lev] for j, lev in slots)
        assert abs(total - float(instance.objective[var])) <= 1e-9


def test_c07_weak_duality_and_split_invariant():
    with criterion("criterion 07 (weak duality, split invariant)", budget=30.0):
        rng = random.Random("acceptance-duality")
        feasible_checked = 0
        modes = ((UNIFORM, 0.0), (SRMP, 0.0), (UNIFORM, 0.4), (SRMP, 0.4))
        sizes = [(rng.randint(6, 14), rng.randint(2, 8)) for _ in range(12)]
        sizes += [(18, 6), (20, 5)]
        for t, (n, m) in enumerate(sizes):
            instance = random_ilp(n, m, seed=4000 + t)
            best, _ = brute_force_solve(instance)
            for averaging, smoothing in modes:
                state, dec, _ = _state_for(instance, smoothing, averaging)
                if state is None:
                    assert best is None  # an unsatisfiable row proves it
                    continue
                _, gain = presolve_free(instance, dec)
                shift = float(gain)
                for _ in range(4):
                    forward_pass(state)
                    if state.infeasible:
                        break
                    _check_split_invariant(state, instance)
                    backward_pass(state)
                    if state.infeasible:
                        break
                    _check_split_invariant(state, instance)
                if state.infeasible:
                    assert best is None
                    continue
                if best is not None:
                    assert state.dual_value() + shift <= float(best) + 1e-6
                    feasible_checked += 1
        assert feasible_checked >= 16

        # a single diagram solves its own subproblem exactly
        exact_checked = 0
        for t in range(12):
            n = rng.randint(4, 10)
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
            low = sum(min(a, 0) for a in coeffs)
            high = sum(max(a, 0) for a in coeffs)
            row = LinearConstraint("only", tuple(enumerate(coeffs)),
                                   rng.choice((Relation.LE, Relation.GE, Relation.EQ)),
                                   rng.randint(low, high))
            objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            instance = ILPInstance([f"x{i}" for i in range(n)], objective, [row])
            best, _ = brute_force_solve(instance)
            state, dec, _ = _state_for(instance)
            if state is None or state.infeasible:
                assert best is None
                continue
            report = run(state, max_passes=6, tolerance=0.0)
            _, gain = presolve_free(instance, dec)
            assert abs(report.lower_bound + float(gain) - float(best)) <= 1e-6
            exact_checked += 1
        assert exact_checked >= 8


# -- 8: the rounding search is complete and leaves the diagrams untouched -----


def test_c08_rounding_completeness_and_restoration():
    with criterion("criterion 08 (search completeness, exact restore)", budget=30.0):
        feasible = infeasible = 0
        for t in range(40):
            instance = random_ilp(4 + (t % 9), 1 + (t % 5), seed=5000 + t)
            best, _ = brute_force_solve(instance)
            state, dec, bdds = _state_for(instance)
            if state is None:
                assert best is None
                infeasible += 1
                continue
            fixes, gain = presolve_free(instance, dec)
            run(state, max_passes=6, tolerance=0.0)
            if state.infeasible:
                assert best is None
                infeasible += 1
                continue
            bound = state.dual_value() + float(gain)
            before = [_snapshot(b) for b in bdds]
            result = primal_search(state, preassigned=fixes, budget=None)
            assert [_snapshot(b) for b in bdds] == before, "diagrams not restored"
            if best is None:
                assert result.status == "infeasible"
                infeasible += 1
            else:
                assert result.status == "solved"
                vector = [result.assignment[i] for i in range(instance.num_vars)]
                assert instance.check_assignment(vector)
                value = instance.objective_value(vector)
                assert float(value) >= bound - 1e-6
                assert value >= best
                feasible += 1
        assert feasible >= 10 and infeasible >= 5


# -- 9: the chain-model generator has the documented shape and exact optimum --


def test_c09_chain_generator_counts_and_optimum():
    with criterion("criterion 09 (generator fidelity)", budget=5.0):
        instance = mrf_instance(1, 3, 2, seed=11)
        assert instance.num_vars == 14
        assert len(instance.constraints) == 13
        index = instance.name_to_index
        unary = {(v, l): instance.objective[index[f"u{v}_{l}"]]
                 for v in range(3) for l in range(2)}
        pair = {(a, b, la, lb): instance.objective[index[f"p{a}_{b}_{la}_{lb}"]]
                for a, b in ((0, 1), (1, 2)) for la in range(2) for lb in range(2)}
        best_energy = min(
            sum(unary[v, lab[v]] for v in range(3))
            + sum(pair[a, b, lab[a], lab[b]] for a, b in ((0, 1), (1, 2)))
            for lab in product(range(2), repeat=3)
        )
        best, _ = brute_force_solve(instance)
        assert best is not None
        assert best == best_energy


# -- 10: the command line is deterministic, report and trace alike ------------


def _mask_times(text):
    return re.sub(r'"(?:time_ms|build_time_ms|dual_time_ms|primal_time_ms)": [0-9.eE+-]+', '"t": 0', text)


def test_c10_cli_determinism(tmp_path, cli_env):
    with criterion("criterion 10 (end-to-end determinism)"):
        path = tmp_path / "grid.lp"
        path.write_text(write_lp(mrf_instance(3, 3, 2, seed=8)))
        outputs = []
        raw_stdout = None
        for k in (1, 2):
            trace = tmp_path / f"trace{k}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "bddsolve.cli", "solve", str(path),
                 "--max-passes", "30", "--trace", str(trace)],
                capture_output=True, text=True, env=cli_env,
            )
            assert proc.returncode == 0, proc.stderr
            raw_stdout = proc.stdout
            outputs.append((_mask_times(proc.stdout), _mask_times(trace.read_text())))
        assert outputs[0][0] == outputs[1][0], "reports differ between runs"
        assert outputs[0][1] == outputs[1][1], "traces differ between runs"
        assert json.loads(raw_stdout)["status"] == "solved"


# -- 11: pass time scales with diagram size, bound stays monotone -------------


def _timed_dual(instance, passes):
    dec = decompose(instance)
    bdds = [build_bdd(c, support) for c, support in zip(instance.constraints, dec.subproblem_vars)]
    nodes = sum(b.node_count() for b in bdds)
    state = init_duals(bdds, dec, instance.objective)
    start = time.perf_counter()
    report = run(state, max_passes=passes, tolerance=0.0)
    elapsed = time.perf_counter() - start
    return report, nodes, elapsed, state.store is not None


# both sizes on the list kernels, then both on the array store: the store's
# per-node time is several times lower, so mixing the two would compare kernels
PATHS = {"lists": {"ARRAY_MIN_NODES": 1 << 62}, "array store": {"ARRAY_MIN_NODES": 0, "ARRAY_MIN_WAVE_NODES": 1}}


def test_c11_pass_time_scales_with_nodes(monkeypatch):
    with criterion("criterion 11 (linear scaling smoke test)", budget=60.0):
        small = mrf_instance(10, 10, 2, seed=0)
        large = mrf_instance(30, 30, 2, seed=0)
        assert large.num_vars > 8000

        for path, constants in PATHS.items():
            for name, value in constants.items():
                monkeypatch.setattr(dual, name, value)
            report_s, nodes_s, time_s, array_s = _timed_dual(small, passes=20)
            report_l, nodes_l, time_l, array_l = _timed_dual(large, passes=20)
            assert report_l.passes == 20
            assert array_s == array_l == (path == "array store")

            bounds = [t.lower_bound for t in report_l.trace]
            for a, b in zip(bounds, bounds[1:]):
                assert b >= a - 1e-6 * max(1.0, abs(a)), f"bound not monotone ({path})"

            ratio_small = time_s / nodes_s
            ratio_large = time_l / nodes_l
            assert ratio_large <= 3.0 * ratio_small, (
                f"per-node time grew ({path}): {ratio_large:.3e} vs {ratio_small:.3e}")
            assert ratio_large >= ratio_small / 3.0, (
                f"per-node time shrank ({path}): {ratio_large:.3e} vs {ratio_small:.3e}")
