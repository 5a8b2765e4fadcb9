import importlib.util
import inspect
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin import algebra, ed_oracle, rg_core, solver
from gaudin.cli import parse_spec
from gaudin.algebra import RATIONAL, TRIGONOMETRIC, LevelSet
from gaudin.dicke import OperatorExpression
from gaudin.errors import (
    CollisionError,
    ConvergenceError,
    DomainError,
    InsufficientModesError,
    SelectionError,
    SingularJacobianError,
)
from gaudin.rg_core import (
    DICKE_X,
    RG_ETA,
    DickeSpec,
    ModelSpec,
    RapiditySet,
    dicke_rg_residual,
    rg_residual,
)
from gaudin.solver import (
    ContinuationPolicy,
    continue_in_xi,
    enumerate_dicke_branches,
    newton_solve,
    solve_dicke_branch,
    solve_rg,
    solve_tda,
)

SRC = Path(__file__).resolve().parents[1] / "src"
JC = DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)
RG4 = ModelSpec(
    LevelSet.from_spins((1.0, 2.0, 3.0, 4.0), (0.5, 0.5, 0.5, 0.5)),
    TRIGONOMETRIC, 2, -0.15,
)
M2 = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)
# one spin-1 level: its single N = 2 state sits on the repeated secular root
ONE_LEVEL = ModelSpec(LevelSet.from_spins((1.0,), (1.0,)), TRIGONOMETRIC, 2, -0.1)


def test_policy_validation():
    with pytest.raises(DomainError):
        ContinuationPolicy(max_step=1e-9)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            ContinuationPolicy(newton_tol=tol)


def test_solve_tda_single_root():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    r = solve_tda(spec)
    assert r.values[0] == pytest.approx(1.5, abs=1e-12)


def test_solve_tda_repeated_root_is_split_at_the_start_of_the_xi_path(monkeypatch):
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 2, 0.1)
    r = solve_tda(spec)
    assert r.values[0] == r.values[1] == pytest.approx(1.5, abs=1e-12)
    # the TDA point itself: the repeated root twice
    r = solve_tda(ONE_LEVEL)
    assert r.values[0] == r.values[1]
    runs, _ = _record_paths(monkeypatch)
    trace = continue_in_xi(ONE_LEVEL, ContinuationPolicy(), r)
    [(_, (t_start, seeds), _)] = runs
    assert t_start == trace.path[0].xi == solver.CLUSTER_T0
    seeds = np.array(seeds)
    assert abs(seeds[0] - seeds[1]) > 1e-3
    # closed under conjugation, whether the split is real or a conjugate pair
    assert all(np.min(np.abs(seeds - np.conj(v))) < 1e-14 for v in seeds)
    assert trace.status == "converged"


@pytest.mark.parametrize("xi", [None, 1.0, 0.25], ids=["rg", "dicke-xi1", "dicke-xi0.25"])
def test_cluster_seeds_miss_the_path_by_order_t0(xi):
    # two rapidities on the secular root of a spin-1 level split by about
    # sqrt(t0); the leading-order seeds, from the family's rows and rate, miss
    # the path's point at t0 by O(t0), under 6e-3 of the split here, where a
    # split off by sqrt(2) misses by 0.2 of it
    t0 = solver.CLUSTER_T0
    if xi is None:
        family, values = ONE_LEVEL.xi_family, solve_tda(ONE_LEVEL).as_array()

        def residual(w):
            return rg_core.deformed_rg_residual(ONE_LEVEL, t0, w)
    else:
        spec = DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 2)
        family = rg_core.tau_family(spec, xi)
        values = np.full(2, solver.tda_roots_dicke(spec, xi)[1], dtype=complex)

        def residual(w):
            return rg_core.extended_dicke_residual(spec, t0, w, xi)
    t_start, seeds = solver._cluster_seeds(family, values)
    assert t_start == t0
    exact = newton_solve(residual, seeds)[0]
    assert np.max(np.abs(seeds - exact)) <= 0.02 * abs(seeds[0] - seeds[1])


def test_solve_tda_roots_approach_levels_at_weak_coupling():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    prev = np.inf
    for g in (0.1, 0.01, 0.001):
        spec = ModelSpec(ls, TRIGONOMETRIC, 1, g)
        root = solve_tda(spec).values[0]
        gap = min(abs(root - e) for e in ls.etas)
        assert gap < prev
        prev = gap
    assert prev < 5e-3


def test_solve_tda_no_coupling_has_no_roots():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.0)
    with pytest.raises(InsufficientModesError):
        solve_tda(spec)


def test_solve_tda_bad_occupation():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    with pytest.raises(SelectionError):
        solve_tda(spec, occupation=[5])
    with pytest.raises(SelectionError):
        solve_tda(spec, occupation=[0, 0])


def test_newton_zero_iterations_at_exact_root():
    fn = lambda w: dicke_rg_residual(JC, RapiditySet(tuple(w), DICKE_X))
    w, rep, iters = newton_solve(fn, RapiditySet((0.5,), DICKE_X).as_array())
    assert iters == 0
    assert w[0] == 0.5 + 0.0j


def test_newton_quadratic_convergence_on_jc():
    fn = lambda w: dicke_rg_residual(JC, RapiditySet(tuple(w), DICKE_X))
    w, rep, iters = newton_solve(fn, RapiditySet((0.4,), DICKE_X).as_array(), tol=1e-12)
    assert abs(w[0] - 0.5) < 1e-12
    assert iters <= 6


def test_newton_collision_start_raises():
    fn = lambda w: dicke_rg_residual(JC, RapiditySet(tuple(w), DICKE_X))
    with pytest.raises(CollisionError):
        newton_solve(fn, RapiditySet((1.0,), DICKE_X).as_array())


def test_newton_halves_a_step_whose_trial_collides():
    # w^2 - 1 from 0.1: the full step lands on 5.05, inside a stand-in
    # collision zone w > 3, so the trial raises and the step is halved
    trials = []

    def residual(w):
        trials.append(float(w[0]))
        if w[0] > 3.0:
            raise CollisionError("rapidity 0 collides with level 0 at 4.0", pair=("level", 0, 0))
        r = w * w - 1.0
        return rg_core.ResidualReport(r, float(np.max(np.abs(r))), np.diag(2.0 * w))

    values, report, _ = newton_solve(residual, np.array([0.1]))
    assert trials[:4] == pytest.approx([0.1, 5.05, 2.575, 1.3375], rel=1e-14)
    assert values[0] == pytest.approx(1.0, abs=1e-10) and report.max_abs <= 1e-10


def test_a_path_that_only_collides_ahead_stops_as_collision_detected():
    # w = t, with every point beyond t = 0.5 colliding: the steps shrink
    # towards 0.5 until they fall below MIN_STEP
    def residual_at(t, w):
        if t > 0.5:
            raise CollisionError("rapidities 0 and 1 collide", pair=("rapidity", 0, 1))
        r = w - t
        return rg_core.ResidualReport(r, float(np.max(np.abs(r))), np.eye(len(w)),
                                      -np.ones(len(w)))

    path, status = solver._continue_path(residual_at, 0.0, 1.0, np.zeros(2),
                                         ContinuationPolicy())
    assert status == "collision_detected"
    t, values, _ = path[-1]
    assert 0.5 - 2.0 * solver.MIN_STEP <= t <= 0.5
    assert np.max(np.abs(values - t)) <= 1e-12


def test_solve_rg_m4_benchmark():
    final, _, trace = solve_rg(RG4)
    assert trace.status == "converged"
    check = rg_residual(RG4, final, jacobian=False)
    assert check.max_abs < 1e-10
    # monotone xi from 0 to 1
    xis = [p.xi for p in trace.path]
    assert xis[0] == 0.0 and xis[-1] == 1.0
    assert all(b > a for a, b in zip(xis, xis[1:]))
    # every recorded point meets the tolerance
    assert all(p.max_abs <= 1e-10 for p in trace.path)


def test_solve_rg_conjugate_closure_along_trace():
    final, _, trace = solve_rg(RG4)
    for p in trace.path:
        v = p.rapidities.as_array()
        assert np.max(np.abs(np.sort_complex(v) - np.sort_complex(np.conj(v)))) < 1e-8


def _record_paths(monkeypatch):
    """Run every _continue_path with a residual that counts its evaluations
    per (t, values); returns [(counts, seed key, path)] and a list that grows
    by one per failed Newton solve (a rejected step)."""
    runs, failures = [], []
    driver, newton = solver._continue_path, solver.newton_solve

    def recording(residual_at, t_start, t_end, values, policy):
        counts = Counter()

        def counted(t, w, jacobian=True):
            counts[(t, tuple(w))] += 1
            return residual_at(t, w, jacobian)

        path, status = driver(counted, t_start, t_end, values, policy)
        seed = (t_start, tuple(np.asarray(values, dtype=complex)))
        runs.append((counts, seed, list(path)))
        return path, status

    def failing(*args):
        try:
            return newton(*args)
        except (ConvergenceError, SingularJacobianError, CollisionError):
            failures.append(args)
            raise

    monkeypatch.setattr(solver, "_continue_path", recording)
    monkeypatch.setattr(solver, "newton_solve", failing)
    return runs, failures


@pytest.mark.parametrize("case", ["rg", "dicke"])
def test_continue_path_evaluates_each_accepted_point_once(monkeypatch, case):
    runs, failures = _record_paths(monkeypatch)
    if case == "rg":
        solve_rg(RG4)
    else:
        # this pattern rejects steps at xi_start = 0.5 before it converges
        solve_dicke_branch(M2, [2, 2], xi_start=0.5)
        assert failures
    assert len(runs) == (1 if case == "rg" else 2)
    for counts, seed, path in runs:
        assert counts[seed] == 1
        # the corrector's accepted evaluation also serves the predictor
        assert [counts[(t, tuple(v))] for t, v, _ in path] == [1] * len(path)
        # no point twice, the tangent's one-sided difference at the start of
        # the RG path (on the xi = 0 domain edge) included
        assert max(counts.values()) == 1


@pytest.mark.parametrize("case", ["rg", "dicke"])
def test_paths_make_no_jacobian_free_call(monkeypatch, case):
    # the tangent is -J^-1 rate from a report the corrector made: every
    # family call on a path is a Newton evaluation, with its Jacobian
    calls, newton = [], solver.newton_solve
    for name in ("deformed_rg_residual", "extended_dicke_residual",
                 "deformed_dicke_residual", "dicke_rg_residual"):
        family = getattr(rg_core, name)

        def recorded(*args, family=family, name=name, **kwargs):
            bound = inspect.signature(family).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments["jacobian"]))
            return family(*args, **kwargs)

        monkeypatch.setattr(rg_core, name, recorded)
    evaluations = []

    def counting_newton(residual_fn, w0, tol=1e-10):
        def counted(w):
            evaluations.append(w)
            return residual_fn(w)
        return newton(counted, w0, tol)

    monkeypatch.setattr(solver, "newton_solve", counting_newton)
    if case == "rg":
        solve_rg(RG4)
    else:
        solve_dicke_branch(M2, [0, 2])
    with_jacobian = [name for name, jac in calls if jac]
    assert len(with_jacobian) == len(evaluations)
    # the Dicke branch reports its Newton polish's own evaluation
    assert [(name, jac) for name, jac in calls if not jac] == []
    assert case == "rg" or "dicke_rg_residual" in with_jacobian


@pytest.mark.parametrize("kind", [RATIONAL, TRIGONOMETRIC])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_hermite_prediction_error_falls_as_the_fourth_power_of_the_step(kind, k):
    # with one rapidity every point of the deformed RG path is a secular root
    spec = ModelSpec(LevelSet.from_spins((0.7, 1.2, 2.0), (1.0, 0.5, 1.5)), kind, 1, -0.2)

    def point(xi):
        y = np.array([solver._real_roots(spec.xi_family.row(xi))[k]], dtype=complex)
        return xi, y, solver._tangent(rg_core.deformed_rg_residual(spec, xi, y))

    def errors(h):
        # two steps of a path, the second 1.3 times the first
        last, here = point(0.5 - h), point(0.5)
        t = 0.5 + 1.3 * h
        exact = point(t)[1]
        return [abs(solver._predict(*pair, t) - exact)[0] for pair in ((last, here), (None, here))]

    (hermite, euler), (hermite_half, euler_half) = errors(0.04), errors(0.02)
    assert 14.0 < hermite / hermite_half < 18.0
    assert 3.5 < euler / euler_half < 4.5
    assert hermite < 1e-2 * euler


def test_the_predictor_falls_back_to_euler_and_to_the_point():
    y0, y1 = np.array([1.0 + 0j, 2.0]), np.array([1.5 + 0j, 2.5])
    d = np.array([0.5 + 0j, -1.0])
    here = (0.2, y1, d)
    euler = y1 + 0.1 * d
    # a path's first step, and a last point whose tangent was refused
    assert np.array_equal(solver._predict(None, here, 0.3), euler)
    assert np.array_equal(solver._predict((0.1, y0, None), here, 0.3), euler)
    # a refused tangent at the point predicts the point itself
    assert solver._predict((0.1, y0, d), (0.2, y1, None), 0.3) is y1
    # through the two points and their tangents, a cubic is reproduced
    cubic = [0.3, -1.0, 2.0, 0.5]
    pts = [(t, np.array([np.polyval(cubic, t)], dtype=complex),
            np.array([np.polyval(np.polyder(cubic), t)], dtype=complex)) for t in (0.4, 0.5)]
    assert solver._predict(*pts, 0.65)[0] == pytest.approx(np.polyval(cubic, 0.65), abs=1e-14)
    assert solver._predict(pts[1], pts[0], 0.3)[0] == pytest.approx(np.polyval(cubic, 0.3),
                                                                     abs=1e-14)


def test_the_rate_is_formed_once_per_step_and_never_on_a_newton_trial(monkeypatch):
    spec = ModelSpec(LevelSet.from_spins((0.6, 0.85, 1.1, 1.35), (1.0,) * 4), RATIONAL, 4,
                     -0.15)
    formed, solves, at = [], [], {}
    form_rate, newton = rg_core._form_rate, solver.newton_solve

    def forming(rate, row, w, *arrays):
        formed.append(w.copy())
        return form_rate(rate, row, w, *arrays)

    def recording(residual_fn, w0, tol=1e-10):
        def evaluated(w):
            report = residual_fn(w)
            at[id(report)] = (report, w.copy())
            return report
        solves.append(newton(evaluated, w0, tol))
        return solves[-1]

    monkeypatch.setattr(rg_core, "_form_rate", forming)
    monkeypatch.setattr(solver, "newton_solve", recording)
    _, _, trace = solve_rg(spec)
    assert len(solves) == len(trace.path) and len(at) > 2 * len(formed)
    # one rate per accepted point that starts a step, the endpoint's solve
    # forming none: at the iterate whose inverse, the last of the Newton
    # solve that accepted the point, gives the tangent, or at the point
    # itself when that solve made no iteration; no other trial forms one
    want = [at[id(s.last[1])][1] if s.last else s[0] for s in solves[:-1]]
    assert len(formed) == len(want)
    assert all(np.array_equal(w, v) for w, v in zip(formed, want))
    starts = [p.rapidities.as_array() for p in trace.path[:-1]]
    reused = [s.last is not None for s in solves[:-1]]
    assert sum(reused) >= len(starts) - 1
    assert all(not np.array_equal(w, v) for w, v, r in zip(formed, starts, reused) if r)


def _perfbench_specs(workload, seed):
    """The specs perfbench/specs.py generates for a workload and seed."""
    path = SRC.parent / "perfbench" / "specs.py"
    loader = importlib.util.spec_from_file_location("perfbench_specs", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.generate(workload, seed)


@pytest.mark.parametrize("index, max_step, points, evaluations, inverses", [
    (0, 1.0, 6, 19, 13), (1, 1.0, 6, 19, 13), (0, 0.1, 13, 40, 27), (1, 0.1, 13, 40, 27),
], ids=["m32-n16", "m48-n24", "m32-n16-capped", "m48-n24-capped"])
def test_xi_path_work_per_solve_on_the_benchmark_specs(tmp_path, monkeypatch, index, max_step,
                                                       points, evaluations, inverses):
    # the step grows with its predictor's measured error alone and every
    # tangent after a Newton iteration reuses that iteration's inverse: 6
    # points, 19 kernel evaluations (the last one solve_rg's check of the
    # answer) and 13 inverses per solve, where a step cap of 0.1 (--xi-steps
    # 10, the old default) takes 13, 40 and 27, a x1.3 step growth and a
    # fresh inverse per tangent under that cap 17 points, 47 and 50
    # evaluations and 45 and 48 inverses; a Jacobian is formed only for an
    # inverse, where forming one with every evaluation that may read it
    # formed 39 under the cap
    bench = _perfbench_specs("rg-large", 0)[index]
    path = tmp_path / "rg.spec"
    path.write_text(bench.text)
    spec = parse_spec(str(path))
    policy = ContinuationPolicy(max_step=max_step)
    counts = Counter()
    evaluate, inverse, form = rg_core._evaluate, np.linalg.inv, rg_core._form_jacobian

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rg_core, "_evaluate", counted("evaluations", evaluate))
    monkeypatch.setattr(np.linalg, "inv", counted("inverses", inverse))
    monkeypatch.setattr(rg_core, "_form_jacobian", counted("jacobians", form))
    _, _, trace = solve_rg(spec, policy)
    assert trace.status == "converged"
    assert all(p.max_abs <= policy.newton_tol for p in trace.path)
    # each step is at most the cap, up to the round-off of t + step
    assert max(np.diff([p.xi for p in trace.path])) <= max_step * (1.0 + 1e-12)
    assert (len(trace.path), counts["evaluations"], counts["inverses"]) == (
        points, evaluations, inverses)
    assert counts["jacobians"] == inverses


def _same_state(a, b):
    """Whether a and b list one state's rapidities, in any order: each value
    lies within 1e-8 (relative to max|b|) of its nearest in the other list,
    which, the rapidities of a state being distinct, is its partner."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_the_uncapped_xi_path_keeps_the_adiabatic_label():
    # 36 random RG specs, rational and trigonometric, m 3-12, spins 1/2 and
    # 1, g within 0.3, an --occupation on every fourth: wherever the path in
    # steps of at most 0.01 converges (28 specs here), the default path, its
    # step sized by its predictor alone, converges on the same state, where
    # a cap of 0.1 lands one of them (i = 15) on another
    rng = np.random.default_rng(0)
    checked = 0
    for i in range(36):
        m = int(rng.integers(3, 13))
        etas = np.sort(rng.uniform(0.5, 2.5, m))
        spins = rng.choice([0.5, 1.0], m)
        g = float(rng.uniform(-0.3, 0.3))
        n = int(rng.integers(1, m // 2 + 2))
        occupation = sorted(int(k) for k in rng.integers(0, m, n)) if i % 4 == 3 else None
        spec = ModelSpec(LevelSet.from_spins(tuple(etas), tuple(spins)),
                         (RATIONAL, TRIGONOMETRIC)[i % 2], n, g)
        try:
            reference = solve_rg(spec, ContinuationPolicy(max_step=0.01), occupation)[0]
        except (ConvergenceError, SingularJacobianError, CollisionError):
            continue
        checked += 1
        final = solve_rg(spec, occupation=occupation)[0]
        assert _same_state(final.values, reference.values), (i, spec, occupation)
    assert checked == 28


def test_the_dicke_outer_leg_keeps_its_step_cap(monkeypatch):
    # capped at OUTER_MAX_STEP, whatever the policy's cap, the outer leg of
    # this branch lands where steps of 0.01 do; uncapped, its steps grow long
    # enough to jump to another state
    spec = DickeSpec((0.8742, 1.207), (0.5, 0.5), 0.0818, 1.0963, 1)
    reference = solve_dicke_branch(spec, [0], ContinuationPolicy(max_step=0.01))[0]
    final, _, trace = solve_dicke_branch(spec, [0])
    assert reference.values[0] == pytest.approx(0.845407, abs=1e-6)
    assert final.values[0] == pytest.approx(reference.values[0], abs=1e-12)
    # the trace is the outer leg, xi 1 -> 0
    assert max(-np.diff([p.xi for p in trace.path])) <= solver.OUTER_MAX_STEP * (1.0 + 1e-12)
    monkeypatch.setattr(solver, "OUTER_MAX_STEP", 1.0)
    assert solve_dicke_branch(spec, [0])[0].values[0] == pytest.approx(1.077528, abs=1e-6)


def test_each_path_logs_one_debug_line_of_its_work(monkeypatch, caplog):
    runs, _ = _record_paths(monkeypatch)
    inverses = Counter()
    inverse = np.linalg.inv

    def counted(*args, **kwargs):
        inverses["path"] += 1
        return inverse(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        solve_rg(RG4)
    [(counts, _, path)] = runs
    [record] = [r for r in caplog.records if r.getMessage().startswith("path ")]
    # formatted only when emitted
    assert record.args and "%d" in record.msg
    found = re.fullmatch(
        r"path 0 -> 1 converged: (\d+) steps accepted, (\d+) rejected, smallest (\S+), "
        r"cap (\S+); (\d+) evaluations; (\d+) inverses: (\d+) Newton iterations, (\d+) "
        r"tangents afresh \((\d+) reused\)", record.getMessage())
    steps, rejected, smallest, cap, evaluations, total, newton, fresh, reused = found.groups()
    assert (int(steps), int(rejected)) == (len(path) - 1, 0)
    xis = [t for t, _, _ in path]
    assert float(smallest) == pytest.approx(min(np.diff(xis)), rel=1e-3)
    # every kernel evaluation and every inverse the path made
    assert int(evaluations) == sum(counts.values())
    assert int(total) == int(newton) + int(fresh) == inverses["path"]
    # a tangent at each point that starts a step, the first one afresh (the
    # TDA seed needs no Newton iteration) and every later one reused
    assert (int(fresh), int(reused)) == (1, len(path) - 2)
    # the cap each path ran with: none by default, 1/xi-steps when given,
    # and at most OUTER_MAX_STEP on the Dicke outer leg
    assert float(cap) == 1.0
    for max_step, caps in ((1.0, (1.0, 0.1)), (0.25, (0.25, 0.1)), (0.05, (0.05, 0.05))):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gaudin"):
            solve_dicke_branch(M2, [0, 2], ContinuationPolicy(max_step=max_step))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("path ")]
        assert [re.search(r"^path (\S+ -> \S+) .*, cap (\S+);", line).groups()
                for line in lines] == [("0 -> 1", "%g" % caps[0]), ("1 -> 0", "%g" % caps[1])]


@pytest.mark.parametrize("pattern, xi_start", [([0, 2], 1.0), ([2, 2], 0.25)])
def test_dicke_branch_trace_runs_from_xi_start_to_the_exact_limit(pattern, xi_start):
    final, report, trace = solve_dicke_branch(M2, pattern, xi_start=xi_start)
    xis = [p.xi for p in trace.path]
    # the outer leg lands on the contraction limit itself, whose one point is
    # the final one and carries the polish on the Dicke equations
    assert xis[0] == xi_start and xis[-1] == 0.0
    assert all(b < a for a, b in zip(xis, xis[1:]))
    assert trace.status == "converged"
    assert trace.final.rapidities == final
    assert trace.final.max_abs == report.max_abs <= 1e-10


@pytest.mark.parametrize("spec", [
    JC,
    DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 1),
    DickeSpec((0.5, 1.5), (0.5, 0.5), 0.3, 1.0, 1),
    DickeSpec((0.874, 1.054, 1.069), (0.5, 0.5, 0.5), 0.146, 0.916, 1),
    DickeSpec((0.6, 1.1, 1.7), (1.5, 0.5, 1.0), 0.2, 1.2, 1),
])
def test_every_converged_dicke_path_lands_on_the_handoff(spec):
    # t + step with step = |t_end - t| can miss t_end by an ulp: every path
    # must land on xi = 0 exactly, once, with the polish's residual there
    n_roots = len(solver.tda_roots_dicke(spec))
    converged = 0
    for xi_start in (1.0, 0.5, 0.25):
        for pattern in combinations_with_replacement(range(n_roots), spec.n_excitations):
            try:
                _, _, trace = solve_dicke_branch(spec, list(pattern), xi_start=xi_start)
            except (ConvergenceError, SingularJacobianError, CollisionError):
                continue
            converged += 1
            xis = [p.xi for p in trace.path]
            assert xis[0] == xi_start and xis[-1] == 0.0
            assert all(b < a for a, b in zip(xis, xis[1:]))
            assert trace.final.max_abs <= 1e-10
    assert converged >= 2 * n_roots


JC_LIKE = [DickeSpec((1.0,), (0.5,), 0.3, 1.1, n) for n in (1, 3)]


@pytest.mark.parametrize("spec, patterns", [
    pytest.param(spec, list(combinations_with_replacement(range(2), spec.n_excitations)),
                 id=f"jc-n{spec.n_excitations}") for spec in JC_LIKE
] + [pytest.param(M2, [(0, 0), (0, 2)], id="m2")])
def test_the_dicke_limit_continues_back_up_to_the_outer_legs_start(spec, patterns):
    # xi = 0 is a point of the single-copy family like any other: from the
    # final point the path runs back up to xi_start and meets the outer leg's
    # first point (M2 (2, 2) from 0.25 does not: along real xi, the family's
    # states are not in one-to-one correspondence with the Dicke ones)
    def family(xi, w):
        return rg_core.deformed_dicke_residual(spec, xi, w)

    converged = 0
    for xi_start in (1.0, 0.25):
        for pattern in patterns:
            try:
                final, _, trace = solve_dicke_branch(spec, list(pattern), xi_start=xi_start)
            except (ConvergenceError, SingularJacobianError, CollisionError):
                continue
            converged += 1
            path, status = solver._continue_path(family, 0.0, xi_start, final.as_array(),
                                                 ContinuationPolicy())
            assert status == "converged" and path[-1][0] == xi_start
            # as multisets: the final point lists its rapidities in its own order
            dist = np.abs(path[-1][1][:, None] - trace.path[0].rapidities.as_array())
            assert np.max(dist.min(axis=0)) <= 1e-9 and np.max(dist.min(axis=1)) <= 1e-9
    # at N = 3 every pattern escapes from xi_start = 1 and converges from 0.25
    assert converged >= 4


def test_a_dicke_branch_lists_its_rapidities_in_one_order():
    # the seeds follow the pattern's order, the answer does not: by real part,
    # the member of a conjugate pair with the positive imaginary part first
    spec = DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.4, 3)
    answers = [solve_dicke_branch(spec, pattern, xi_start=0.25)[0].as_array()
               for pattern in ([0, 1, 1], [1, 1, 0], [1, 0, 1])]
    first = answers[0]
    assert np.all(np.diff(first.real) > -1e-12) and abs(first[1].imag) > 1e-3
    assert first[1].imag > 0.0 and abs(first[2] - np.conj(first[1])) <= 1e-12
    for x in answers[1:]:
        assert np.max(np.abs(x - first)) <= 1e-12


def test_single_copy_continuation_reaches_jc_roots():
    branches = enumerate_dicke_branches(JC)
    vals = sorted(b["rapidities"].values[0].real for b in branches)
    assert vals == pytest.approx([0.5, 1.5], abs=1e-10)
    for b in branches:
        assert b["report"].max_abs < 1e-10


def test_single_branch_occupation_targeting():
    final, report, trace = solve_dicke_branch(JC, [1])
    assert final.values[0].real == pytest.approx(1.5, abs=1e-10)
    assert trace.final.xi == 0.0


def test_dicke_branch_final_point_checked_against_exact_limit():
    final, report, trace = solve_dicke_branch(JC, [0])
    exact = dicke_rg_residual(JC, final, jacobian=False)
    assert exact.max_abs < 1e-10


def test_enumerate_m2_finds_all_four_states():
    spec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)
    branches = enumerate_dicke_branches(spec)
    assert len(branches) == 4
    sums = [np.sum(b["rapidities"].as_array().real) for b in branches]
    assert sums == sorted(sums)
    # known structure: two conjugate pairs, one real split pair, one real pair
    gs = branches[0]["rapidities"].as_array()
    # closed under conjugation: every conjugate lies on some rapidity (an
    # order-free check; sorting flips on real parts equal to rounding)
    assert all(np.min(np.abs(gs - np.conj(v))) < 1e-10 for v in gs)
    assert abs(gs[0].imag) > 1e-3


def test_tavis_cummings_branches():
    tc = DickeSpec((1.0,), (1.0,), 0.5, 1.0, 1)
    branches = enumerate_dicke_branches(tc)
    vals = sorted(b["rapidities"].values[0].real for b in branches)
    assert vals == pytest.approx(
        [1.0 - 1.0 / np.sqrt(2.0), 1.0 + 1.0 / np.sqrt(2.0)], abs=1e-10
    )


def test_tda_roots_dicke_are_zeros_of_the_decoupled_extended_family():
    for spec in (DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 2),
                 DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3)):
        for xi in solver.XI_START_LADDER:
            roots = solver.tda_roots_dicke(spec, xi)
            # m poles and a linear term: one root below each level and one above
            assert len(roots) == spec.m + 1
            assert all(a < b for a, b in zip(roots, roots[1:]))
            for x in roots:
                rep = rg_core.extended_dicke_residual(
                    spec, 0.0, RapiditySet((x,), DICKE_X), xi=xi)
                assert abs(rep.residuals[0]) <= 1e-12 * abs(rep.jacobian[0, 0])


def _brentq_roots(row):
    """The secular roots by the same bracketing scan, each bracket closed by
    scipy's brentq at xtol 1e-14 and rtol 8.9e-16."""
    from scipy.optimize import brentq

    def f(w):
        return rg_core.secular_row(row, w)[0]

    poles = np.sort(row.e)
    outer = 50.0 * max(poles[-1] - poles[0], 1.0)
    edges = np.concatenate([[poles[0] - outer], poles, [poles[-1] + outer]])
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-9 * max(abs(lo), abs(hi), 1.0)
        ts = np.linspace(lo + margin, hi - margin, 400)
        vals = f(ts)
        for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
            roots.append(brentq(f, ts[i], ts[i + 1], xtol=1e-14, rtol=8.9e-16))
    return sorted(roots)


SECULAR_ROWS = [
    pytest.param(spec.xi_family.row(xi), id=f"{name}-xi{xi}")
    for name, spec in [
        ("rg4", RG4),
        ("rational-spin1", ModelSpec(LevelSet.from_spins((1.0, 2.0, 3.0), (1.0,) * 3),
                                     RATIONAL, 2, -0.1)),
        ("rational-m12", ModelSpec(LevelSet.from_spins(tuple(0.6 + 0.07 * k for k in range(12)),
                                                       (0.5,) * 12), RATIONAL, 6, -0.12)),
        ("trigonometric-spin1-3half", ModelSpec(LevelSet.from_spins((0.7, 1.5), (1.0, 1.5)),
                                                TRIGONOMETRIC, 3, -0.12)),
    ]
    for xi in (0.0, 0.5, 1.0)
] + [
    pytest.param(rg_core.tau_family(spec, xi).ends[0], id=f"{name}-xi{xi}")
    for name, spec in [
        ("dicke-m3", DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 2)),
        ("dicke-spin1", DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3)),
    ]
    for xi in (1.0, 0.25, 0.04)
]


@pytest.mark.parametrize("row", SECULAR_ROWS)
def test_real_roots_match_brentq(row):
    roots = np.array(solver._real_roots(row))
    reference = np.array(_brentq_roots(row))
    assert len(roots) == len(reference) > 0
    assert np.all(np.abs(roots - reference) <= 1e-13 * np.abs(reference))


@pytest.mark.parametrize("spec, collective", [
    # one level of degeneracy 100: the secular root sits at -99, and the
    # state's rapidity solves 1 - 49.5/(1 - w) = 0
    pytest.param(ModelSpec(LevelSet.from_degeneracies((1.0,), (100.0,)), RATIONAL, 1, -1.0),
                 -48.5, id="one-level-omega100"),
    # 1 - 30 (1/2/(0.8 - w) + 1/2/(1.2 - w)) = 0, i.e. w^2 + 28 w - 29.04 = 0
    pytest.param(ModelSpec(LevelSet.from_spins((0.8, 1.2), (0.5, 0.5)), RATIONAL, 1, -30.0),
                 (-28.0 - np.sqrt(900.16)) / 2.0, id="two-levels-g-30"),
])
def test_strong_attraction_starts_from_the_collective_root(spec, collective):
    # the lowest secular root lies far below the levels, more than 50 times
    # their span; the default pattern starts there and reaches the collective state
    roots = solver._real_roots(spec.xi_family.ends[0])
    assert roots[0] < min(spec.levels.etas) - 50.0
    final, _, _ = solve_rg(spec)
    # the residual is met to 1e-10 on a row whose slope is about 1e-2
    assert final.values[0] == pytest.approx(collective, rel=1e-10)


WEAK = LevelSet.from_spins((0.25, 0.75, 1.0), (0.5, 0.5, 1.0))


@pytest.mark.parametrize("kind", [RATIONAL, TRIGONOMETRIC])
@pytest.mark.parametrize("g", [1e-20, -1e-20])
def test_weak_coupling_roots_lie_on_their_side_of_each_pole(kind, g):
    # a root within round-off of its pole: the eigensolve may put it on
    # either side, and the bracket comes from its rank, not its value; the
    # secular row 1 + sum_i n_i/(e_i - w) puts root k just above pole k when
    # g > 0 (n > 0) and just below it when g < 0
    roots = solver._real_roots(ModelSpec(WEAK, kind, 1, g).xi_family.ends[0])
    poles = list(WEAK.etas)
    assert len(roots) == 3
    for k, root in enumerate(roots):
        if g > 0:
            assert poles[k] < root < (poles[k + 1] if k < 2 else np.inf)
        else:
            assert (poles[k - 1] if k else -np.inf) < root < poles[k]
        assert abs(root - poles[k]) <= 1e-15


@pytest.mark.parametrize("kind", [RATIONAL, TRIGONOMETRIC])
@pytest.mark.parametrize("g", [1e-8, -1e-8])
def test_weak_coupling_roots_match_mpmath(kind, g):
    mpmath = pytest.importorskip("mpmath")
    row = ModelSpec(WEAK, kind, 1, g).xi_family.ends[0]
    roots = solver._real_roots(row)
    assert len(roots) == 3
    with mpmath.workdps(40):
        def secular(w):
            return (mpmath.mpf(row.base) + mpmath.mpf(row.lin) * w
                    + sum(mpmath.mpf(n) / (mpmath.mpf(e) - w) for e, n in zip(row.e, row.n)))

        for root in roots:
            # secant from two points 1e-14 apart, both within round-off of
            # the root and far inside its 1e-8 distance from the pole
            start = mpmath.mpf(root)
            ref = mpmath.findroot(secular, (start, start * (1 + mpmath.mpf("1e-14"))))
            assert abs(root - float(ref)) <= 1e-15 * abs(float(ref))


def test_a_secular_row_with_zero_base_has_only_its_finite_roots():
    # trigonometric row base = 1 - g sum_i Omega_i eta_i = 1 - 0.5 (0.5 + 1.5) = 0
    spec = ModelSpec(LevelSet.from_spins((0.25, 0.75), (0.5, 0.5)), TRIGONOMETRIC, 1, 0.5)
    row = spec.xi_family.ends[0]
    assert row.base == 0.0 and row.n.tolist() == [1.0625, 1.5625]
    # sum_i n_i/(e_i - u) = 0 at u = (0.75 n_1 + 0.25 n_2)/(n_1 + n_2) = 19/42
    assert solver._real_roots(row) == pytest.approx([19.0 / 42.0], rel=1e-15)


def test_a_near_critical_trigonometric_row_gains_a_far_root():
    # g sum_i Omega_i eta_i = 1.000001: base = -1e-6, and the row gains a
    # root near sum_i n_i / base
    spec = ModelSpec(LevelSet.from_spins((0.5, 1.0), (0.5, 0.5)), TRIGONOMETRIC, 1,
                     0.3333336667)
    far, finite = solver._real_roots(spec.xi_family.ends[0])
    assert far == pytest.approx(-2.1664513808e6, rel=1e-9)
    assert 0.5 < finite < 1.0
    # base(xi) crosses 0 along the path from the far root, which stalls
    with pytest.raises(ConvergenceError):
        solve_rg(spec)
    # the finite root reaches the state the default reached before the far
    # root was found
    final, _, _ = solve_rg(spec, occupation=[1])
    assert final.values[0] == pytest.approx(0.62678907141414208, rel=1e-12)


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import gaudin.cli
after_import = scipy_modules()
codes = [gaudin.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import": after_import, "main": scipy_modules(), "codes": codes,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_the_program_loads_no_scipy_module(tmp_path):
    dicke_spec = tmp_path / "dicke.spec"
    dicke_spec.write_text("model = dicke\nepsilons = [0.8, 1.3]\nspins = [0.5, 1.0]\n"
                          "G = 0.2\nhbar_omega = 1.0\nN = 2\n")
    rg_spec = tmp_path / "rg.spec"
    rg_spec.write_text("model = rg\nkind = rational\netas = [1.0, 2.0, 3.0]\n"
                       "spins = [0.5, 0.5, 0.5]\ng = -0.1\nN = 1\n")
    calls = [["--mode", mode, "--spec", str(spec), "--out", str(tmp_path / f"{i}.out")]
             for i, (mode, spec) in enumerate([("ed-spectrum", dicke_spec),
                                               ("solve-dicke", dicke_spec),
                                               ("ed-spectrum", rg_spec)])]
    # a subprocess: the pytest process itself imports scipy (the brentq
    # reference, the test-only dependency), and a fresh one shows what the
    # program alone loads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(calls)],
                         capture_output=True, text=True, env=env, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["import"] == []
    assert result["main"] == []
    # nor numpy.ma, which np.unique's masked-array check imports
    assert result["numpy.ma"] is False


def _bethe_vector(spec, rapidities, basis):
    """prod_a sum_i X(eta_i, x_a) S_i^+ on the lowest-weight state, unit norm."""
    vec = np.zeros(basis.total_dim, dtype=complex)
    vec[0] = 1.0
    for x in rapidities.values:
        create = OperatorExpression(tuple(
            (algebra.pair_x(spec.kind, eta, x), (("sp", i),))
            for i, eta in enumerate(spec.levels.etas)
        ))
        vec = ed_oracle.realize(create, basis).coo @ vec
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("spec", [
    pytest.param(RG4, id="rg4"),
    pytest.param(ModelSpec(LevelSet.from_spins((1.0, 2.0, 3.0), (1.0, 1.0, 1.0)),
                           RATIONAL, 2, -0.1), id="rational-spin1"),
    pytest.param(ModelSpec(LevelSet.from_spins((0.7, 1.5), (1.0, 1.5)),
                           TRIGONOMETRIC, 3, -0.12), id="trigonometric-spin1-3half"),
    pytest.param(ONE_LEVEL, id="one-spin1-level"),
])
def test_rg_repeated_roots_reach_every_state(spec):
    charges = ed_oracle.realize_rg_charges(spec, 1.0)
    basis = charges[0].basis
    n_roots = len(solver._real_roots(spec.xi_family.ends[0]))
    states = []
    for pattern in combinations_with_replacement(range(n_roots), spec.n_excitations):
        try:
            final, _, _ = solve_rg(spec, occupation=list(pattern))
        except ConvergenceError:
            continue
        vec = _bethe_vector(spec, final, basis)
        eigenvalues = []
        for op in charges:
            q = np.vdot(vec, op.coo @ vec).real
            assert np.linalg.norm(op.coo @ vec - q * vec) <= 1e-9
            eigenvalues.append(q)
        if not any(np.allclose(eigenvalues, e, atol=1e-7) for e in states):
            states.append(eigenvalues)
    assert len(states) == len(basis.sector_indices(spec.n_excitations))


def test_eigencheck_of_a_near_zero_charge_eigenvalue():
    # the third charge has eigenvalue -3.3e-3 on this state; relative to |Q v|
    # its residual read 5.1e-9, relative to the charge's scale it is round-off
    final, _, _ = solve_rg(RG4, occupation=[0, 1])
    charges = ed_oracle.realize_rg_charges(RG4, 1.0)
    vec = _bethe_vector(RG4, final, charges[0].basis)
    ray, rel = ed_oracle.eigencheck(charges[2], vec)
    assert abs(ray) < 1e-2
    assert rel <= 1e-10


def test_ill_conditioned_reads_the_condition_number():
    rng = np.random.default_rng(2)
    for scale in (1e-3, 1e-11, 1e-13, 1e-15):
        jac = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jac[2] = jac[0] + scale * jac[1]
        for limit in (1e12, 1e14):
            assert solver._ill_conditioned(jac, limit) == (np.linalg.cond(jac) > limit)
    assert solver._ill_conditioned(np.zeros((2, 2)), 1e14)
    assert solver._ill_conditioned(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e14)


def _svd_matrix(n, log_cond, seed):
    """A complex U diag(s) V^H with Haar-like U, V and singular values spread
    log-uniformly from 1 down to 10^-log_cond."""
    rng = np.random.default_rng(seed)

    def unitary():
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return np.linalg.qr(z)[0]

    s = np.logspace(0.0, -log_cond, n)
    return (unitary() * s) @ unitary().conj().T


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 30), log_cond=st.floats(9.0, 17.0), seed=st.integers(0, 2**32 - 1))
def test_inverse_refuses_what_the_svd_refuses(n, log_cond, seed):
    jac = _svd_matrix(n, log_cond, seed)
    for limit in (1e12, 1e14):
        assert (solver._inverse(jac, limit) is None) == solver._ill_conditioned(jac, limit)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), log_cond=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_inverse_step_matches_solve_on_well_conditioned_jacobians(n, log_cond, seed):
    jac = _svd_matrix(n, log_cond, seed)
    r = np.array([1.0, 1j]) @ np.random.default_rng(seed + 1).normal(size=(2, n))
    step = solver._inverse(jac, 1e14) @ r
    reference = np.linalg.solve(jac, r)
    assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("jac", [
    pytest.param(np.zeros((3, 3), dtype=complex), id="zero"),
    pytest.param(np.array([[1.0, 2.0], [2.0, 4.0]]), id="rank-deficient"),
    pytest.param(np.array([[3.0 - 4.0j]]), id="1x1"),
    pytest.param(np.array([[0.0j]]), id="1x1-zero"),
    # near-singular: the inverse's entries, squared, overflow
    pytest.param(np.diag([1.0, 1e-200]).astype(complex), id="inverse-overflows"),
    pytest.param(np.diag([1e154 + 1e154j, 1e-154]), id="both-overflow"),
    pytest.param(np.diag([1.3e154, 1e-154]), id="product-at-the-top"),
])
def test_inverse_agrees_with_the_svd_on_edge_matrices(jac):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for limit in (1e12, 1e14):
            assert (solver._inverse(jac, limit) is None) == solver._ill_conditioned(jac, limit)


def _family_reports(spec, t, xi):
    """The reports of the three homotopy families at t (extended Dicke at
    tau = t and xi, deformed Dicke at xi = t)."""
    w = np.array([0.4 + 0.3j, 0.9 - 0.2j, 1.6 + 0.01j])
    rg = ModelSpec(LevelSet.from_spins((0.7, 1.2, 2.0), (1.0, 0.5, 1.5)), TRIGONOMETRIC, 3, -0.12)
    return [rg_core.deformed_rg_residual(rg, t, w),
            rg_core.extended_dicke_residual(spec, t, w, xi=xi),
            rg_core.deformed_dicke_residual(spec, t, w)]


@pytest.mark.parametrize("first", [np.float64, float])
def test_family_reports_keep_python_float_bits(first):
    # the rows a spec keeps must not depend on whether a numpy or a Python
    # float came first: numpy scalars divide complex numbers differently
    spec = DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3)
    reference = _family_reports(DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3), 0.3, 0.5)
    for t, xi in ((first(0.3), first(0.5)), (0.3, 0.5), (np.float64(0.3), np.float64(0.5))):
        for report, ref in zip(_family_reports(spec, t, xi), reference):
            for got, want in ((report.residuals, ref.residuals),
                              (report.jacobian, ref.jacobian), (report.rate, ref.rate)):
                assert got.dtype == complex and got.tobytes() == want.tobytes()
    # one set of extended rows per xi, keyed by Python floats: 0.5, and 1.0,
    # whose tau = 1 row is the deformed Dicke family's xi = 1 end
    assert list(spec._tau_families) == [0.5, 1.0]
    assert all(type(xi) is float for xi in spec._tau_families)


def _recorded_dtypes(monkeypatch, cast=None):
    """Patch rg_core._evaluate to record the dtype of every rapidity array it
    gets, after `cast` when one is given; returns the growing list."""
    dtypes, evaluate = [], rg_core._evaluate

    def recording(row, w, jacobian, rate=None):
        w = np.asarray(w) if cast is None else np.asarray(w, dtype=cast)
        dtypes.append(w.dtype)
        return evaluate(row, w, jacobian, rate)

    monkeypatch.setattr(rg_core, "_evaluate", recording)
    return dtypes


@pytest.mark.parametrize("case", ["rg", "dicke"])
def test_a_real_path_in_float64_matches_the_same_path_in_complex(monkeypatch, case):
    # a real seed stays real, so its path runs in float64 end to end; run
    # through a kernel that casts to complex, the same path reads the same
    # points to a few ulps of the largest rapidity, the scale of a Newton
    # step's round-off (complex and real division round differently)
    def run():
        if case == "rg":
            return solve_rg(RG4)[2]
        return solve_dicke_branch(M2, [0, 2])[2]

    with monkeypatch.context() as patch:
        dtypes = _recorded_dtypes(patch)
        real = run()
    # on the RG pipeline, the independent check of the final point reads its
    # RapiditySet, whose values are complex
    assert Counter(map(str, dtypes)) == (
        {"float64": len(dtypes) - 1, "complex128": 1} if case == "rg" else {"float64": len(dtypes)})
    _recorded_dtypes(monkeypatch, cast=complex)
    cplx = run()
    assert real.status == cplx.status == "converged"
    assert [p.xi for p in real.path] == [p.xi for p in cplx.path]
    eps = np.finfo(float).eps
    for a, b in zip(real.path, cplx.path):
        a, b = a.rapidities.as_array(), b.rapidities.as_array()
        # a float64 point is printed with a +0 imaginary part, never -0
        assert not np.signbit(a.imag).any() and not a.imag.any()
        assert np.max(np.abs(a - b)) <= 4.0 * eps * np.max(np.abs(b))


def test_a_complex_split_and_the_evb_polish_stay_complex(monkeypatch):
    # two rapidities on the secular root of a spin-1 level split into a
    # conjugate pair, and an EVB polish from roots with imaginary parts:
    # both keep complex arithmetic and converge
    dtypes = _recorded_dtypes(monkeypatch)
    _, seeds = solver._cluster_seeds(ONE_LEVEL.xi_family, solve_tda(ONE_LEVEL).as_array())
    assert np.all(np.abs(seeds.imag) > 1e-3)
    trace = continue_in_xi(ONE_LEVEL, ContinuationPolicy(), solve_tda(ONE_LEVEL))
    assert trace.status == "converged"
    final = trace.final.rapidities.as_array()
    assert final[0] == np.conj(final[1]) and abs(final[0].imag) > 1e-2
    assert dtypes and {str(d) for d in dtypes} == {"complex128"}
    # the EVB endpoints are evaluated in one batch per dtype: the roots of P
    # with an imaginary part in complex128, those where round-off left none
    # in float64; on M2 every endpoint is accepted there
    groups, exact = [], rg_core.dicke_rg_residual

    def batched(spec, w, jacobian=True):
        groups.append((str(w.dtype), len(w), bool(np.all(np.any(w.imag, axis=1)))))
        return exact(spec, w, jacobian)

    monkeypatch.setattr(rg_core, "dicke_rg_residual", batched)
    branches = enumerate_dicke_branches(M2)
    assert all("evb_start" in b for b in branches)
    assert len(branches) == M2.sector_dimension() == 4
    assert groups == [("float64", 1, False), ("complex128", 3, True)]
    monkeypatch.setattr(rg_core, "dicke_rg_residual", exact)
    # with the batch accepting none, each polish runs in the dtype of its
    # start, as newton_solve takes it
    polishes, polish = [], solver._polish

    def recorded(residual_fn, w0, tol):
        dtypes.clear()
        out = polish(residual_fn, w0, tol)
        polishes.append((bool(np.any(np.imag(w0))), {str(d) for d in dtypes}))
        return out

    monkeypatch.setattr(solver, "_polish", recorded)
    monkeypatch.setattr(solver, "_first_evaluation", lambda spec, roots, tol: {})
    polished = enumerate_dicke_branches(M2)
    assert [b["rapidities"] for b in polished] == [b["rapidities"] for b in branches]
    assert len(polishes) == M2.sector_dimension()
    assert {cplx for cplx, _ in polishes} == {True, False}
    for cplx, seen in polishes:
        assert seen == ({"complex128"} if cplx else {"float64"})


def test_newton_takes_a_float64_start_as_it_is():
    def square(w, jacobian=True):
        return rg_core.ResidualReport(w * w - 4.0, float(np.max(np.abs(w * w - 4.0))),
                                      np.diag(2.0 * w))

    start = np.array([2.0, -2.0])
    values, _, iters = newton_solve(square, start)
    assert iters == 0 and values is start
    # each trial point is evaluated once and becomes the iterate
    seen = []

    def recording(w, jacobian=True):
        seen.append(w)
        return square(w)

    values, _, iters = newton_solve(recording, np.array([3.0, -1.5]))
    assert iters > 0 and values is seen[-1] and values.dtype == np.float64


@pytest.mark.parametrize("kind", [RATIONAL, TRIGONOMETRIC])
@pytest.mark.parametrize("g", [1e-20, -1e-20])
def test_weak_coupling_roots_are_the_doubles_nearest_the_root_on_its_side(kind, g):
    # each root lies about 1e-20 from its pole, far inside one ulp: the double
    # nearest it, among those on its side of the pole, is the pole's neighbour
    mpmath = pytest.importorskip("mpmath")
    row = ModelSpec(WEAK, kind, 1, g).xi_family.ends[0]
    roots = solver._real_roots(row)
    assert len(roots) == 3
    with mpmath.workdps(40):
        def secular(w):
            return (mpmath.mpf(row.base) + mpmath.mpf(row.lin) * w
                    + sum(mpmath.mpf(n) / (mpmath.mpf(e) - w) for e, n in zip(row.e, row.n)))

        for root, pole in zip(roots, WEAK.etas):
            # the root lies between the pole and the pole moved by 1e-16 to
            # its side: above the pole when g > 0, below it when g < 0
            side = mpmath.mpf(pole) + mpmath.mpf(np.sign(g)) * mpmath.mpf("1e-16")
            ref = mpmath.findroot(secular, (mpmath.mpf(pole) + (side - pole) * 1e-12, side),
                                  solver="anderson")
            nearest = float(ref)
            if nearest == pole:
                nearest = float(np.nextafter(pole, np.sign(g) * np.inf))
            assert (nearest - pole) * g > 0.0
            assert root == nearest
