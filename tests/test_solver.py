from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from gaudin import algebra, ed_oracle, rg_core, solver
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
    XI_HANDOFF,
    ContinuationPolicy,
    continue_in_xi,
    enumerate_dicke_branches,
    newton_solve,
    solve_dicke_branch,
    solve_rg,
    solve_tda,
)

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


def test_solve_rg_m4_benchmark():
    final, trace = solve_rg(RG4)
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
    final, trace = solve_rg(RG4)
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

        def counted(t, w):
            counts[(t, tuple(w))] += 1
            return residual_at(t, w)

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


@pytest.mark.parametrize("pattern, xi_start", [([0, 2], 1.0), ([2, 2], 0.25)])
def test_dicke_branch_trace_runs_from_xi_start_to_the_exact_limit(pattern, xi_start):
    final, report, trace = solve_dicke_branch(M2, pattern, xi_start=xi_start)
    xis = [p.xi for p in trace.path]
    assert xis[0] == xi_start
    assert all(b < a for a, b in zip(xis, xis[1:]))
    assert xis[-2] == XI_HANDOFF and xis[-1] == 0.0
    assert trace.status == "converged"
    assert trace.final.rapidities == final
    assert report.max_abs <= 1e-10


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


def _bethe_vector(spec, rapidities, basis):
    """prod_a sum_i X(eta_i, x_a) S_i^+ on the lowest-weight state, unit norm."""
    vec = np.zeros(basis.total_dim, dtype=complex)
    vec[0] = 1.0
    for x in rapidities.values:
        create = OperatorExpression(tuple(
            (algebra.pair_x(spec.kind, eta, x), (("sp", i),))
            for i, eta in enumerate(spec.levels.etas)
        ))
        vec = ed_oracle.realize(create, basis).csr @ vec
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
    n_roots = len(solver._real_roots(rg_core.deformed_rg_params(spec, 0.0)))
    states = []
    for pattern in combinations_with_replacement(range(n_roots), spec.n_excitations):
        try:
            final, _ = solve_rg(spec, occupation=list(pattern))
        except ConvergenceError:
            continue
        vec = _bethe_vector(spec, final, basis)
        eigenvalues = []
        for op in charges:
            q = np.vdot(vec, op.csr @ vec).real
            assert np.linalg.norm(op.csr @ vec - q * vec) <= 1e-9
            eigenvalues.append(q)
        if not any(np.allclose(eigenvalues, e, atol=1e-7) for e in states):
            states.append(eigenvalues)
    assert len(states) == len(basis.sector_indices(spec.n_excitations))


def test_eigencheck_of_a_near_zero_charge_eigenvalue():
    # the third charge has eigenvalue -3.3e-3 on this state; relative to |Q v|
    # its residual read 5.1e-9, relative to the charge's scale it is round-off
    final, _ = solve_rg(RG4, occupation=[0, 1])
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


@pytest.mark.parametrize("first", [np.float64, float])
def test_extended_point_cache_keeps_python_float_bits(first):
    # the cached row must not depend on whether a numpy or a Python float
    # filled the cache: numpy scalars divide complex numbers differently
    spec = DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3)
    r = RapiditySet((0.4 + 0.3j, 0.9 - 0.2j, 1.6 + 0.01j), DICKE_X)
    params = rg_core.extended_dicke_params(spec, 0.3, 0.5)
    reference = rg_core._gaudin_residual(g_pair=params["g_site"] * 0.3, w=r.values,
                                         jacobian=True, **params)
    rg_core._extended_point.cache_clear()
    for tau in (first(0.3), 0.3, np.float64(0.3)):
        report = rg_core.extended_dicke_residual(spec, tau, r, xi=0.5)
        assert report.residuals.tobytes() == reference[0].tobytes()
        assert report.jacobian.tobytes() == reference[2].tobytes()
    p, _ = rg_core._extended_point(spec, 1.0, 0.5)
    reference = rg_core._gaudin_residual(g_pair=p["g_site"], w=r.values,
                                         jacobian=True, **p)
    report = rg_core.deformed_dicke_residual(spec, np.float64(0.5), r)
    assert report.residuals.tobytes() == reference[0].tobytes()
