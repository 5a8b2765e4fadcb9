import numpy as np
import pytest

from gaudin import rg_core, solver
from gaudin.algebra import LevelSet, TRIGONOMETRIC
from gaudin.errors import (
    CollisionError,
    ConvergenceError,
    DomainError,
    InsufficientModesError,
    SelectionError,
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
    ALL_COPIES_DEFORMED,
    SINGLE_COPY_DICKE,
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


def test_policy_validation():
    with pytest.raises(DomainError):
        ContinuationPolicy(initial_step=1e-9, min_step=1e-8)
    with pytest.raises(DomainError):
        ContinuationPolicy(newton_tol=0.0)


def test_solve_tda_single_root():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    r = solve_tda(spec)
    assert r.values[0] == pytest.approx(1.5, abs=1e-12)


def test_solve_tda_repeated_root_symmetric_lift():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 2, 0.1)
    r = solve_tda(spec)
    vals = r.as_array()
    assert vals[0].real == pytest.approx(1.5, abs=1e-6)
    assert vals[1].real == pytest.approx(1.5, abs=1e-6)
    # symmetric complex split: set closed under conjugation, nonzero split
    assert np.max(np.abs(np.sort_complex(vals) - np.sort_complex(np.conj(vals)))) < 1e-15
    assert abs(vals[0] - vals[1]) > 1e-6


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


def test_continue_zero_length_path():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    seeds = solve_tda(spec)
    policy = ContinuationPolicy(xi_start=0.0, xi_end=0.0)
    trace = continue_in_xi(spec, policy, seeds, ALL_COPIES_DEFORMED)
    assert len(trace.path) == 1
    assert trace.path[0].rapidities.values == seeds.values


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


def test_continue_unknown_family():
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    seeds = solve_tda(spec)
    with pytest.raises(DomainError):
        continue_in_xi(spec, ContinuationPolicy(), seeds, "bogus")


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
