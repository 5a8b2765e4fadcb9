import itertools

import numpy as np
import pytest

from gaudin import dicke, ed_oracle, rg_core, solver
from gaudin.algebra import grid_label, unitary_xi
from gaudin.dicke import (
    BetheProductState,
    bethe_coefficients,
    build_deformed_charge0,
    build_dicke_charge,
    build_dicke_hamiltonian,
    contraction_grid_xi,
    realize_deformed_charge0,
)
from gaudin.errors import (
    CutoffError,
    DegenerateLevelError,
    RepresentationError,
    ValidationError,
)
from gaudin.rg_core import DICKE_X, RG_ETA, DickeSpec, RapiditySet

JC = DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)
M2 = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)


def test_hamiltonian_term_count_and_coefficients():
    spec = DickeSpec((0.5, 1.5), (0.5, 0.5), 0.3, 1.0, 1)
    ham = build_dicke_hamiltonian(spec)
    assert len(ham.terms) == 1 + 2 + 4
    assert ham.coefficient(("bdag", None), ("sm", 0)) == pytest.approx(0.3)
    assert ham.coefficient(("bdag", None), ("sm", 1)) == pytest.approx(0.3)
    assert ham.coefficient(("b", None), ("sp", 0)) == pytest.approx(0.3)
    assert ham.coefficient(("sz", 1),) == pytest.approx(1.5)


def test_hamiltonian_free_limit():
    spec = DickeSpec((1.0,), (0.5,), 0.0, 1.0, 1)
    ham = build_dicke_hamiltonian(spec)
    assert ham.coefficient(("n", None)) == pytest.approx(1.0)
    assert ham.coefficient(("sz", 0)) == pytest.approx(1.0)
    assert ham.coefficient(("bdag", None), ("sm", 0)) == 0


def test_charge_single_level_reduction():
    ham = build_dicke_hamiltonian(JC)
    r1 = build_dicke_charge(JC, 1)
    assert r1.coefficient(("sz", 0)) == pytest.approx(JC.hbar_omega - 1.0)
    assert r1.coefficient(("b", None), ("sp", 0)) == pytest.approx(-0.5)
    # H - hw R1 keeps only the photon-number and level terms
    diff_keys = {fs for _, fs in ham.terms} ^ {fs for _, fs in r1.terms}
    assert diff_keys == {(("n", None),)}


def test_charge_cross_term_coefficient():
    spec = DickeSpec((1.0, 2.0), (0.5, 0.5), 0.5, 1.0, 1)
    r1 = build_dicke_charge(spec, 1)
    # 2 G^2 / (eps_2 - eps_1) = 0.5, split over the two hermitian halves
    assert r1.coefficient(("sp", 0), ("sm", 1)) == pytest.approx(0.25)
    assert r1.coefficient(("sz", 0), ("sz", 1)) == pytest.approx(0.5)


def test_charge_index_zero_is_hamiltonian():
    assert build_dicke_charge(JC, 0).terms == build_dicke_hamiltonian(JC).terms


def test_charge_rejects_degenerate_levels():
    spec = DickeSpec((1.0, 2.0), (0.5, 0.5), 0.5, 1.0, 1)
    object.__setattr__(spec, "epsilons", (1.0, 1.0))
    with pytest.raises(DegenerateLevelError):
        build_dicke_charge(spec, 1)


def test_charges_commute_with_hamiltonian_and_each_other():
    spec = DickeSpec((1.0, 2.0), (0.5, 0.5), 0.5, 1.0, 1)
    basis = ed_oracle.HilbertBasis.dicke(spec, 12)
    ops = [
        ed_oracle.restrict_to_closed_sectors(ed_oracle.realize(expr, basis))
        for expr in (
            build_dicke_hamiltonian(spec),
            build_dicke_charge(spec, 1),
            build_dicke_charge(spec, 2),
        )
    ]
    for a, b in itertools.combinations(ops, 2):
        assert ed_oracle.commutator_norm(a, b) < 1e-10


def test_charge_sum_relation():
    # hw * (R1 + R2) + H equals hw * (M - sum s_i): diagonal, exactly
    spec = DickeSpec((1.0, 2.0), (0.5, 0.5), 0.5, 1.0, 1)
    basis = ed_oracle.HilbertBasis.dicke(spec, 8)
    total = ed_oracle.realize(build_dicke_hamiltonian(spec), basis).matrix.copy()
    total += ed_oracle.realize(build_dicke_charge(spec, 1), basis).matrix
    total += ed_oracle.realize(build_dicke_charge(spec, 2), basis).matrix
    expect = spec.hbar_omega * (basis.excitation_numbers() - sum(spec.spins))
    assert np.max(np.abs(total - np.diag(expect))) == 0.0


def test_deformed_charge0_coefficient_limits():
    # the Dicke couplings emerge from the deformed charge bookkeeping:
    # hw * (g/2) X_0k sqrt(2 s0) -> G and the S0 coefficient is eps_k exactly
    for xi in (0.5, 1e-3, 1e-6):
        expr, s0 = build_deformed_charge0(JC, xi)
        lam, g, _ = rg_core.contraction_scales(JC, xi)
        coupling = JC.hbar_omega * expr.coefficient(("Adag", None), ("sm", 0))
        assert coupling * np.sqrt(2.0 * s0) == pytest.approx(
            JC.coupling_G, rel=2.0 * xi
        )
        level = -JC.hbar_omega * expr.coefficient(("A0", None), ("sz", 0)) * s0
        assert level == pytest.approx(JC.epsilons[0], rel=1e-12)


def test_realize_deformed_charge0_needs_grid():
    with pytest.raises(RepresentationError):
        realize_deformed_charge0(JC, 0.3, 2)


def test_deformed_charge0_matrix_converges_linearly_in_xi():
    # measured convergence rate of hw R0(xi_n) to the Dicke Hamiltonian after
    # removing the divergent constant: one power of xi (all deviations are
    # even in the sqrt(xi)-scaled expansion parameter)
    cutoff = 6
    ham = ed_oracle.realize(
        build_dicke_hamiltonian(JC), ed_oracle.HilbertBasis.dicke(JC, cutoff)
    ).matrix
    devs = []
    xis = []
    for k in (10, 110, 1110):
        xi = contraction_grid_xi(2.0, k)
        s0 = dicke.deformed_copy_label(xi, 2.0)
        r0 = realize_deformed_charge0(JC, xi, cutoff).matrix
        r0 = r0 + JC.hbar_omega * s0 * np.eye(r0.shape[0])
        xis.append(xi)
        devs.append(np.linalg.norm(r0 - ham) / np.linalg.norm(ham))
    slope = np.polyfit(np.log(xis), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    assert devs[-1] < 1e-3


def test_grid_xi_values():
    assert contraction_grid_xi(2.0, 0) == pytest.approx(1.0)
    assert contraction_grid_xi(2.0, 1) == pytest.approx(0.5)
    assert dicke.deformed_copy_label(contraction_grid_xi(2.0, 5), 2.0) == pytest.approx(3.0)


@pytest.mark.parametrize("omega0", [1.0, 2.0])
def test_copy_label_is_the_levels_deformation_map(omega0):
    # the copy is a level with s(1) = Omega = omega0/4: its grid is the unitary
    # grid of Omega, and s0(xi) is its grid label Omega + k/2, which
    # deformed_copy_label reproduces to rounding
    big = omega0 / 4.0
    for k in range(201):
        xi = contraction_grid_xi(omega0, k)
        assert xi == unitary_xi(big, k)
        label = dicke.deformed_copy_label(xi, omega0)
        assert grid_label(big, big, xi) == big + round(2 * (label - big)) / 2


def test_bethe_coefficients_single_factor():
    state = BetheProductState(JC, RapiditySet((0.3,), DICKE_X))
    v, basis = bethe_coefficients(state, 2)
    nums = basis.excitation_numbers()
    # amplitudes -G/(eps - x) on |n=0, mu=+1/2> (index 0*2 + 1) and 1 on
    # |n=1, mu=-1/2> (index 1*2 + 0), scaled to unit norm
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    assert list(nz) == [1, 2]
    assert v[1] / v[2] == pytest.approx(-0.5 / (1.0 - 0.3))
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert all(nums[i] == 1 for i in nz)


def test_bethe_unit_norm_is_eigenvector():
    state = BetheProductState(JC, RapiditySet((0.5,), DICKE_X))
    v, basis = bethe_coefficients(state, 6)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    ham = ed_oracle.realize(build_dicke_hamiltonian(JC), basis)
    ray, rel = ed_oracle.eigencheck(ham, v)
    assert ray == pytest.approx(0.0, abs=1e-12)
    assert rel < 1e-12


def test_eigencheck_scales_by_the_operator_at_a_zero_eigenvalue():
    # the E = 0 ground state one ulp off: |Ov - rho v| is round-off, and so is
    # |Ov|, which made the old quotient read 1
    x = np.nextafter(0.5, 1.0)
    v, basis = bethe_coefficients(BetheProductState(JC, RapiditySet((x,), DICKE_X)), 8)
    ham = ed_oracle.realize(build_dicke_hamiltonian(JC), basis)
    ray, rel = ed_oracle.eigencheck(ham, v)
    assert abs(ray) < 1e-15
    assert rel <= 1e-14


def test_eigencheck_does_not_depend_on_the_boson_cutoff():
    # a state with N excitations never reaches the high boson rows, whose
    # row sums grow with the cutoff: they must not scale its residual
    x = np.array([0.61, 1.07])  # not Bethe roots: a residual well above round-off
    state = BetheProductState(M2, RapiditySet(tuple(x), DICKE_X))
    rels = []
    for cutoff in (4, 200):
        v, basis = bethe_coefficients(state, cutoff)
        ham = ed_oracle.realize(build_dicke_hamiltonian(M2), basis)
        rels.append(ed_oracle.eigencheck(ham, v)[1])
    assert rels[0] > 1e-3
    assert rels[1] == pytest.approx(rels[0], rel=1e-12)


def test_bethe_free_limit_is_pure_fock():
    spec = DickeSpec((1.0,), (0.5,), 0.0, 1.0, 2)
    state = BetheProductState(spec, RapiditySet((0.3, 0.6), DICKE_X))
    v, basis = bethe_coefficients(state, 4)
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    assert len(nz) == 1
    assert basis.excitation_numbers()[nz[0]] == 2


def test_bethe_cutoff_too_small():
    state = BetheProductState(M2, RapiditySet((0.3, 0.6), DICKE_X))
    with pytest.raises(CutoffError):
        bethe_coefficients(state, 1)


def test_bethe_frame_and_collision_validation():
    with pytest.raises(ValidationError):
        BetheProductState(JC, RapiditySet((0.5,), RG_ETA))
    with pytest.raises(ValidationError):
        BetheProductState(JC, RapiditySet((1.0,), DICKE_X))


def test_solved_branches_are_simultaneous_eigenvectors():
    branches = solver.enumerate_dicke_branches(M2)
    cutoff = 14
    basis = ed_oracle.HilbertBasis.dicke(M2, cutoff)
    ops = [ed_oracle.realize(build_dicke_hamiltonian(M2), basis)]
    ops += [ed_oracle.realize(build_dicke_charge(M2, i), basis) for i in (1, 2)]
    for b in branches:
        v, _ = bethe_coefficients(BetheProductState(M2, b["rapidities"]), cutoff)
        for op in ops:
            ray, rel = ed_oracle.eigencheck(op, v)
            assert rel < 1e-8


def test_energy_rapidity_relation():
    branches = solver.enumerate_dicke_branches(M2)
    cutoff = 14
    ham = ed_oracle.realize(
        build_dicke_hamiltonian(M2), ed_oracle.HilbertBasis.dicke(M2, cutoff)
    )
    for b in branches:
        v, _ = bethe_coefficients(BetheProductState(M2, b["rapidities"]), cutoff)
        ray, _ = ed_oracle.eigencheck(ham, v)
        expect = np.sum(b["rapidities"].as_array().real) + M2.vacuum_energy()
        assert ray == pytest.approx(expect, abs=1e-8)
