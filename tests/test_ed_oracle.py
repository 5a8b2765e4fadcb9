import itertools

import numpy as np
import pytest

from gaudin import dicke, ed_oracle, rg_core
from gaudin.algebra import LevelSet, RATIONAL, TRIGONOMETRIC, build_gaudin, grid_index
from gaudin.dicke import OperatorExpression, build_dicke_hamiltonian, excitation_number
from gaudin.ed_oracle import (
    HilbertBasis,
    MatrixOperator,
    commutator_norm,
    eigencheck,
    realize,
    realize_rg_charges,
    sector_spectrum,
    spectrum,
)
from gaudin.errors import (
    BasisMismatchError,
    DomainError,
    RepresentationError,
    ValidationError,
)
from gaudin.rg_core import DickeSpec, ModelSpec

JC = DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)


def _op(symbol, level=None):
    return OperatorExpression(((1.0, ((symbol, level),)),))


def test_spin_half_matrices_and_commutator():
    basis = HilbertBasis.spins([0.5])
    sz = realize(_op("sz", 0), basis).matrix
    sp = realize(_op("sp", 0), basis).matrix
    sm = realize(_op("sm", 0), basis).matrix
    assert np.allclose(sz, np.diag([-0.5, 0.5]))
    assert np.allclose(sp @ sm - sm @ sp, 2.0 * sz)


def test_su2_commutators_general_spin():
    for s in (0.5, 1.0, 1.5, 2.0):
        basis = HilbertBasis.spins([s])
        sz = realize(_op("sz", 0), basis).matrix
        sp = realize(_op("sp", 0), basis).matrix
        sm = sp.conj().T
        assert np.max(np.abs(sp @ sm - sm @ sp - 2.0 * sz)) < 1e-12
        assert np.max(np.abs(sz @ sp - sp @ sz - sp)) < 1e-12


def test_boson_truncation_artifact_localized():
    basis = HilbertBasis.bosons([3])
    b = realize(_op("b"), basis).matrix
    bdag = realize(_op("bdag"), basis).matrix
    comm = b @ bdag - bdag @ b
    expect = np.eye(4)
    expect[3, 3] = -3.0  # truncation artifact at the top Fock row
    assert np.allclose(comm, expect)


def test_jc_sector_matrix_matches_hand_expansion():
    ham = realize(build_dicke_hamiltonian(JC), HilbertBasis.dicke(JC, 4))
    idx = ham.basis.sector_indices(1)
    block = ham.matrix[np.ix_(idx, idx)]
    # sector basis {|n=1, mu=-1/2>, |n=0, mu=+1/2>}
    expect = np.array([[1.0 - 0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(block, expect)
    assert np.allclose(np.linalg.eigvalsh(block), [0.0, 1.0], atol=1e-14)


def test_spectrum_detuned_jc():
    spec = DickeSpec((0.5,), (0.5,), 0.3, 1.0, 1)
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, 6))
    ev = sector_spectrum(ham, 1)
    assert ev == pytest.approx(
        [0.5 - np.sqrt(0.1525), 0.5 + np.sqrt(0.1525)], abs=1e-10
    )


def test_spectrum_free_limit_is_combinatorial():
    spec = DickeSpec((0.7,), (0.5,), 0.0, 1.0, 1)
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, 2))
    expect = sorted(
        1.0 * n + 0.7 * mu for n in (0, 1, 2) for mu in (-0.5, 0.5)
    )
    assert np.allclose(spectrum(ham), expect, atol=1e-14)


def test_spectrum_requires_hermitian():
    basis = HilbertBasis.bosons([2])
    op = realize(_op("bdag"), basis)
    with pytest.raises(ValidationError):
        spectrum(op)


def test_commutator_disjoint_factors_is_zero():
    basis = HilbertBasis.spins([0.5, 0.5])
    a = realize(_op("sz", 0), basis)
    b = realize(_op("sz", 1), basis)
    assert commutator_norm(a, b) == 0.0


def test_hamiltonian_commutes_with_excitation_number():
    for cutoff in (4, 9):
        basis = HilbertBasis.dicke(JC, cutoff)
        ham = realize(build_dicke_hamiltonian(JC), basis)
        num = realize(excitation_number(JC), basis)
        assert commutator_norm(ham, num) < 1e-12


def test_sector_spectrum_refuses_non_invariant_sector():
    basis = HilbertBasis.spins([0.5])
    sx = realize(
        OperatorExpression(((1.0, (("sp", 0),)), (1.0, (("sm", 0),))), hermitian=True),
        basis,
    )
    with pytest.raises(ValidationError):
        sector_spectrum(sx, 0)
    assert np.allclose(spectrum(sx), [-1.0, 1.0], atol=1e-14)


def test_sector_closure():
    spec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)
    basis = HilbertBasis.dicke(spec, 6)
    ham = realize(build_dicke_hamiltonian(spec), basis)
    full = spectrum(ham)
    pieces = np.sort(
        np.concatenate(
            [sector_spectrum(ham, m) for m in sorted(set(basis.excitation_numbers()))]
        )
    )
    assert np.allclose(pieces, full, atol=1e-10)


def test_rg_charges_commute_xi_one_rational():
    ls = LevelSet.from_spins((0.3, 1.1), (0.5, 0.5))
    spec = ModelSpec(ls, RATIONAL, 1, 0.42)
    r1, r2 = realize_rg_charges(spec, 1.0)
    assert commutator_norm(r1, r2) < 1e-12


def test_rg_charges_commute_on_unitary_grid():
    ls = LevelSet.from_spins((0.7, 1.9, 3.2), (0.5, 0.5, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 1, 0.37)
    charges = realize_rg_charges(spec, 0.5)  # grid point n = 4 for Omega = 2
    for a, b in itertools.combinations(charges, 2):
        assert commutator_norm(a, b) < 1e-10


def test_rg_charges_off_grid_rejected():
    ls = LevelSet.from_spins((0.7, 1.9), (0.5, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 1, 0.37)
    with pytest.raises(RepresentationError):
        realize_rg_charges(spec, 0.77)


def test_bosonic_charges_commute_and_need_cutoffs():
    ls = LevelSet.from_spins((0.3, 1.1), (0.5, 0.5))
    spec = ModelSpec(ls, RATIONAL, 1, 0.42)
    with pytest.raises(DomainError):
        realize_rg_charges(spec, 0.0)
    c1, c2 = realize_rg_charges(spec, 0.0, boson_cutoffs=(10, 10))
    assert commutator_norm(c1, c2) < 1e-10


def test_free_charges_are_number_operators():
    ls = LevelSet.from_spins((0.3, 1.1), (0.5, 0.5))
    spec = ModelSpec(ls, RATIONAL, 1, 0.0)
    for op in realize_rg_charges(spec, 1.0):
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) == 0.0
    for op in realize_rg_charges(spec, 0.0, boson_cutoffs=(4, 4)):
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) == 0.0


def test_eigencheck_diagonal_exact():
    basis = HilbertBasis.bosons([3])
    op = realize(_op("n"), basis)
    v = np.zeros(4)
    v[2] = 1.0
    ray, rel = eigencheck(op, v)
    assert ray == pytest.approx(2.0)
    assert rel == 0.0


def test_eigencheck_random_vector_is_discriminating():
    spec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, 6))
    rng = np.random.default_rng(3)
    v = rng.normal(size=ham.basis.total_dim)
    ray, rel = eigencheck(ham, v)
    assert rel > 0.01


def test_eigencheck_zero_vector_rejected():
    basis = HilbertBasis.bosons([2])
    op = realize(_op("n"), basis)
    with pytest.raises(ValidationError):
        eigencheck(op, np.zeros(3))


def test_basis_mismatch_errors():
    basis = HilbertBasis.spins([0.5])
    with pytest.raises(BasisMismatchError):
        realize(_op("bdag"), basis)
    with pytest.raises(BasisMismatchError):
        realize(_op("sz", 3), basis)
    a = realize(_op("sz", 0), basis)
    b = realize(_op("n"), HilbertBasis.bosons([2]))
    with pytest.raises(BasisMismatchError):
        commutator_norm(a, b)


def test_hermitian_flag_verified():
    basis = HilbertBasis.bosons([2])
    mat = realize(_op("bdag"), basis).matrix
    with pytest.raises(ValidationError):
        MatrixOperator(mat, basis, hermitian=True)


# -- dense np.kron reference, written independently of the sparse oracle ----


def _raising(spin, dim):
    """Raising matrix and weights on the lowest dim weights of spin `spin`."""
    mu = -spin + np.arange(dim)
    up = np.zeros((dim, dim))
    for i in range(dim - 1):
        up[i + 1, i] = np.sqrt(spin * (spin + 1) - mu[i] * (mu[i] + 1))
    return up, mu


def _on(dims, ops):
    """np.kron chain with ops[i] on factor i and the identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, ops.get(i, np.eye(d)))
    return out


def _dense_mode_plus_spins(spec, mode_up, mode_weights, level_coeffs, mode_coeffs):
    """sum_k [level_coeffs[k] Sz_k + mode_coeffs[k] (M' S_k + S'_k M)] + diag(mode_weights)
    on a mode factor with raising matrix mode_up, followed by the spin levels."""
    spins = [_raising(s, int(round(2 * s + 1))) for s in spec.spins]
    dims = [len(mode_weights)] + [len(mu) for _, mu in spins]
    out = _on(dims, {0: np.diag(mode_weights)})
    for k, (up, mu) in enumerate(spins):
        out = out + level_coeffs[k] * _on(dims, {k + 1: np.diag(mu)})
        out = out + mode_coeffs[k] * (
            _on(dims, {0: mode_up, k + 1: up.T}) + _on(dims, {0: mode_up.T, k + 1: up})
        )
    return out, dims, spins


def test_dicke_hamiltonian_matches_dense_kron_reference():
    spec = DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.23, 1.1, 2)
    cutoff = 5
    bdag = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), -1)
    ref, _, _ = _dense_mode_plus_spins(
        spec, bdag, spec.hbar_omega * np.arange(cutoff + 1.0), spec.epsilons,
        [spec.coupling_G] * spec.m,
    )
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, cutoff))
    assert np.max(np.abs(ham.matrix - ref)) < 1e-12


def test_deformed_charge0_matches_dense_kron_reference():
    spec = DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2)
    cutoff = 4
    xi = dicke.contraction_grid_xi(2.0, 3)
    lam, g, s0 = rg_core.contraction_scales(spec, xi, 2.0)
    up, a0 = _raising(s0, cutoff + 1)
    eta = -lam * np.asarray(spec.epsilons)
    # hw [A0 + g sum_k (X_0k (A' S_k + S'_k A)/2 + Z_0k A0 Sz_k)], X_0k = sqrt(1 + eta_k^2)
    ref, dims, spins = _dense_mode_plus_spins(
        spec, up, a0, [0.0] * spec.m, 0.5 * g * np.sqrt(1.0 + eta**2)
    )
    for k, (_, mu) in enumerate(spins):
        ref = ref + g * eta[k] * _on(dims, {0: np.diag(a0), k + 1: np.diag(mu)})
    r0 = dicke.realize_deformed_charge0(spec, xi, cutoff)
    assert np.max(np.abs(r0.matrix - spec.hbar_omega * ref)) < 1e-12


def _dense_rg_charges(spec, xi, cutoffs=None):
    levels, g = spec.levels, spec.coupling_g
    mats = build_gaudin(spec.kind, levels)
    x, z, m = mats.x, mats.z, levels.m
    charges = []
    if xi == 0.0:
        dims = [c + 1 for c in cutoffs]
        bdag = [np.diag(np.sqrt(np.arange(1.0, d)), -1) for d in dims]
        num = [np.diag(np.arange(float(d))) for d in dims]
        omegas = levels.degeneracies
        occupation = np.array([sum(t) for t in itertools.product(*map(range, dims))])
        keep = np.nonzero(occupation <= min(cutoffs))[0]
        for i in range(m):
            q = _on(dims, {i: num[i]})
            for k in range(m):
                if k != i:
                    hop = _on(dims, {i: bdag[i], k: bdag[k].T})
                    hop = hop + _on(dims, {k: bdag[k], i: bdag[i].T})
                    q = q + 0.25 * g * x[i, k] * np.sqrt(omegas[i] * omegas[k]) * hop
                    q = q - 0.25 * g * z[i, k] * (
                        omegas[i] * _on(dims, {k: num[k]}) + omegas[k] * _on(dims, {i: num[i]})
                    )
            charges.append(q[np.ix_(keep, keep)])
        return charges
    spins = [
        s + grid_index(omega, xi) / 2.0 for s, omega in zip(levels.spins, levels.degeneracies)
    ]
    ladders = [_raising(s, int(round(2 * s + 1))) for s in spins]
    dims = [len(mu) for _, mu in ladders]
    up = [u for u, _ in ladders]
    sz = [np.diag(mu) for _, mu in ladders]
    for i in range(m):
        q = _on(dims, {i: sz[i]})
        for k in range(m):
            if k != i:
                mix = _on(dims, {k: up[k], i: up[i].T}) + _on(dims, {i: up[i], k: up[k].T})
                q = q + g * xi * (
                    0.5 * x[i, k] * mix + z[i, k] * _on(dims, {i: sz[i], k: sz[k]})
                )
        charges.append(q)
    return charges


@pytest.mark.parametrize("xi", [1.0, 0.5, 0.0])
def test_rg_charges_match_dense_kron_reference(xi):
    ls = LevelSet.from_spins((0.7, 1.9, 3.2), (0.5, 1.0, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 1, 0.37)
    cutoffs = (4, 5, 4) if xi == 0.0 else None
    kw = {"boson_cutoffs": cutoffs} if xi == 0.0 else {}
    ops = realize_rg_charges(spec, xi, **kw)
    refs = _dense_rg_charges(spec, xi, cutoffs)
    assert len(ops) == len(refs) == 3
    for op, ref in zip(ops, refs):
        assert op.matrix.shape == ref.shape
        assert np.max(np.abs(op.matrix - ref)) < 1e-12


def test_sector_spectrum_at_m10_cutoff20():
    # 21 x 2^10 = 21504 product states: the dense complex matrix would take 7.4 GB
    spec = DickeSpec(tuple(0.5 + 0.1 * k for k in range(10)), (0.5,) * 10, 0.2, 1.0, 3)
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, 20))
    assert ham.basis.total_dim == 21504
    assert MatrixOperator(ham.csr, ham.basis, hermitian=True).hermitian
    ev = sector_spectrum(ham, 3)
    assert len(ev) == 176 and np.all(np.isfinite(ev))


def test_excitation_numbers_computed_once_per_basis():
    basis = HilbertBasis.dicke(DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2), 4)
    nums = basis.excitation_numbers()
    assert basis.excitation_numbers() is nums
    assert not nums.flags.writeable
    keep = np.nonzero(nums <= 3)[0]
    sub = ed_oracle.RestrictedBasis(basis, keep)
    assert sub.excitation_numbers() is sub.excitation_numbers()
    assert np.array_equal(sub.excitation_numbers(), nums[keep])
    for m in range(4):
        assert np.array_equal(sub.sector_indices(m), np.nonzero(nums[keep] == m)[0])
        assert np.array_equal(keep[sub.sector_indices(m)], basis.sector_indices(m))
