import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin import dicke, ed_oracle, rg_core
from gaudin.algebra import LevelSet, RATIONAL, TRIGONOMETRIC, build_gaudin, grid_index
from gaudin.dicke import OperatorExpression, build_dicke_hamiltonian, excitation_number
from gaudin.ed_oracle import (
    BOSON,
    SPIN,
    CooMatrix,
    Factor,
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


def test_empty_expression_realizes_to_zero():
    op = realize(OperatorExpression((), hermitian=True), HilbertBasis.spins([0.5, 1.0]))
    assert op.coo.shape == (6, 6) and op.coo.nnz == 0


def test_mode_symbol_with_a_level_acts_on_that_boson():
    basis = HilbertBasis.bosons([2, 3])
    bdag = [np.diag(np.sqrt(np.arange(1.0, d)), -1) for d in (3, 4)]
    n1 = realize(_op("n", 1), basis).matrix
    assert np.array_equal(n1, np.kron(np.eye(3), np.diag(np.arange(4.0))))
    hop = realize(OperatorExpression(((1.0, (("bdag", 0), ("b", 1))),)), basis).matrix
    assert np.max(np.abs(hop - np.kron(bdag[0], bdag[1].T))) < 1e-15


def test_mode_symbol_with_a_level_on_a_spin_factor_is_a_mismatch():
    # level 0 of a Dicke basis is its first spin, behind the boson
    with pytest.raises(BasisMismatchError):
        realize(_op("n", 0), HilbertBasis.dicke(JC, 3))
    with pytest.raises(BasisMismatchError):
        realize(_op("b", 1), HilbertBasis.spins([0.5, 0.5]))


def test_terms_on_one_matrix_element_add_up():
    basis = HilbertBasis.spins([1.0, 0.5])
    split = realize(OperatorExpression(((1.0, (("sz", 0),)), (2.0, (("sz", 0),)))), basis)
    whole = realize(OperatorExpression(((3.0, (("sz", 0),)),)), basis)
    assert split.coo.nnz == whole.coo.nnz == 4
    assert np.array_equal(split.matrix, whole.matrix)


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
    lam, g, s0 = rg_core.contraction_scales(spec, xi)
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
    assert MatrixOperator(ham.coo, ham.basis, hermitian=True).hermitian
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


def test_sector_positions_index_each_sector():
    basis = HilbertBasis.dicke(DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2), 3)
    pos = basis.sector_positions()
    assert basis.sector_positions() is pos and not pos.flags.writeable
    for m in sorted(set(basis.excitation_numbers())):
        idx = basis.sector_indices(m)
        assert np.array_equal(idx, np.nonzero(basis.excitation_numbers() == m)[0])
        assert np.array_equal(pos[idx], np.arange(len(idx)))


@pytest.mark.parametrize("upward", [True, False], ids=["above-diagonal", "below-diagonal"])
def test_sector_spectrum_refuses_a_one_way_link_for_both_sectors(upward):
    # the entry sits in a row of one sector and a column of the other, so one
    # sector meets it on its row side and the other on its column side
    basis = HilbertBasis.dicke(JC, 2)
    exc = basis.excitation_numbers()
    low, high = basis.sector_indices(1)[0], basis.sector_indices(2)[0]
    mat = np.diag(exc.astype(complex))
    mat[(low, high) if upward else (high, low)] = 1e-14
    op = MatrixOperator(mat, basis, hermitian=True)  # within the hermitian tolerance
    for m in (1, 2):
        with pytest.raises(ValidationError):
            sector_spectrum(op, m)
    assert np.array_equal(sector_spectrum(op, 0), [0.0])


def test_sector_without_a_nonzero_entry_has_zero_eigenvalues():
    basis = HilbertBasis.dicke(JC, 3)
    zero = realize(OperatorExpression((), hermitian=True), basis)
    for m in range(5):
        assert np.array_equal(sector_spectrum(zero, m), np.zeros(len(basis.sector_indices(m))))
    num = realize(OperatorExpression(((1.0, (("n", None),)),), hermitian=True), basis)
    assert np.array_equal(sector_spectrum(num, 0), [0.0])
    assert np.allclose(sector_spectrum(num, 1), [0.0, 1.0], atol=1e-15)


def test_sector_spectrum_of_an_absent_excitation_number_is_empty():
    ham = realize(build_dicke_hamiltonian(JC), HilbertBasis.dicke(JC, 2))
    for m in (-1, 4, 99):
        assert sector_spectrum(ham, m).shape == (0,)


def test_sector_spectrum_never_densifies_the_operator(monkeypatch):
    spec = DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2)
    ham = realize(build_dicke_hamiltonian(spec), HilbertBasis.dicke(spec, 4))
    full = spectrum(ham)

    def refuse(*args):
        raise AssertionError("densified the whole operator")

    monkeypatch.setattr(CooMatrix, "toarray", refuse)
    pieces = [sector_spectrum(ham, m) for m in sorted(set(ham.basis.excitation_numbers()))]
    assert np.allclose(np.sort(np.concatenate(pieces)), full, atol=1e-12)


# -- the CooMatrix container against dense numpy -----------------------------


def _dense_local(factor, symbol):
    """Per-site matrix of a symbol, written out from the su(2) and Fock ladders."""
    if factor.kind == BOSON:
        up = np.diag(np.sqrt(np.arange(1.0, factor.dim)), -1)
        return {"bdag": up, "b": up.T, "n": np.diag(np.arange(float(factor.dim)))}[symbol]
    up, mu = _raising(factor.spin, factor.dim)
    return {"sp": up, "sm": up.T, "sz": np.diag(mu)}[symbol]


def _dense_terms(expr, basis):
    """The operator and the entrywise sum of its terms' moduli, by np.kron."""
    dims = [f.dim for f in basis.factors]
    ref = np.zeros((basis.total_dim,) * 2, dtype=complex)
    size = np.zeros(ref.shape)
    for coeff, factors in expr.terms:
        ops = {}
        for symbol, level in factors:
            i = 0 if level is None else level + 1
            ops[i] = ops.get(i, np.eye(dims[i])) @ _dense_local(basis.factors[i], symbol)
        term = _on(dims, ops)
        ref += coeff * term
        size += abs(coeff) * np.abs(term)
    return ref, size


@st.composite
def _operator_cases(draw):
    """A boson mode and one or two spin levels, with random complex terms."""
    cutoff = draw(st.integers(0, 3))
    spins = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=2))
    factors = [Factor(BOSON, cutoff + 1)] + [Factor(SPIN, int(2 * s + 1), s) for s in spins]
    part = st.floats(-2.0, 2.0, allow_subnormal=False)
    symbol_lists = [st.sampled_from([(), ("bdag",), ("b",), ("n",), ("bdag", "b")])] + [
        st.sampled_from([(), ("sp",), ("sm",), ("sz",), ("sp", "sm")]) for _ in spins]

    def terms():
        out = []
        for _ in range(draw(st.integers(0, 6))):
            coeff = complex(draw(part), draw(st.sampled_from([0.0, draw(part)])))
            picked = [(sym, None if i == 0 else i - 1)
                      for i, lst in enumerate(symbol_lists) for sym in draw(lst)]
            out.append((coeff, tuple(picked)))
            if draw(st.booleans()):  # the same product again, cancelling or adding
                out.append((draw(st.sampled_from([-coeff, 0.5 * coeff])), tuple(picked)))
        return tuple(out)

    basis = HilbertBasis(factors)
    a, b = OperatorExpression(terms()), OperatorExpression(terms())
    seed = draw(st.integers(0, 2**32 - 1))
    return basis, a, b, seed


def _assert_canonical(coo):
    key = coo.rows * coo.shape[1] + coo.cols
    assert np.all(np.diff(key) > 0)
    assert np.all(coo.data != 0)
    assert np.all((0 <= coo.rows) & (coo.rows < coo.shape[0]))
    assert np.all((0 <= coo.cols) & (coo.cols < coo.shape[1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_coo_sums_duplicates_and_drops_exact_zeros(n_rows, n_cols, data):
    # small integer parts sum exactly in any order, so a cancelling pair
    # leaves an exact zero
    n = data.draw(st.integers(0, 30))
    rows = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    cols = data.draw(st.lists(st.integers(0, n_cols - 1), min_size=n, max_size=n))
    parts = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                               min_size=n, max_size=n))
    values = np.array([complex(re, im) for re, im in parts], dtype=complex)
    coo = CooMatrix(rows, cols, values, (n_rows, n_cols))
    dense = np.zeros((n_rows, n_cols), dtype=complex)
    np.add.at(dense, (np.array(rows, dtype=int), np.array(cols, dtype=int)), values)
    _assert_canonical(coo)
    assert coo.nnz == np.count_nonzero(dense)
    assert np.array_equal(coo.toarray(), dense)


def test_coo_sums_each_element_left_to_right():
    # the summation order the CSR assembly used for rows of up to 16 entries;
    # numpy's pairwise sums would round these differently
    rng = np.random.default_rng(5)
    values = (rng.normal(size=12) + 1j * rng.normal(size=12)) * 10.0 ** rng.integers(-8, 9, 12)

    def left_to_right(vals):
        total = 0j
        for v in vals:
            total += v
        return total

    coo = CooMatrix(np.zeros(12), np.zeros(12), values, (1, 1))
    assert coo.nnz == 1 and coo.data[0] == left_to_right(values)
    dense = CooMatrix([1, 0] * 6, [0, 1] * 6, values, (2, 2)).toarray()
    assert dense[0, 1] == left_to_right(values[1::2])
    assert dense[1, 0] == left_to_right(values[::2])


@settings(max_examples=150, deadline=None)
@given(_operator_cases())
def test_coo_operator_matches_dense_numpy(case):
    basis, expr_a, expr_b, seed = case
    rng = np.random.default_rng(seed)
    a, b = realize(expr_a, basis), realize(expr_b, basis)
    ref_a, size_a = _dense_terms(expr_a, basis)
    ref_b, size_b = _dense_terms(expr_b, basis)
    _assert_canonical(a.coo)
    # entries: each is a sum of the terms' products, good to their moduli
    assert np.all(np.abs(a.matrix - ref_a) <= 1e-13 * size_a)
    assert a.coo.nnz == np.count_nonzero(a.matrix)

    v = rng.normal(size=basis.total_dim) + 1j * rng.normal(size=basis.total_dim)
    assert np.all(np.abs(a.coo @ v - ref_a @ v) <= 1e-13 * (size_a @ np.abs(v)))

    dense_comm = ref_a @ ref_b - ref_b @ ref_a
    bound = np.linalg.norm(size_a @ size_b + size_b @ size_a)
    assert abs(commutator_norm(a, b) - np.linalg.norm(dense_comm)) <= 1e-13 * bound

    idx = rng.permutation(basis.total_dim)[:rng.integers(0, basis.total_dim + 1)]
    sub = a.restrict(idx)
    _assert_canonical(sub)
    assert np.array_equal(sub.toarray(), a.matrix[np.ix_(idx, idx)])


@settings(max_examples=100, deadline=None)
@given(_operator_cases(), st.sampled_from([0.25, 1.0]))
def test_hermitian_check_tolerates_under_1e_12(case, fraction):
    basis, expr, _, seed = case
    ref, _ = _dense_terms(expr, basis)
    herm = ref + ref.conj().T  # exactly hermitian
    i = np.random.default_rng(seed).integers(basis.total_dim)
    scale = max(1.0, np.abs(herm).max())
    bent = herm.copy()
    bent[i, i] += 1j * fraction * 1e-12 * scale  # A - A^H reads twice this
    for given_as in (bent, CooMatrix.from_dense(bent)):
        if fraction < 0.5:
            assert MatrixOperator(given_as, basis, hermitian=True).hermitian
        else:
            with pytest.raises(ValidationError):
                MatrixOperator(given_as, basis, hermitian=True)


@settings(max_examples=100, deadline=None)
@given(_operator_cases(), st.sampled_from([0.0, 1e-320, -0.5, 2.0 + 1j]))
def test_moduli_and_scalar_multiples_keep_the_canonical_triplets(case, scalar):
    # |A| and c A without a re-sort are bitwise the re-sorting construction:
    # the modulus of a nonzero is nonzero, and a scalar's zeros are dropped
    basis, expr, _, _ = case
    coo = realize(expr, basis).coo
    for fast, slow in (
        (abs(coo), CooMatrix(coo.rows, coo.cols, np.abs(coo.data), coo.shape)),
        (coo * scalar, CooMatrix(coo.rows, coo.cols, scalar * coo.data, coo.shape)),
        (scalar * coo, CooMatrix(coo.rows, coo.cols, scalar * coo.data, coo.shape)),
    ):
        _assert_canonical(fast)
        assert fast.shape == slow.shape
        for name in ("rows", "cols", "data"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(_operator_cases())
def test_a_block_product_matches_its_columns(case):
    basis, expr, _, seed = case
    rng = np.random.default_rng(seed)
    coo = realize(expr, basis).coo
    n = basis.total_dim
    block = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    product = coo @ block
    assert product.shape == (n, 3)
    # each column is summed as the product with that column alone
    for k in range(3):
        assert product[:, k].tobytes() == (coo @ block[:, k]).tobytes()


def test_eigencheck_of_a_block_checks_each_column():
    ham = realize(build_dicke_hamiltonian(DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2)),
                  HilbertBasis.dicke(DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2), 3))
    rng = np.random.default_rng(2)
    block = rng.normal(size=(ham.basis.total_dim, 4)) + 1j * rng.normal(size=(ham.basis.total_dim, 4))
    _, evecs = np.linalg.eigh(ham.matrix)
    block[:, 1] = evecs[:, 5]
    rayleigh, rel = eigencheck(ham, block)
    assert rayleigh.shape == rel.shape == (4,) and rayleigh.dtype == float
    for k in range(4):
        ray_k, rel_k = eigencheck(ham, block[:, k])
        assert rayleigh[k] == pytest.approx(ray_k, rel=1e-14)
        assert rel[k] == pytest.approx(rel_k, rel=1e-12, abs=1e-16)
    assert rel[1] < 1e-14 < rel[0]
    block[:, 2] = 0.0
    with pytest.raises(ValidationError):
        eigencheck(ham, block)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("block_elements", [1, 211, 500, 2**18])
def test_block_products_in_column_groups_are_bitwise_one_group(monkeypatch, dtype,
                                                               block_elements):
    # each group of columns takes the bins of a block of its width, so every
    # entry sums its terms in the order the one-group product does
    rng = np.random.default_rng(block_elements)
    n, nnz = 30, 70
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    data = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", block_elements)
    for coo in (CooMatrix(rows, cols, data, (n, n)), abs(CooMatrix(rows, cols, data, (n, n)))):
        for width in (1, 7, 23):
            block = rng.normal(size=(n, width)).astype(dtype)
            if dtype is complex:
                block += 1j * rng.normal(size=(n, width))
            k = block.shape[1]
            bins = (coo.rows[:, None] * k + np.arange(k)).ravel()
            want = ed_oracle._bincount(bins, (coo.data[:, None] * block[coo.cols]).ravel(),
                                       n * k).reshape(n, k)
            got = coo @ block
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (coo @ block[:, 0]).tobytes() == want[:, 0].tobytes()
