import numpy as np
import pytest

from gaudin import algebra, rg_core
from gaudin.algebra import LevelSet, RATIONAL, TRIGONOMETRIC
from gaudin.errors import (
    CollisionError,
    ContractionLimitError,
    DomainError,
    ValidationError,
)
from gaudin.rg_core import (
    DICKE_X,
    RG_ETA,
    DickeSpec,
    ModelSpec,
    RapiditySet,
    contraction_scales,
    deformed_dicke_residual,
    deformed_rg_residual,
    dicke_rg_residual,
    extended_dicke_residual,
    rg_residual,
    tda_residual,
)

JC = DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)


def simple_spec(g=0.2, kind=TRIGONOMETRIC):
    return ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), kind, 1, g)


def fd_jacobian(fn, w, h=1e-7):
    w = np.asarray(w, dtype=complex)
    n = len(w)
    jac = np.zeros((n, n), dtype=complex)
    for j in range(n):
        dp = np.zeros(n, dtype=complex)
        dp[j] = h
        jac[:, j] = (fn(w + dp).residuals - fn(w - dp).residuals) / (2.0 * h)
    return jac


def test_rg_residual_free_limit_is_one():
    spec = simple_spec(g=0.0)
    rep = rg_residual(spec, RapiditySet((2.7,), RG_ETA))
    assert rep.residuals[0] == pytest.approx(1.0)


def test_rg_residual_closed_form_root():
    # 1 + 0.2*(1/2)*(1+eta)/(1-eta) = 0 at eta = 11/9
    spec = simple_spec(g=0.2)
    rep = rg_residual(spec, RapiditySet((11.0 / 9.0,), RG_ETA))
    assert rep.max_abs < 1e-14


def test_rg_residual_permutation_equivariance():
    ls = LevelSet.from_spins((1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 2, -0.1)
    w = np.array([0.3 + 0.2j, 1.4 - 0.5j])
    a = rg_residual(spec, RapiditySet(tuple(w), RG_ETA))
    b = rg_residual(spec, RapiditySet(tuple(w[::-1]), RG_ETA))
    assert a.max_abs == pytest.approx(b.max_abs, rel=1e-14)
    assert np.allclose(a.residuals, b.residuals[::-1])


def test_rg_residual_conjugation_symmetry():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 1.0))
    spec = ModelSpec(ls, TRIGONOMETRIC, 2, 0.3)
    w = np.array([0.4 + 0.7j, 1.6 - 0.2j])
    a = rg_residual(spec, RapiditySet(tuple(w), RG_ETA))
    b = rg_residual(spec, RapiditySet(tuple(np.conj(w)), RG_ETA))
    assert np.allclose(np.conj(a.residuals), b.residuals, atol=1e-14)


def test_rg_residual_collision_reports_pair():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 1, 0.1)
    with pytest.raises(CollisionError) as exc:
        rg_residual(spec, RapiditySet((1.0,), RG_ETA))
    assert exc.value.pair is not None


def test_frame_mismatch_rejected():
    spec = simple_spec()
    with pytest.raises(ValidationError):
        rg_residual(spec, RapiditySet((0.4,), DICKE_X))


def test_deformed_endpoints_bit_identical():
    ls = LevelSet.from_spins((1.0, 2.0, 3.0), (0.5, 1.0, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 2, -0.17)
    w = RapiditySet((0.4 + 0.3j, 1.7 - 0.6j), RG_ETA)
    at1 = deformed_rg_residual(spec, 1.0, w)
    direct = rg_residual(spec, w)
    assert np.max(np.abs(at1.residuals - direct.residuals)) == 0.0
    at0 = deformed_rg_residual(spec, 0.0, w)
    tda = tda_residual(spec, w)
    assert np.max(np.abs(at0.residuals - tda.residuals)) == 0.0


def test_deformed_xi_out_of_range():
    spec = simple_spec()
    with pytest.raises(DomainError):
        deformed_rg_residual(spec, 1.2, RapiditySet((0.4,), RG_ETA))


def test_tda_closed_form_root():
    # (1 - eta) + 0.1*2*(1 + eta) = 0 at eta = 1.5
    spec = ModelSpec(LevelSet.from_spins((1.0,), (0.5,)), TRIGONOMETRIC, 1, 0.1)
    rep = tda_residual(spec, RapiditySet((1.5,), RG_ETA))
    assert rep.max_abs < 1e-14
    rep0 = deformed_rg_residual(spec, 0.0, RapiditySet((1.5,), RG_ETA))
    assert rep0.max_abs < 1e-14


def test_decoupled_jacobian_is_diagonal():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    spec = ModelSpec(ls, TRIGONOMETRIC, 2, 0.05)
    rep = deformed_rg_residual(spec, 0.0, RapiditySet((0.3 + 0.1j, 2.6), RG_ETA))
    off = rep.jacobian - np.diag(np.diag(rep.jacobian))
    assert np.max(np.abs(off)) == 0.0


def test_dicke_residual_jc_roots():
    for x in (0.5, 1.5):
        rep = dicke_rg_residual(JC, RapiditySet((x,), DICKE_X))
        assert rep.max_abs < 1e-14


def test_dicke_residual_tavis_cummings_roots():
    tc = DickeSpec((1.0,), (1.0,), 0.5, 1.0, 1)
    for x in (1.0 - 1.0 / np.sqrt(2.0), 1.0 + 1.0 / np.sqrt(2.0)):
        rep = dicke_rg_residual(tc, RapiditySet((x,), DICKE_X))
        assert rep.max_abs < 1e-13


def test_dicke_residual_free_photon_root():
    free = DickeSpec((1.0,), (0.5,), 0.0, 0.7, 1)
    rep = dicke_rg_residual(free, RapiditySet((0.7,), DICKE_X))
    assert rep.max_abs < 1e-15


def test_dicke_spec_validation():
    with pytest.raises(ValidationError):
        DickeSpec((1.0, 1.0), (0.5, 0.5), 0.1, 1.0, 1)
    for hbar_omega in (-1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="hbar_omega"):
            DickeSpec((1.0,), (0.5,), 0.1, hbar_omega, 1)
    with pytest.raises(ValidationError):
        DickeSpec((1.0,), (0.6,), 0.1, 1.0, 1)


def test_contraction_scales_relations():
    lam, g, s0 = contraction_scales(JC, 0.25)
    assert lam == pytest.approx(np.sqrt(2.0 * 0.25 / (2.0 * 0.25)))
    assert g == pytest.approx(2.0 * lam * 0.25)
    assert s0 == pytest.approx(2.0)
    # xi * s0(xi) is constant in xi
    for xi in (1.0, 0.5, 0.01):
        assert xi * contraction_scales(JC, xi)[2] == pytest.approx(0.5)


def test_deformed_dicke_gap_shrinks_linearly_in_xi():
    # measured convergence of the deformed family onto the exact Dicke
    # equations: the gap at the JC root equals xi/hbar_omega to high accuracy,
    # one power of xi per decade (the family's deviations are even in the
    # natural sqrt(xi) expansion parameter, so the leading term is O(xi))
    r = RapiditySet((0.5,), DICKE_X)
    exact = dicke_rg_residual(JC, r).residuals[0]
    assert abs(exact) < 1e-15
    gaps = []
    for xi in (1e-4, 1e-6, 1e-8):
        rep = deformed_dicke_residual(JC, xi, r)
        gaps.append(abs(JC.hbar_omega * rep.residuals[0]))
    assert gaps[0] == pytest.approx(1e-4, rel=1e-3)
    assert gaps[0] / gaps[1] == pytest.approx(1e2, rel=1e-2)
    assert gaps[1] / gaps[2] == pytest.approx(1e2, rel=1e-2)
    # agreement within 1e-2 already at xi = 1e-6
    assert gaps[1] < 1e-2


def test_deformed_dicke_xi_zero_delegates():
    with pytest.raises(ContractionLimitError):
        deformed_dicke_residual(JC, 0.0, RapiditySet((0.5,), DICKE_X))


def test_deformed_dicke_matches_explicit_two_copy_model():
    # xi = 1 single-copy family vs an explicit 2-copy trigonometric model with
    # a very large eta_0 standing in for the eta_0 -> infinity row
    xi = 1.0
    lam, g, s0 = contraction_scales(JC, xi)
    eta0 = 1e8
    x = 0.82 + 0.11j
    ls = LevelSet((-lam * 1.0, eta0), (0.5, s0), (2, int(round(2 * s0 + 1))))
    spec2 = ModelSpec(ls, TRIGONOMETRIC, 1, g)
    approx = rg_residual(spec2, RapiditySet((-lam * x,), RG_ETA))
    exact = deformed_dicke_residual(JC, xi, RapiditySet((x,), DICKE_X))
    assert abs(approx.residuals[0] - exact.residuals[0]) < 1e-6


def test_extended_dicke_endpoints():
    r = RapiditySet((0.43 + 0.2j, 1.9 - 0.3j), DICKE_X)
    spec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2)
    at1 = extended_dicke_residual(spec, 1.0, r)
    direct = deformed_dicke_residual(spec, 1.0, r)
    assert np.max(np.abs(at1.residuals - direct.residuals)) == 0.0
    at0 = extended_dicke_residual(spec, 0.0, r)
    assert np.max(np.abs(at0.jacobian - np.diag(np.diag(at0.jacobian)))) == 0.0


RG_FAMILIES = ("rg", "deformed_rg", "tda")
DICKE_FAMILIES = ("dicke", "deformed_dicke", "extended_dicke")


def _family_fn(family, kind, n):
    """The residual of one family at fixed model parameters, as fn(w)."""
    ls = LevelSet.from_spins((0.9, 2.1, 3.3), (0.5, 1.0, 0.5))
    mspec = ModelSpec(ls, kind or TRIGONOMETRIC, n, -0.12)
    dspec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, n)
    if family == "rg":
        return lambda v: rg_residual(mspec, RapiditySet(tuple(v), RG_ETA))
    if family == "deformed_rg":
        return lambda v: deformed_rg_residual(mspec, 0.6, RapiditySet(tuple(v), RG_ETA))
    if family == "tda":
        return lambda v: tda_residual(mspec, RapiditySet(tuple(v), RG_ETA))
    if family == "dicke":
        return lambda v: dicke_rg_residual(dspec, RapiditySet(tuple(v), DICKE_X))
    if family == "deformed_dicke":
        return lambda v: deformed_dicke_residual(dspec, 0.3, RapiditySet(tuple(v), DICKE_X))
    return lambda v: extended_dicke_residual(dspec, 0.4, RapiditySet(tuple(v), DICKE_X))


def _jacobian_cases():
    # the trigonometric N = 2 case of each family keeps the bare family id
    for family in RG_FAMILIES + DICKE_FAMILIES:
        for kind in (TRIGONOMETRIC, RATIONAL) if family in RG_FAMILIES else (None,):
            for n in (2, 3):
                tag = [family] + (["rational"] if kind == RATIONAL else [])
                tag += [f"N{n}"] if n != 2 else []
                yield pytest.param(family, kind, n, id="-".join(tag))


@pytest.mark.parametrize("family, kind, n", list(_jacobian_cases()))
def test_analytic_jacobians_match_finite_differences(family, kind, n):
    rng = np.random.default_rng(5)
    fn = _family_fn(family, kind, n)
    for _ in range(20):
        w = rng.uniform(-1.5, 4.5, n) + 1j * rng.uniform(0.3, 1.2, n)
        rep = fn(w)
        fd = fd_jacobian(fn, w)
        scale = max(1.0, np.max(np.abs(rep.jacobian)))
        assert np.max(np.abs(rep.jacobian - fd)) / scale < 1e-6


def _brute_rg(kind, etas, weights, g_site, g_pair, w):
    return [
        1.0
        + g_site * sum(wt * algebra.pair_z(kind, e, wa) for e, wt in zip(etas, weights))
        - g_pair * sum(algebra.pair_z(kind, wb, wa) for b, wb in enumerate(w) if b != a)
        for a, wa in enumerate(w)
    ]


def _brute_single_copy(spec, x, xi, tau):
    """Extended Dicke family written out with algebra.pair_z (tau = 1 is the
    deformed Dicke family)."""
    lam, g, s0 = contraction_scales(spec, xi)
    eta = [-lam * v for v in x]
    w0 = tau * s0 + (1.0 - tau) * (2.0 * s0 + 1.0)
    out = []
    for a, ea in enumerate(eta):
        r = 1.0 + g * ea * w0
        for ek, s in zip(spec.epsilons, spec.spins):
            weight = tau * s + (1.0 - tau) * (2.0 * s + 1.0)
            r += g * weight * algebra.pair_z(TRIGONOMETRIC, -lam * ek, ea)
        for b, eb in enumerate(eta):
            if b != a:
                r -= g * tau * algebra.pair_z(TRIGONOMETRIC, eb, ea)
        out.append(r)
    return out


@pytest.mark.parametrize("family", RG_FAMILIES + DICKE_FAMILIES + ("secular_row",))
def test_residual_values_match_brute_force_sums(family):
    rng = np.random.default_rng(11)
    ls = LevelSet.from_spins((0.9, 2.1, 3.3), (0.5, 1.0, 0.5))
    dspec = DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 3)
    for trial in range(12):
        w = rng.uniform(-1.5, 4.5, 3) + 1j * rng.uniform(-1.2, 1.2, 3)
        kind = (TRIGONOMETRIC, RATIONAL)[trial % 2]
        spec = ModelSpec(ls, kind, 3, -0.12)
        r_eta = RapiditySet(tuple(w), RG_ETA)
        r_x = RapiditySet(tuple(w), DICKE_X)
        # parameter endpoints first, then random interior values
        t = (0.0, 1.0)[trial] if trial < 2 else rng.uniform(0.05, 0.95)
        if family == "rg":
            got = rg_residual(spec, r_eta)
            ref = _brute_rg(kind, ls.etas, ls.spins, -0.12, -0.12, w)
        elif family == "deformed_rg":
            got = deformed_rg_residual(spec, t, r_eta)
            weights = [t * s + (1.0 - t) * o for s, o in zip(ls.spins, ls.degeneracies)]
            ref = _brute_rg(kind, ls.etas, weights, -0.12, -0.12 * t, w)
        elif family == "tda":
            got = tda_residual(spec, r_eta)
            ref = _brute_rg(kind, ls.etas, ls.degeneracies, -0.12, 0.0, w)
        elif family == "dicke":
            got = dicke_rg_residual(dspec, r_x)
            gg2 = 2.0 * dspec.coupling_G**2
            ref = [
                dspec.hbar_omega - xa
                - gg2 * sum(s * algebra.pair_z(RATIONAL, e, xa)
                            for e, s in zip(dspec.epsilons, dspec.spins))
                + gg2 * sum(algebra.pair_z(RATIONAL, xb, xa)
                            for b, xb in enumerate(w) if b != a)
                for a, xa in enumerate(w)
            ]
        elif family == "deformed_dicke":
            xi = 1.0 if trial < 2 else t
            got = deformed_dicke_residual(dspec, xi, r_x)
            ref = _brute_single_copy(dspec, w, xi, 1.0)
        elif family == "extended_dicke":
            xi = (1.0, 0.25)[trial % 2]
            got = extended_dicke_residual(dspec, t, r_x, xi=xi)
            ref = _brute_single_copy(dspec, w, xi, t)
        else:
            # elementwise: the TDA row and the extended row at t, one rapidity each
            xi = (1.0, 0.25)[trial % 2]
            tda_row = rg_core.secular_row(w, **rg_core.tda_params(spec))[0]
            ext_row = rg_core.secular_row(
                w, **rg_core.extended_dicke_params(dspec, t, xi=xi))[0]
            got = rg_core.ResidualReport(np.concatenate([tda_row, ext_row]), 0.0)
            ref = [_brute_rg(kind, ls.etas, ls.degeneracies, -0.12, 0.0, [wa])[0]
                   for wa in w]
            ref += [_brute_single_copy(dspec, [wa], xi, t)[0] for wa in w]
        ref = np.asarray(ref, dtype=complex)
        assert np.max(np.abs(got.residuals - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_vacuum_energy():
    spec = DickeSpec((0.8, 1.3), (0.5, 1.0), 0.2, 1.0, 2)
    assert spec.vacuum_energy() == pytest.approx(-(0.8 * 0.5 + 1.3 * 1.0))


def _secular_row_cases():
    ls = LevelSet.from_spins((0.9, 2.1, 3.3), (0.5, 1.0, 0.5))
    dspec = DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 1)
    for kind in (RATIONAL, TRIGONOMETRIC):
        yield pytest.param(rg_core.tda_params(ModelSpec(ls, kind, 1, -0.12)),
                           id="tda-" + kind)
    for tau in (0.0, 1.0):
        for xi in (1.0, 0.25):
            yield pytest.param(rg_core.extended_dicke_params(dspec, tau, xi=xi),
                               id=f"extended-tau{tau:g}-xi{xi:g}")
    for kind in (RATIONAL, TRIGONOMETRIC):
        # every kernel parameter away from its default
        yield pytest.param(dict(kind=kind, sites=(0.8, 1.3), weights=(0.5, 1.0),
                                g_site=-0.08, const=1.3, lin=-1.0, scale=-0.7),
                           id="general-" + kind)


@pytest.mark.parametrize("params", list(_secular_row_cases()))
def test_secular_row_is_the_kernel_at_one_rapidity(params):
    rng = np.random.default_rng(7)
    real = rng.uniform(-1.5, 4.5, 8)
    for w in (real, real + 1j * rng.uniform(-1.2, 1.2, 8)):
        row, drow = rg_core.secular_row(w, **params)
        assert row.shape == drow.shape == w.shape
        assert np.isrealobj(row) == np.isrealobj(w)
        # one rapidity has no partner, whatever the pair coupling
        kernel = [rg_core._gaudin_residual(g_pair=params["g_site"], w=[wa],
                                           jacobian=True, **params) for wa in w]
        res = np.array([k[0][0] for k in kernel])
        jac = np.array([k[2][0, 0] for k in kernel])
        assert np.max(np.abs(row - res)) <= 1e-13 * np.max(np.abs(res))
        assert np.max(np.abs(drow - jac)) <= 1e-13 * np.max(np.abs(jac))
