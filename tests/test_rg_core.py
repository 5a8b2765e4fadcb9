import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaudin import algebra, rg_core
from gaudin.algebra import LevelSet, RATIONAL, TRIGONOMETRIC
from gaudin.errors import (
    CollisionError,
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
    # xi = 0 is an ordinary point of the family: the Dicke equations over
    # hbar_omega, residuals and Jacobian, on random specs at complex x
    rng = np.random.default_rng(24)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        spec = DickeSpec(tuple(np.sort(rng.uniform(0.5, 1.5, m))),
                         tuple(rng.choice([0.5, 1.0, 1.5], m)), rng.uniform(0.05, 0.5),
                         rng.uniform(0.3, 2.5), int(rng.integers(1, 4)))
        n = spec.n_excitations
        x = rng.uniform(0.0, 2.5, n) + 1j * rng.uniform(-1.0, 1.0, n)
        at0 = deformed_dicke_residual(spec, 0.0, x)
        dicke = dicke_rg_residual(spec, x)
        for got, want in ((at0.residuals, dicke.residuals), (at0.jacobian, dicke.jacobian)):
            assert np.max(np.abs(spec.hbar_omega * got - want)) <= 1e-14 * np.max(np.abs(want))
    for xi in (-1e-300, 1.0 + 1e-15):
        with pytest.raises(DomainError):
            deformed_dicke_residual(JC, xi, RapiditySet((0.5,), DICKE_X))


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
    """The residual of one family at fixed model parameters, as fn(w, jacobian)."""
    call, frame = _family_call(family, kind, n)
    return lambda v, jacobian=True: call(RapiditySet(tuple(v), frame), jacobian)


def _family_call(family, kind, n):
    """The residual of one family at fixed model parameters, as call(r,
    jacobian), and the frame of its rapidities."""
    ls = LevelSet.from_spins((0.9, 2.1, 3.3), (0.5, 1.0, 0.5))
    mspec = ModelSpec(ls, kind or TRIGONOMETRIC, n, -0.12)
    dspec = DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, n)
    calls = {
        "rg": lambda r, jac: rg_residual(mspec, r, jac),
        "deformed_rg": lambda r, jac: deformed_rg_residual(mspec, 0.6, r, jac),
        "tda": lambda r, jac: tda_residual(mspec, r, jac),
        "dicke": lambda r, jac: dicke_rg_residual(dspec, r, jac),
        "deformed_dicke": lambda r, jac: deformed_dicke_residual(dspec, 0.3, r, jac),
        "extended_dicke": lambda r, jac: extended_dicke_residual(dspec, 0.4, r, jacobian=jac),
    }
    return calls[family], RG_ETA if family in RG_FAMILIES else DICKE_X


@pytest.mark.parametrize("family", RG_FAMILIES + DICKE_FAMILIES)
def test_families_take_a_complex_array_in_their_frame(family):
    # the solver's closures pass their iterate as an array: the same report
    # as its RapiditySet, and a set in the other frame is still refused
    call, frame = _family_call(family, TRIGONOMETRIC, 3)
    w = np.array([0.4 + 0.3j, 1.7 - 0.6j, 2.6 + 0.2j])
    by_set, by_array = call(RapiditySet(tuple(w), frame), True), call(w, True)
    assert by_array.residuals.tobytes() == by_set.residuals.tobytes()
    assert by_array.jacobian.tobytes() == by_set.jacobian.tobytes()
    other = DICKE_X if frame == RG_ETA else RG_ETA
    with pytest.raises(ValidationError):
        call(RapiditySet(tuple(w), other), False)


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
            tda_row = rg_core.secular_row(spec.xi_family.ends[0], w)[0]
            ext_row = rg_core.secular_row(rg_core.tau_family(dspec, xi).row(t), w)[0]
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
        yield pytest.param(ModelSpec(ls, kind, 1, -0.12).xi_family.ends[0], None,
                           id="tda-" + kind)
    yield pytest.param(ModelSpec(ls, TRIGONOMETRIC, 1, -0.12).xi_family.row(0.5), None,
                       id="deformed-rg-xi0.5")
    for tau in (0.0, 1.0):
        for xi in (1.0, 0.25):
            yield pytest.param(rg_core.tau_family(dspec, xi).row(tau), None,
                               id=f"extended-tau{tau:g}-xi{xi:g}")
    for kind in (RATIONAL, TRIGONOMETRIC):
        # every kernel parameter away from its default
        yield pytest.param(rg_core._row(kind, (0.8, 1.3), (0.5, 1.0), -0.08, -0.08,
                                        const=1.3, lin=-1.0, scale=-0.7), None,
                           id="general-" + kind)
    # each family's rate row, with the family whose dF/dt it is
    for kind in (RATIONAL, TRIGONOMETRIC):
        family = ModelSpec(ls, kind, 1, -0.12).xi_family
        yield pytest.param(family.rate, family, id="rate-deformed-rg-" + kind)
    for xi in (1.0, 0.25):
        family = rg_core.tau_family(dspec, xi)
        yield pytest.param(family.rate, family, id=f"rate-extended-xi{xi:g}")
    yield pytest.param(dspec.xi_family.rate, dspec.xi_family, id="rate-deformed-dicke")


@pytest.mark.parametrize("row, family", list(_secular_row_cases()))
def test_secular_row_is_the_kernel_at_one_rapidity(row, family):
    rng = np.random.default_rng(7)
    real = rng.uniform(-1.5, 4.5, 8)
    for w in (real, real + 1j * rng.uniform(-1.2, 1.2, 8)):
        value, slope = rg_core.secular_row(row, w)
        assert value.shape == slope.shape == w.shape
        assert np.isrealobj(value) == np.isrealobj(w)
        # one rapidity has no partner, whatever the pair coupling
        kernel = [rg_core._evaluate(row, [wa], True) for wa in w]
        res = np.array([k[0][0] for k in kernel])
        jac = np.array([k[2][0, 0] for k in kernel])
        assert np.max(np.abs(value - res)) <= 1e-13 * np.max(np.abs(res))
        assert np.max(np.abs(slope - jac)) <= 1e-13 * np.max(np.abs(jac))
        if family is not None:
            # the seeder's dF/dt is the one the path's tangent reads
            rate = np.array([family.report(0.5, [wa], False).rate[0] for wa in w])
            assert np.max(np.abs(value - rate)) <= 1e-13 * np.max(np.abs(rate))


# -- the array kernel against a scalar reference ------------------------------

def _scalar_kernel(kind, sites, weights, g_site, g_pair, w, const, lin, scale):
    """The Gaudin-form kernel (rg_core._row) written out one (a, i) and (a, b)
    term at a time:
    residuals, Jacobian in w, and per row the sums of the moduli of the
    terms that make up the residual and the Jacobian's diagonal."""
    c = 0.0 if kind == RATIONAL else 1.0
    u = [scale * v for v in w]
    e = [scale * s for s in sites]
    n = len(u)
    res, size, jac_size = [], [], []
    jac = [[0j] * n for _ in range(n)]
    for a, ua in enumerate(u):
        terms = [const, lin * ua]
        diag = [lin]
        for ei, wt in zip(e, weights):
            terms.append(g_site * wt * (1.0 + c * ei * ua) / (ei - ua))
            diag.append(g_site * wt * (1.0 + c * ei * ei) / (ei - ua) ** 2)
        for b, ub in enumerate(u):
            if b != a:
                terms.append(-g_pair * (1.0 + c * ub * ua) / (ub - ua))
                diag.append(-g_pair * (1.0 + c * ub * ub) / (ub - ua) ** 2)
                jac[a][b] = scale * g_pair * (1.0 + c * ua * ua) / (ub - ua) ** 2
        jac[a][a] = scale * sum(diag)
        res.append(sum(terms))
        size.append(sum(abs(t) for t in terms))
        jac_size.append(abs(scale) * sum(abs(t) for t in diag))
    return np.array(res), np.array(jac), np.array(size), np.array(jac_size)


def _separated(values, others, gap):
    return all(abs(x - y) >= gap for i, x in enumerate(values)
               for y in list(values[i + 1:]) + list(others))


@st.composite
def _kernel_cases(draw):
    kind = draw(st.sampled_from([RATIONAL, TRIGONOMETRIC]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    coord = st.floats(-2.0, 2.0)
    sites = draw(st.lists(coord, min_size=m, max_size=m))
    w = [complex(draw(coord), draw(st.floats(-1.0, 1.0))) for _ in range(n)]
    assume(_separated(sites, [], 0.1) and _separated(w, sites, 0.1))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=m, max_size=m))
    g_site = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 0.5))
    g_pair = draw(st.sampled_from([0.0, g_site, -0.3]))
    const = draw(st.sampled_from([1.0, 1.3]))
    lin = draw(st.sampled_from([0.0, -1.0, 0.6]))
    scale = draw(st.sampled_from([1.0, -0.7, 1.9]))
    return dict(kind=kind, sites=tuple(sites), weights=tuple(weights), g_site=g_site,
                g_pair=g_pair, w=tuple(w), const=const, lin=lin, scale=scale)


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_array_kernel_matches_the_scalar_reference(case):
    params = dict(case)
    w = params.pop("w")
    res, max_abs, jac, _ = rg_core._evaluate(rg_core._row(**params), w, True)
    ref, ref_jac, size, jac_size = _scalar_kernel(**case)
    assert np.all(np.abs(res - ref) <= 1e-13 * size)
    assert max_abs == np.max(np.abs(res))
    # off the diagonal each entry is one term; on it, jac_size bounds the terms
    bound = 1e-13 * np.maximum(np.abs(ref_jac), np.diag(jac_size))
    assert np.all(np.abs(jac - ref_jac) <= bound)
    if case["g_pair"] == 0.0:
        assert np.count_nonzero(jac - np.diag(np.diag(jac))) == 0

    def fn(v):
        return rg_core.ResidualReport(*rg_core._evaluate(rg_core._row(**params), v, False))

    fd = fd_jacobian(fn, w, h=1e-6)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(jac_size))


@pytest.mark.parametrize("family", RG_FAMILIES + DICKE_FAMILIES)
@pytest.mark.parametrize("n", [1, 3])
def test_residuals_without_a_jacobian_are_bitwise_the_same(family, n):
    rng = np.random.default_rng(3)
    for kind in (TRIGONOMETRIC, RATIONAL):
        fn = _family_fn(family, kind, n)
        w = rng.uniform(-1.5, 4.5, n) + 1j * rng.uniform(0.3, 1.2, n)
        with_jac, without = fn(w), fn(w, jacobian=False)
        assert with_jac.jacobian is not None and without.jacobian is None
        assert without.residuals.tobytes() == with_jac.residuals.tobytes()
        assert without.max_abs == with_jac.max_abs


COLLISION_SITES = (1.0, 2.0)


@pytest.mark.parametrize("w, pair", [
    pytest.param((0.3, 2.0 + 5e-11), ("level", 1, 1), id="level"),
    pytest.param((0.3, 0.7, 0.3 + 5e-11j), ("rapidity", 0, 2), id="rapidities"),
    # rapidity 1 sits on level 0, but rapidity 0's partner comes first
    pytest.param((0.4, 1.0, 0.4), ("rapidity", 0, 2), id="pair-before-level"),
    pytest.param((1.0, 0.4, 0.4), ("level", 0, 0), id="level-before-pair"),
])
@pytest.mark.parametrize("scale", [1.0, -0.7])
def test_a_collision_names_the_first_in_rapidity_order(w, pair, scale):
    with pytest.raises(CollisionError) as exc:
        rg_core._evaluate(rg_core._row(RATIONAL, COLLISION_SITES, (0.5, 0.5), -0.1, -0.1,
                                       scale=scale), [complex(v) for v in w], True)
    assert exc.value.pair == pair
    # the families pass complex rapidities, and so the message names them
    with pytest.raises(CollisionError) as ref:
        algebra.check_collisions(COLLISION_SITES, [complex(v) for v in w])
    assert str(exc.value) == str(ref.value)


def test_collisions_are_tested_on_the_unscaled_coordinates():
    args = (TRIGONOMETRIC, COLLISION_SITES, (0.5, 0.5), -0.1, -0.1)
    # 5e-11 apart in w, 5e-9 apart in u = 100 w
    with pytest.raises(CollisionError):
        rg_core._evaluate(rg_core._row(*args, scale=100.0), (0.3, 0.3 + 5e-11), False)
    # 2e-10 apart in w, 2e-11 apart in u = 0.1 w
    res = rg_core._evaluate(rg_core._row(*args, scale=0.1), (0.3, 0.3 + 2e-10), False)[0]
    assert np.all(np.isfinite(res))


@pytest.mark.parametrize("family", RG_FAMILIES + DICKE_FAMILIES)
def test_no_runtime_warning_with_one_rapidity_or_no_pair_coupling(family):
    cases = [(_family_fn(family, kind, 1), (0.4 + 0.2j,))
             for kind in (TRIGONOMETRIC, RATIONAL)]
    cases.append((_family_fn(family, RATIONAL, 3), (0.4 + 0.2j, 1.5, 2.6 - 0.1j)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, w in cases:
            fn(w)
            fn(w, jacobian=False)
        # g_pair = 0: the decoupled rows of both homotopies, and a free coupling
        for n in (1, 3):
            w = (0.4 + 0.2j, 1.5, 2.6 - 0.1j)[:n]
            rg_core._evaluate(rg_core._row(TRIGONOMETRIC, (0.9, 2.1), (1.0, 2.0), 0.0, 0.0),
                              w, True)
            tda_residual(simple_spec(kind=RATIONAL), RapiditySet(w, RG_ETA))
            extended_dicke_residual(JC, 0.0, RapiditySet(w, DICKE_X))


# -- the homotopy families: affine in t, with their exact rate -----------------

HOMOTOPY_DICKE = DickeSpec((0.8, 1.3, 1.7), (0.5, 1.0, 0.5), 0.2, 1.3, 3)


def _homotopy_family(family, kind):
    """fn(t, w) -> ResidualReport of one family at t, and its t = 0 residuals
    as f0(w): the TDA for deformed RG, the decoupled row for extended Dicke,
    and the Dicke equations over hbar_omega for deformed Dicke."""
    spec = HOMOTOPY_DICKE
    if family == "deformed_rg":
        mspec = ModelSpec(LevelSet.from_spins((0.9, 2.1, 3.3), (0.5, 1.0, 0.5)), kind, 3, -0.12)
        return (lambda t, w: deformed_rg_residual(mspec, t, w),
                lambda w: tda_residual(mspec, w).residuals)
    if family == "extended_dicke":
        return (lambda t, w: extended_dicke_residual(spec, t, w, xi=0.25),
                lambda w: extended_dicke_residual(spec, 0.0, w, xi=0.25).residuals)
    return (lambda t, w: deformed_dicke_residual(spec, t, w),
            lambda w: dicke_rg_residual(spec, w).residuals / spec.hbar_omega)


HOMOTOPY_CASES = [pytest.param("deformed_rg", kind, id=f"deformed_rg-{kind}")
                  for kind in (TRIGONOMETRIC, RATIONAL)] + [
    pytest.param(family, None, id=family) for family in ("extended_dicke", "deformed_dicke")]


@pytest.mark.parametrize("family, kind", HOMOTOPY_CASES)
def test_homotopy_families_are_affine_with_their_rate(family, kind):
    fn, f0 = _homotopy_family(family, kind)
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.uniform(-1.5, 4.5, 3) + 1j * rng.uniform(-1.2, 1.2, 3)
        start = f0(w)
        reports = {t: fn(t, w) for t in (0.0, 1e-4, 0.25, 0.5, 0.75, 1.0)}
        size = max(np.max(np.abs(start)),
                   *(max(np.max(np.abs(r.residuals)), np.max(np.abs(r.rate)))
                     for r in reports.values()))
        for t, report in reports.items():
            # F(t) = F(0) + t rate, with one rate for every t
            assert np.max(np.abs(report.residuals - start - t * report.rate)) <= 1e-14 * size
            assert np.max(np.abs(report.rate - reports[0.5].rate)) <= 1e-14 * size
        # a central difference of an affine family is exact but for round-off
        central = (reports[0.75].residuals - reports[0.25].residuals) / 0.5
        assert np.max(np.abs(reports[0.5].rate - central)) <= 1e-14 * size


@pytest.mark.parametrize("xi", [0.0, 1e-4, 0.3, 1.0])
def test_deformed_dicke_is_the_dicke_equations_plus_xi_times_its_rate(xi):
    spec = HOMOTOPY_DICKE
    rng = np.random.default_rng(17)
    eps, spins = np.array(spec.epsilons), np.array(spec.spins)
    for _ in range(10):
        x = rng.uniform(0.0, 2.5, 3) + 1j * rng.uniform(-1.0, 1.0, 3)
        report = deformed_dicke_residual(spec, xi, x)
        dicke = dicke_rg_residual(spec, x).residuals
        hw_rate = spec.hbar_omega * report.rate
        size = np.max(np.abs(dicke)) + np.max(np.abs(hw_rate))
        assert np.max(np.abs(spec.hbar_omega * report.residuals - dicke - xi * hw_rate)) \
            <= 1e-14 * size
        # the rate's closed form: (4/OMEGA0) [sum_k s_k eps_k x_a/(x_a - eps_k)
        # - sum_{b != a} x_a x_b/(x_a - x_b)]
        pairs = np.subtract.outer(x, x) + np.eye(3)
        closed = (4.0 / rg_core.OMEGA0) * (
            np.sum(spins * eps * x[:, None] / (x[:, None] - eps), axis=1)
            - np.sum((1.0 - np.eye(3)) * np.multiply.outer(x, x) / pairs, axis=1))
        assert np.max(np.abs(hw_rate - closed)) <= 1e-14 * size


def _row_is_real(row):
    return (all(a.dtype == np.float64 for a in (row.e, row.n))
            and all(type(x) is float for x in row[2:]))


@pytest.mark.parametrize("degeneracies", [False, True], ids=["spins", "degeneracies"])
def test_every_family_row_is_real(degeneracies):
    # real rows are what keep a real iterate real: the kernel, its Jacobian
    # and rate and the solver's inverse, tangent and predictor then compute
    # in float64 and never meet a complex number (numpy scalars in a row
    # would also change how complex numbers divide)
    etas = (0.7, 1.2, 2.0)
    levels = (LevelSet.from_degeneracies(etas, (2, 3, 2)) if degeneracies
              else LevelSet.from_spins(etas, (1.0, 0.5, 1.5)))
    dicke = DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3)
    families = [ModelSpec(levels, kind, 3, -0.12).xi_family for kind in (RATIONAL, TRIGONOMETRIC)]
    families += [dicke.xi_family, rg_core.tau_family(dicke, 0.5), rg_core.tau_family(dicke, 1.0)]
    for family in families:
        rows = [*family.ends, family.rate] + [family.row(t) for t in (0.0, 0.3, 1.0)]
        assert all(_row_is_real(row) for row in rows)
    assert _row_is_real(dicke._dicke)
    # and a real array in gives a real report out, integers included
    for w in (np.array([0.3, 0.9, 1.6]), [0, 1, 3]):
        report = family.report(0.3, w, True)
        assert all(a.dtype == np.float64 for a in (report.residuals, report.jacobian, report.rate))
