import numpy as np
import pytest

from gaudin import algebra
from gaudin.algebra import (
    RATIONAL,
    TRIGONOMETRIC,
    LevelSet,
    build_gaudin,
    deformed_weight,
    eta0_infinity_row,
    extend_with_rapidities,
    gaudin_residual,
    grid_index,
    grid_label,
    unitary_xi,
)
from gaudin.errors import (
    CollisionError,
    DegenerateLevelError,
    RepresentationError,
)
from gaudin.rg_core import RG_ETA, DickeSpec, RapiditySet


def test_levelset_validates_degeneracy_relation():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 1.0))
    assert ls.degeneracies == (2, 3)
    with pytest.raises(Exception):
        LevelSet((1.0, 2.0), (0.5, 0.5), (2, 3))


def test_levelset_rejects_fractional_degeneracy():
    with pytest.raises(DegenerateLevelError, match="2.7"):
        LevelSet.from_degeneracies((1.0, 2.0), (2.7, 2))
    with pytest.raises(DegenerateLevelError, match="2.7"):
        LevelSet((1.0, 2.0), (0.5, 0.5), (2.7, 2))
    assert LevelSet.from_degeneracies((1.0, 2.0), (2.0, 3)).spins == (0.5, 1.0)


@pytest.mark.parametrize("coords, spins", [
    pytest.param((1.0, 1.0), (0.5, 0.5), id="coincident"),
    pytest.param((1.0, 2.0), (0.5, 0.6), id="spin0.6"),
    pytest.param((1.0, 2.0), (0.5, 0.0), id="spin0"),
    pytest.param((1.0, np.inf), (0.5, 0.5), id="inf"),
    pytest.param((np.nan, 2.0), (0.5, 0.5), id="nan"),
])
def test_levelset_and_dicke_spec_share_level_checks(coords, spins):
    with pytest.raises(DegenerateLevelError):
        LevelSet.from_spins(coords, spins)
    with pytest.raises(DegenerateLevelError):
        DickeSpec(coords, spins, 0.1, 1.0, 1)


def test_levelset_rejects_duplicate_etas():
    with pytest.raises(DegenerateLevelError):
        LevelSet.from_spins((1.0, 1.0), (0.5, 0.5))


def test_trigonometric_pair_values():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    assert mats.x[0, 1] == pytest.approx(-np.sqrt(10.0), abs=1e-12)
    assert mats.z[0, 1] == pytest.approx(-3.0, abs=1e-12)
    assert mats.x[0, 1] ** 2 - mats.z[0, 1] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_rational_pair_values():
    ls = LevelSet.from_spins((0.0, 2.0), (0.5, 0.5))
    mats = build_gaudin(RATIONAL, ls)
    assert mats.x[0, 1] == pytest.approx(-0.5, abs=1e-15)
    assert mats.z[0, 1] == pytest.approx(-0.5, abs=1e-15)
    assert mats.x[0, 1] ** 2 - mats.z[0, 1] ** 2 == pytest.approx(0.0, abs=1e-15)


def test_gaudin_identity_three_levels():
    ls = LevelSet.from_spins((1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    x, z = mats.x, mats.z
    lhs = x[0, 1] * x[1, 2] - x[0, 2] * (z[0, 1] + z[1, 2])
    assert abs(lhs) < 1e-12
    assert gaudin_residual(mats) < 1e-12


def test_antisymmetry():
    ls = LevelSet.from_spins((-1.3, 0.4, 2.2), (0.5, 1.0, 1.5))
    for kind in (RATIONAL, TRIGONOMETRIC):
        mats = build_gaudin(kind, ls)
        assert np.array_equal(mats.x, -mats.x.T)
        assert np.array_equal(mats.z, -mats.z.T)
        assert np.all(np.diag(mats.x) == 0)


def test_extend_with_rapidities_values():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    ext = extend_with_rapidities(mats, ls, RapiditySet((3.0,), RG_ETA))
    assert ext.dim == 3
    assert ext.x[0, 2] == pytest.approx(-np.sqrt(20.0) / 2.0, abs=1e-12)
    assert ext.z[0, 2] == pytest.approx(-2.0, abs=1e-12)
    # original block untouched, bit for bit
    assert np.array_equal(ext.x[:2, :2], mats.x)
    assert np.array_equal(ext.z[:2, :2], mats.z)


def test_extend_rational_single_level():
    ls = LevelSet.from_spins((0.0,), (0.5,))
    mats = build_gaudin(RATIONAL, ls)
    ext = extend_with_rapidities(mats, ls, RapiditySet((1.0,), RG_ETA))
    assert ext.x[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_extended_matrices_keep_gaudin_identity():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    ext = extend_with_rapidities(mats, ls, RapiditySet((3.0, 4.0), RG_ETA))
    assert ext.dim == 4
    assert gaudin_residual(ext) < 1e-12


def test_extended_matrices_complex_rapidities():
    ls = LevelSet.from_spins((0.5, 1.5, 2.5), (0.5, 1.0, 0.5))
    for kind, c in ((RATIONAL, 0.0), (TRIGONOMETRIC, 1.0)):
        mats = build_gaudin(kind, ls)
        ext = extend_with_rapidities(
            mats, ls, RapiditySet((1.0 + 0.4j, 1.0 - 0.4j), RG_ETA)
        )
        assert gaudin_residual(ext) < 1e-12
        off = ~np.eye(ext.dim, dtype=bool)
        assert np.max(np.abs(ext.x[off] ** 2 - ext.z[off] ** 2 - c)) < 1e-12


def test_extend_rejects_collision_with_level():
    ls = LevelSet.from_spins((1.0, 2.0), (0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    with pytest.raises(CollisionError):
        extend_with_rapidities(mats, ls, RapiditySet((2.0 + 1e-12,), RG_ETA))


def test_eta0_infinity_row_values():
    x0, z0 = eta0_infinity_row((0.0,))
    assert x0[0] == pytest.approx(1.0) and z0[0] == pytest.approx(0.0)
    x0, z0 = eta0_infinity_row((-0.75,))
    assert x0[0] == pytest.approx(1.25) and z0[0] == pytest.approx(-0.75)


def test_eta0_row_reconstructs_trigonometric_block():
    ls = LevelSet.from_spins((1.0, 2.0, -0.3), (0.5, 0.5, 0.5))
    mats = build_gaudin(TRIGONOMETRIC, ls)
    x0, z0 = eta0_infinity_row(ls.etas)
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            # X_ik = X_i0 X_0k / (Z_i0 + Z_0k), with row antisymmetry
            recon = (-x0[i]) * x0[k] / (-z0[i] + z0[k])
            assert abs(recon - mats.x[i, k]) < 1e-12 * max(1.0, abs(mats.x[i, k]))


def test_deformed_spin_endpoints_and_midpoint():
    assert (grid_label(0.5, 2, 1.0), deformed_weight(1.0, 0.5, 2)) == (0.5, 0.5)
    assert grid_label(0.5, 2, 0.5) == pytest.approx(2.5)
    assert deformed_weight(0.5, 0.5, 2) == pytest.approx(1.25)


def test_xi_s_linear_with_limit_omega():
    omega = 2
    s1 = 0.5
    xis = np.linspace(0.0, 1.0, 11)
    vals = [deformed_weight(x, s1, omega) for x in xis]
    expect = [x * s1 + (1.0 - x) * omega for x in xis]
    assert np.allclose(vals, expect, atol=1e-15)
    assert deformed_weight(0.0, s1, omega) == pytest.approx(float(omega))


def test_s_xi_diverges_at_zero():
    # s(xi) has no finite value, hence no irrep, at xi = 0
    with pytest.raises(RepresentationError):
        grid_label(0.5, 2, 0.0)


def test_xi_out_of_range_rejected():
    with pytest.raises(RepresentationError):
        grid_label(0.5, 2, 1.5)
    with pytest.raises(RepresentationError):
        grid_label(0.5, 2, -0.1)


def test_unitary_grid_gives_half_integer_spins():
    omega = 2
    for n in range(9):
        xi_n = unitary_xi(omega, n)
        assert xi_n == pytest.approx(2.0 * omega / (n + 2.0 * omega))
        s_xi = grid_label(0.5, omega, xi_n)
        assert s_xi == pytest.approx(0.5 + n / 2.0, abs=1e-12)
        assert abs(2 * s_xi - round(2 * s_xi)) < 1e-9
        assert grid_index(omega, xi_n) == n
    assert grid_index(omega, 0.77) is None
    with pytest.raises(RepresentationError):
        grid_label(0.5, omega, 0.77)


def test_random_level_sets_satisfy_identities():
    rng = np.random.default_rng(11)
    for trial in range(40):
        kind = RATIONAL if trial % 2 else TRIGONOMETRIC
        m = int(rng.integers(2, 9))
        etas = np.sort(rng.uniform(-2.5, 2.5, m))
        while m > 1 and np.min(np.diff(etas)) < 0.2:
            etas = np.sort(rng.uniform(-2.5, 2.5, m))
        spins = rng.integers(1, 4, m) / 2.0
        ls = LevelSet.from_spins(tuple(etas), tuple(spins))
        mats = build_gaudin(kind, ls)
        n = int(rng.integers(1, 5))
        raps = rng.uniform(-2.5, 2.5, n) + 1j * rng.uniform(0.3, 1.0, n)
        ext = extend_with_rapidities(mats, ls, RapiditySet(tuple(raps), RG_ETA))
        assert gaudin_residual(ext) < 1e-12
        c = 0.0 if kind == RATIONAL else 1.0
        off = ~np.eye(ext.dim, dtype=bool)
        assert np.max(np.abs(ext.x[off] ** 2 - ext.z[off] ** 2 - c)) < 1e-12
