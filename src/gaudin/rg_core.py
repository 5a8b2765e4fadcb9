"""Residual systems: RG, pseudo-deformed RG, decoupled TDA, and Dicke equations.

All residual evaluators return a ResidualReport carrying the residual vector,
its max modulus, and the analytic Jacobian with respect to the rapidities
(holomorphic derivative matrix; the residuals are holomorphic in the complex
rapidities for fixed model parameters).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import LevelSet, deformed_weight
# no caller in the package: kept because perfbench/tracing.py patches this name
from .algebra import pair_z  # noqa: F401
from .errors import (
    ContractionLimitError,
    DomainError,
    ValidationError,
)

RG_ETA = "rg_eta"
DICKE_X = "dicke_x"

# the single-copy contraction's deformed copy has s(1) = Omega = OMEGA0/4; any
# other value restates xi, as the equations see xi and OMEGA0 only as xi/OMEGA0
OMEGA0 = 2.0


@dataclass(frozen=True)
class ModelSpec:
    """A Richardson-Gaudin model: levels, Gaudin kind, excitation number, coupling."""

    levels: LevelSet
    kind: str
    n_excitations: int
    coupling_g: float

    def __post_init__(self):
        if self.kind not in algebra.KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        if self.n_excitations < 1:
            raise ValidationError("n_excitations must be >= 1")
        if not np.isfinite(self.coupling_g):
            raise ValidationError("coupling g must be finite")


@dataclass(frozen=True)
class DickeSpec:
    """A Dicke model: spin splittings, spins, coupling G, photon energy, N."""

    epsilons: tuple
    spins: tuple
    coupling_G: float
    hbar_omega: float
    n_excitations: int

    def __post_init__(self):
        epsilons = tuple(float(e) for e in self.epsilons)
        spins = tuple(float(s) for s in self.spins)
        object.__setattr__(self, "epsilons", epsilons)
        object.__setattr__(self, "spins", spins)
        if len(epsilons) < 1 or len(epsilons) != len(spins):
            raise ValidationError("epsilons and spins must be nonempty, equal length")
        algebra.check_levels(epsilons, spins)
        if not 0.0 < self.hbar_omega < np.inf:
            raise ValidationError("hbar_omega must be finite and positive")
        if not np.isfinite(self.coupling_G):
            raise ValidationError("coupling G must be finite")
        if self.n_excitations < 1:
            raise ValidationError("n_excitations must be >= 1")

    @property
    def m(self):
        return len(self.epsilons)

    def vacuum_energy(self):
        """Reference energy of |theta>: -sum_k eps_k s_k."""
        return -float(np.dot(self.epsilons, self.spins))

    def sector_dimension(self):
        """Number of eigenstates with N excitations: the ways to raise level k
        by 0..2 s_k steps, at most N in all, the boson taking the rest."""
        ways = [1]  # ways[j]: number of spin configurations j steps above |theta>
        for s in self.spins:
            top = int(round(2.0 * s))
            ways = [sum(ways[j - r] for r in range(top + 1) if 0 <= j - r < len(ways))
                    for j in range(min(len(ways) + top, self.n_excitations + 1))]
        return sum(ways)


@dataclass(frozen=True)
class RapiditySet:
    """N complex rapidities, tagged by coordinate frame (RG eta or Dicke x)."""

    values: tuple
    frame: str

    def __post_init__(self):
        values = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.frame not in (RG_ETA, DICKE_X):
            raise ValidationError(f"unknown frame {self.frame!r}")
        if len(values) < 1:
            raise ValidationError("need at least one rapidity")

    @property
    def n(self):
        return len(self.values)

    def as_array(self):
        return np.asarray(self.values, dtype=complex)


@dataclass
class ResidualReport:
    """Residual vector, its max modulus, and (optionally) the analytic Jacobian."""

    residuals: np.ndarray
    max_abs: float
    jacobian: np.ndarray | None = None


def _require_frame(r, frame):
    if r.frame != frame:
        raise ValidationError(f"expected rapidities in frame {frame!r}, got {r.frame!r}")


def _site_sum(kind, sites, weights, g_site, const, lin, scale):
    """u -> (r, dr/du) with r = const + lin*u + g_site sum_i weights_i Z(e_i, u),
    e = scale*sites, for a scalar u or elementwise on an array.  Written as
    Z(e, u) = (1 + c e^2)/(e - u) - c e, so each site costs one division."""
    c = 0.0 if kind == algebra.RATIONAL else 1.0
    e = [scale * s for s in sites]
    gw = [g_site * float(wt) for wt in weights]
    num = [gi * (1.0 + c * ei * ei) for gi, ei in zip(gw, e)]
    base = const - c * sum(gi * ei for gi, ei in zip(gw, e))

    def row(u):
        r = base + lin * u
        dr = lin
        for ei, ni in zip(e, num):
            d = ei - u
            q = ni / d
            r += q
            dr += q / d
        return r, dr

    return row


def _gaudin_residual(kind, sites, weights, g_site, g_pair, w, jacobian,
                     const=1.0, lin=0.0, scale=1.0, row=None):
    """The one residual kernel behind every family:

        r_a = const + lin*u_a + g_site sum_i weights_i Z(e_i, u_a)
              - g_pair sum_{b != a} Z(u_b, u_a)

    at u = scale*w, e = scale*sites, with Z(u, v) = (1 + c u v)/(u - v), c = 0
    (rational) or 1 (trigonometric).  Collisions are checked on the unscaled
    coordinates.  Returns (residuals, max modulus, Jacobian in w or None); the
    Jacobian in w is scale times the holomorphic derivative in u.  With
    g_pair == 0 the pair sum is skipped, so the Jacobian is exactly diagonal.
    A caller that evaluates one parameter set many times passes its
    _site_sum row as `row`.
    """
    algebra.check_collisions(sites, w)
    c = 0.0 if kind == algebra.RATIONAL else 1.0
    # Python scalars throughout: numpy scalars would make every term slower
    g_site, g_pair, const, lin, scale = map(float, (g_site, g_pair, const, lin, scale))
    if row is None:
        row = _site_sum(kind, sites, weights, g_site, const, lin, scale)
    u = [scale * v for v in w]
    n = len(u)
    res = [0j] * n
    jac = [[0j] * n for _ in range(n)] if jacobian else None
    for a, ua in enumerate(u):
        res[a], diag = row(ua)
        if jacobian:
            jac[a][a] = diag
    if g_pair:
        # Z is antisymmetric, so each unordered pair is evaluated once
        for a in range(n):
            ua = u[a]
            for b in range(a + 1, n):
                ub = u[b]
                d = ub - ua
                z = g_pair * (1.0 + c * ua * ub) / d
                res[a] -= z
                res[b] += z
                if jacobian:
                    dd = g_pair / (d * d)
                    jab = dd * (1.0 + c * ua * ua)
                    jba = dd * (1.0 + c * ub * ub)
                    jac[a][b] = jab
                    jac[b][a] = jba
                    jac[a][a] -= jba
                    jac[b][b] -= jab
    max_abs = max(map(abs, res))
    res = np.array(res, dtype=complex)
    if jacobian:
        jac = np.array(jac, dtype=complex)
        if scale != 1.0:
            jac *= scale
    return res, max_abs, jac


def secular_row(w, kind, sites, weights, g_site, const=1.0, lin=0.0, scale=1.0):
    """The kernel's row for one rapidity with no partner, the decoupled
    secular equation r(w) = const + lin*u + g_site sum_i weights_i Z(e_i, u)
    at u = scale*w.  Elementwise on a scalar or an array w (real w and
    parameters give a real row); returns (r, dr/dw).  Poles are not checked.
    """
    row = _site_sum(kind, sites, weights, g_site, const, lin, scale)
    r, dr = row(scale * np.asarray(w))
    return r, scale * dr


def rg_residual(spec, r, jacobian=True):
    """Bethe equations 1 + g sum_i Z_{ia} s_i - g sum_{b!=a} Z_{ba} = 0."""
    _require_frame(r, RG_ETA)
    g = spec.coupling_g
    return ResidualReport(*_gaudin_residual(
        spec.kind, spec.levels.etas, spec.levels.spins, g, g, r.values, jacobian
    ))


def deformed_rg_residual(spec, xi, r, jacobian=True):
    """Pseudo-deformed equations 1 + g sum_i Z_{ia} xi*s_i(xi) - g xi sum Z_{ba} = 0.

    Reduces to rg_residual at xi = 1 and to tda_residual at xi = 0 exactly
    (same kernel, identical arguments).
    """
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi = {xi} outside [0, 1]")
    _require_frame(r, RG_ETA)
    p = deformed_rg_params(spec, xi)
    return ResidualReport(
        *_gaudin_residual(g_pair=p["g_site"] * xi, w=r.values, jacobian=jacobian, **p)
    )


def deformed_rg_params(spec, xi):
    """Secular-row parameters of deformed_rg_residual at xi, whose rapidity
    coupling is xi * g_site; each weight follows the deformation map in xi
    from its degeneracy (the decoupled TDA row at xi = 0) to its spin."""
    weights = [
        deformed_weight(xi, s, omega)
        for s, omega in zip(spec.levels.spins, spec.levels.degeneracies)
    ]
    return dict(kind=spec.kind, sites=spec.levels.etas, weights=weights,
                g_site=spec.coupling_g)


def tda_residual(spec, r, jacobian=True):
    """Decoupled secular equations 1 + g sum_i Z_{ia} Omega_i = 0."""
    _require_frame(r, RG_ETA)
    return ResidualReport(*_gaudin_residual(
        g_pair=0.0, w=r.values, jacobian=jacobian, **deformed_rg_params(spec, 0.0)
    ))


def dicke_rg_residual(spec, r, jacobian=True):
    """Dicke equations (hw - x_a) - 2G^2 sum_k s_k/(eps_k - x_a)
    + 2G^2 sum_{b!=a} 1/(x_b - x_a) = 0, in energy units."""
    _require_frame(r, DICKE_X)
    gg2 = -2.0 * spec.coupling_G**2
    return ResidualReport(*_gaudin_residual(
        algebra.RATIONAL, spec.epsilons, spec.spins, gg2, gg2, r.values, jacobian,
        const=spec.hbar_omega, lin=-1.0,
    ))


def contraction_scales(spec, xi):
    """xi-dependent rescalings of the single-copy contraction construction.

    Returns (lam, g, s0) with lam = sqrt(2 xi / (OMEGA0 G^2)), the renormalized
    dimensionless coupling g = sqrt(8 xi / (OMEGA0 G^2)) G^2 / (hbar omega), and
    the deformed-copy label s0(xi) = OMEGA0 / (4 xi): the grid label of the
    copy with s(1) = Omega = OMEGA0/4, so that xi*s0(xi) is exactly OMEGA0/4 at
    every xi (the value the contraction limit requires).
    """
    if xi <= 0.0 or xi > 1.0:
        raise DomainError(f"xi = {xi} outside (0, 1]")
    if spec.coupling_G == 0.0:
        raise DomainError("contraction rescalings are undefined at G = 0")
    lam = np.sqrt(2.0 * xi / (OMEGA0 * spec.coupling_G**2))
    g = 2.0 * lam * spec.coupling_G**2 / spec.hbar_omega
    s0 = OMEGA0 / (4.0 * xi)
    return lam, g, s0


def deformed_dicke_residual(spec, xi, r, jacobian=True):
    """Single-copy deformed equations in the physical x frame.

    residual_a = 1 + g Z_{0a} s0(xi) + g sum_k Z_{ka} s_k - g sum_{b!=a} Z_{ba},
    with Z entries from the trigonometric parametrization at the rescaled
    coordinates eta = -lam * energy and Z_{0a} = eta_a (eta_0 -> infinity row).
    This is extended_dicke_residual at tau = 1.  hbar_omega * residual
    converges to dicke_rg_residual as xi -> 0.
    """
    _require_frame(r, DICKE_X)
    if xi == 0.0:
        raise ContractionLimitError(
            "xi = 0 is the exact contraction limit; use dicke_rg_residual"
        )
    p, row = _extended_point(spec, 1.0, float(xi))
    return ResidualReport(*_gaudin_residual(
        g_pair=p["g_site"], w=r.values, jacobian=jacobian, row=row, **p
    ))


def extended_dicke_params(spec, tau, xi=1.0):
    """Secular-row parameters of extended_dicke_residual at tau, whose
    rapidity coupling is tau * g_site; every weight, the copy's w0 included,
    follows the deformation map in tau from s to its degeneracy 2s + 1."""
    lam, g, s0 = contraction_scales(spec, xi)
    w0 = deformed_weight(tau, s0, 2.0 * s0 + 1.0)
    weights = [deformed_weight(tau, s, 2.0 * s + 1.0) for s in spec.spins]
    return dict(kind=algebra.TRIGONOMETRIC, sites=spec.epsilons, weights=weights,
                g_site=g, lin=g * w0, scale=-lam)


@functools.lru_cache(maxsize=64)
def _extended_point(spec, tau, xi):
    """extended_dicke_params at one homotopy point and the kernel's row for
    them, built once: a continuation evaluates each point several times
    (Newton iterations, line-search trials).  Callers key it on Python
    floats; the row holds Python floats whatever the key, so its complex
    divisions take the same bits as a row built per call."""
    p = extended_dicke_params(spec, tau, xi)
    row = _site_sum(p["kind"], p["sites"], p["weights"], float(p["g_site"]), 1.0,
                    float(p["lin"]), float(p["scale"]))
    # every caller of this point shares p: callers only read it
    return p, row


def extended_dicke_residual(spec, tau, r, xi=1.0, jacobian=True):
    """Homotopy family used to seed a starting point of the Dicke construction.

    At tau = 1 this equals deformed_dicke_residual(spec, xi, ...); at tau = 0
    the rapidity coupling vanishes and the level weights are promoted to their
    degeneracies, leaving one decoupled secular equation per rapidity.  The
    default xi = 1 seeds the top of the deformation family; branches whose
    rapidities escape to infinity there (the deformed copy is too small to hold
    them) are seeded at a smaller xi instead.
    """
    _require_frame(r, DICKE_X)
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"tau = {tau} outside [0, 1]")
    p, row = _extended_point(spec, float(tau), float(xi))
    return ResidualReport(*_gaudin_residual(
        g_pair=p["g_site"] * tau, w=r.values, jacobian=jacobian, row=row, **p
    ))
