"""Residual systems: RG, pseudo-deformed RG, decoupled TDA, and Dicke equations.

All residual evaluators return a ResidualReport carrying the residual vector,
its max modulus, and the analytic Jacobian with respect to the rapidities
(holomorphic derivative matrix; the residuals are holomorphic in the complex
rapidities for fixed model parameters), formed from the evaluation's arrays
only when it is read: the solver reads it only where it inverts it.  A
rational row's pair sum forms no pair products, only 1/(w_b - w_a).  Each
takes its rapidities as a RapiditySet, whose frame it checks, or as an
array in its frame, which it uses as is and computes in its dtype: the
solver's continuation passes its iterate that way, in float64 when the
iterate is real.  Every row is real, so a real array gives a real report.

The three homotopy families (deformed RG in xi, extended Dicke in tau,
deformed Dicke in xi) are affine in their parameter t, F(t, w) = A(w) +
t B(w).  Each keeps the kernel rows of its two ends on the spec, built once,
evaluates the row at t, and reports the exact rate B = dF/dt with it, formed
from the evaluation's arrays only when it is read.  The solver's secular
stage and seeder read the same rows (spec.xi_family, tau_family), their site
parts through secular_row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import LevelSet, deformed_weight
# no caller in the package: kept because perfbench/tracing.py patches this name
from .algebra import pair_z  # noqa: F401
from .errors import DomainError, ValidationError

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

    @functools.cached_property
    def xi_family(self):
        """deformed_rg_residual's rows (_rg_family), built on first use."""
        return _rg_family(self)


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
        by 0..2 s_k steps, at most N in all, the boson taking the rest.
        Counted once per spec, without building the sector's states."""
        return self._sector_count

    @functools.cached_property
    def _sector_count(self):
        ways = [1]  # ways[j]: number of spin configurations j steps above |theta>
        for s in self.spins:
            top = int(round(2.0 * s))
            ways = [sum(ways[j - r] for r in range(top + 1) if 0 <= j - r < len(ways))
                    for j in range(min(len(ways) + top, self.n_excitations + 1))]
        return sum(ways)

    # the residual families' rows, built on first use and kept on the spec,
    # so that no evaluation hashes it
    @functools.cached_property
    def _dicke(self):
        """dicke_rg_residual's row (_dicke_row)."""
        return _dicke_row(self)

    @functools.cached_property
    def xi_family(self):
        """deformed_dicke_residual's rows (_single_copy_family)."""
        return _single_copy_family(self)

    @functools.cached_property
    def _tau_families(self):
        """extended_dicke_residual's rows by xi (tau_family)."""
        return {}

    @functools.cached_property
    def _sectors(self):
        """dicke.sector_tables' Sectors, held once built."""
        return []


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

    def as_array(self):
        return np.asarray(self.values, dtype=complex)


class ResidualReport:
    """Residual vector, its max modulus, and (optionally) the analytic Jacobian
    and, for a family at a point t of its homotopy, the rate dF/dt.

    The Jacobian and the rate may each be given as a function of no
    arguments that forms it: it is then formed on the first read of
    `jacobian` or `rate`, and kept.
    """

    __slots__ = ("residuals", "max_abs", "_jacobian", "_rate")

    def __init__(self, residuals, max_abs, jacobian=None, rate=None):
        self.residuals = residuals
        self.max_abs = max_abs
        self._jacobian = jacobian
        self._rate = rate

    @property
    def jacobian(self):
        if callable(self._jacobian):
            self._jacobian = self._jacobian()
        return self._jacobian

    @property
    def rate(self):
        if callable(self._rate):
            self._rate = self._rate()
        return self._rate


def _values(r, frame):
    """The rapidities of r: a RapiditySet's values, once its frame is checked,
    or r itself, an array taken to be in `frame`."""
    if not isinstance(r, RapiditySet):
        return r
    if r.frame != frame:
        raise ValidationError(f"expected rapidities in frame {frame!r}, got {r.frame!r}")
    return r.values


class _Row(NamedTuple):
    """The kernel's parameters in the rapidities' own frame w:

        r_a = base + lin*w_a + sum_i n_i/(e_i - w_a)
              - g_pair sum_{b != a} (1 + c w_a w_b)/(w_b - w_a)

    Its site part, base + lin*w + sum_i n_i/(e_i - w), is the secular row of
    one rapidity with no partner (secular_row).  Every row is real, float64
    arrays and Python floats: that is what lets a real iterate stay real, the
    kernel on a float64 w computing in float64 throughout.
    """

    e: np.ndarray
    n: np.ndarray
    base: float
    lin: float
    g_pair: float
    c: float


def _row(kind, sites, weights, g_site, g_pair, const=1.0, lin=0.0, scale=1.0):
    """The _Row of the kernel in its Gaudin form,

        r_a = const + lin*u_a + g_site sum_i weights_i Z(e_i, u_a)
              - g_pair sum_{b != a} Z(u_b, u_a),

    at u = scale*w, e = scale*sites, with Z(u, v) = (1 + c u v)/(u - v), c = 0
    (rational) or 1 (trigonometric).  From Z(e, u) = (1 + c e^2)/(e - u) - c e
    its site part in u is base + lin*u + sum_i n_i/(e_i - u), with n_i =
    g_site weights_i (1 + c e_i^2) and base = const - c sum_i g_site weights_i
    e_i; rewritten in w, the poles sit at the sites, n_i and g_pair are
    divided by scale, lin is multiplied by it and c by its square.  At scale =
    1 every entry is the Gaudin form's own."""
    c = 0.0 if kind == algebra.RATIONAL else 1.0
    e = scale * np.asarray(sites, dtype=float)
    gw = g_site * np.asarray(weights, dtype=float)
    n = gw * (1.0 + c * e * e)
    base = const - c * float(np.sum(gw * e))
    return _Row(np.asarray(sites, dtype=float), n / scale, float(base), float(lin * scale),
                float(g_pair / scale), float(c * scale * scale))


def _evaluate(row, w, jacobian, rate=None):
    """The one residual kernel behind every family, on a _Row, as numpy
    reductions: the site sum over an (N, m) array of rapidity-site terms, the
    pair sum over the (N, N) array of rapidity pairs, whose diagonal is
    masked.  Collisions are found by one reduction over each array;
    algebra.check_collisions then names the first in rapidity order.  With
    g_pair == 0 the pair sum is skipped, so the Jacobian is exactly diagonal.
    The Jacobian (`jacobian` true) comes back as a _form_jacobian call on
    this evaluation's arrays, and `rate`, a _Row of parameter differences,
    asks for the kernel's derivative along them, the dF/dt of a family affine
    in t, as a _form_rate call: each is made when the report reads it, so w
    must not change in place before then.  Everything is computed in w's
    dtype, float64 for a real w (integers are taken as float64) and
    complex128 for a complex one.  Returns (residuals, max modulus, the
    Jacobian's call or None, the rate's call or None)."""
    e, n, base, lin, g_pair, c = row
    w = np.asarray(w)
    if w.dtype.kind not in "fc":  # integer rapidities, say: inf must fit in dw
        w = w.astype(float)
    d = e - w[:, None]  # d[a, i] = e_i - w_a
    dw = w - w[:, None]  # dw[a, b] = w_b - w_a
    np.fill_diagonal(dw, np.inf)  # masks b == a: |dw| = inf and 1/dw = 0 there
    if np.abs(d).min() < algebra.COLLISION_TOL or np.abs(dw).min() < algebra.COLLISION_TOL:
        algebra.check_collisions(e, w)
    q = n / d
    res = base + lin * w + q.sum(-1)
    pairs = None
    if g_pair:
        pairs = _pair_sum(w, dw, c)
        res = res - g_pair * pairs[3]  # the pair sum
    jac = functools.partial(_form_jacobian, lin, g_pair, d, q, pairs) if jacobian else None
    form = None if rate is None else functools.partial(_form_rate, rate, row, w, d, dw, pairs)
    return res, float(np.abs(res).max()), jac, form


def _pair_sum(w, dw, c):
    """The pair arrays of the kernel at w, given dw (w_b - w_a, its diagonal
    inf): 1/dw, w_a w_b, 1 + c w_a w_b and the pair sum
    sum_{b != a} (1 + c w_a w_b)/(w_b - w_a).  A rational row (c = 0) has
    numerators 1: it forms neither product array (None for both), and its
    pair sum is the row sums of 1/dw."""
    inv = 1.0 / dw
    if not c:
        return inv, None, None, inv.sum(1)
    ww = np.multiply.outer(w, w)
    num = 1.0 + c * ww
    return inv, ww, num, (num * inv).sum(1)


def _form_jacobian(lin, g_pair, d, q, pairs):
    """The kernel's Jacobian dr_a/dw_b on the arrays of its evaluation
    (_evaluate): off the diagonal g_pair (1 + c w_a^2)/(w_b - w_a)^2, and on
    it lin + sum_i n_i/(e_i - w_a)^2 - sum_b g_pair (1 + c w_b^2)/(w_b -
    w_a)^2; diagonal when the evaluation had no pair sum (pairs None).  A
    rational row's numerators are 1: its pair block is g_pair/dw^2 as it is,
    and its diagonal correction the row sums dd @ 1, the same numbers as
    scaling by and multiplying with a vector of ones."""
    diag = lin + (q / d).sum(-1)
    if pairs is None:
        return np.diag(diag)
    inv, _, num, _ = pairs
    dd = g_pair * inv * inv
    if num is None:
        jac = dd
        p = np.ones(len(diag))
    else:
        p = num.diagonal()
        jac = dd * p[:, None]
    np.fill_diagonal(jac, diag - dd @ p)
    return jac


def _form_rate(rate, row, w, d, dw, pairs):
    """dF/dt of a family affine in t, on the arrays of its evaluation of `row`
    at w (_evaluate): the kernel's derivative along the parameter differences
    `rate`, with the pair arrays formed here when the evaluation had no pair
    sum (pairs None), and w_a w_b when its row is rational."""
    dres = rate.base + rate.lin * w + (rate.n / d).sum(-1)
    if rate.g_pair or rate.c:
        inv, ww, _, pair = pairs or _pair_sum(w, dw, row.c)
        dres = dres - rate.g_pair * pair
        if rate.c:
            if ww is None:
                ww = np.multiply.outer(w, w)
            dres = dres - (row.g_pair * rate.c) * (ww * inv).sum(1)
    return dres


class _Homotopy:
    """A family affine in its parameter t, F(t, w) = A(w) + t B(w): its rows
    at t = 0 and t = 1, built once per spec, and their difference, the row of
    the rate B = dF/dt.  The row at t interpolates the two ends, which it
    reproduces exactly at t = 0 and t = 1.  The last (t, row) a report used
    is kept: a path evaluates each of its points a few times, one t after
    another."""

    __slots__ = ("ends", "rate", "_last")

    def __init__(self, row0, row1):
        self.ends = (row0, row1)
        self.rate = _Row(row0.e, *(b - a for a, b in zip(row0[1:], row1[1:])))
        self._last = (None, None)

    def row(self, t):
        """The family's _Row at the Python float t."""
        row0, row1 = self.ends
        s = 1.0 - t
        return _Row(row0.e, s * row0.n + t * row1.n,
                    *(a if a == b else s * a + t * b for a, b in zip(row0[2:], row1[2:])))

    def report(self, t, w, jacobian):
        """The family's ResidualReport at the Python float t; its rate is
        formed when first read."""
        at, row = self._last
        if at != t:
            row = self.row(t)
            self._last = (t, row)
        return ResidualReport(*_evaluate(row, w, jacobian, self.rate))


def secular_row(row, w):
    """The site part of the _Row `row`, the decoupled secular equation r(w) =
    base + lin*w + sum_i n_i/(e_i - w) of one rapidity with no partner.
    Elementwise on a scalar or an array w (real w gives a real row): one
    array of divisions n_i/(e_i - w), with the sites on its last axis, summed
    over that axis.  Returns (r, dr/dw).  Poles are not checked.
    """
    w = np.asarray(w)
    d = row.e - w[..., None]
    q = row.n / d
    return row.base + row.lin * w + q.sum(-1), row.lin + (q / d).sum(-1)


def rg_residual(spec, r, jacobian=True):
    """Bethe equations 1 + g sum_i Z_{ia} s_i - g sum_{b!=a} Z_{ba} = 0: the
    deformed RG family's row at xi = 1."""
    return ResidualReport(*_evaluate(spec.xi_family.ends[1], _values(r, RG_ETA), jacobian))


def deformed_rg_residual(spec, xi, r, jacobian=True):
    """Pseudo-deformed equations 1 + g sum_i Z_{ia} xi*s_i(xi) - g xi sum Z_{ba} = 0.

    Affine in xi: each weight xi*s_i(xi) = Omega_i + xi (s_i - Omega_i) and the
    rapidity coupling xi*g are, so the report carries the exact rate dF/dxi.
    Reduces to rg_residual at xi = 1 and to tda_residual at xi = 0 exactly
    (the same rows, the same kernel).
    """
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi = {xi} outside [0, 1]")
    return spec.xi_family.report(float(xi), _values(r, RG_ETA), jacobian)


def _rg_family(spec):
    """deformed_rg_residual's rows at xi = 0 (the TDA) and xi = 1 (RG): each
    weight follows the deformation map in xi from its degeneracy to its spin,
    and the rapidity coupling is xi * g."""
    levels, g = spec.levels, spec.coupling_g
    spins = np.asarray(levels.spins)
    omegas = np.asarray(levels.degeneracies, dtype=float)
    return _Homotopy(*(_row(spec.kind, levels.etas, deformed_weight(xi, spins, omegas), g, g * xi)
                       for xi in (0.0, 1.0)))


def tda_residual(spec, r, jacobian=True):
    """Decoupled secular equations 1 + g sum_i Z_{ia} Omega_i = 0: the
    deformed RG family's row at xi = 0."""
    return ResidualReport(*_evaluate(spec.xi_family.ends[0], _values(r, RG_ETA), jacobian))


def dicke_rg_residual(spec, r, jacobian=True):
    """Dicke equations (hw - x_a) - 2G^2 sum_k s_k/(eps_k - x_a)
    + 2G^2 sum_{b!=a} 1/(x_b - x_a) = 0, in energy units."""
    return ResidualReport(*_evaluate(spec._dicke, _values(r, DICKE_X), jacobian))


def _dicke_row(spec, unit=1.0):
    """dicke_rg_residual's row divided by `unit`."""
    g2 = -2.0 * spec.coupling_G**2 / unit
    return _row(algebra.RATIONAL, spec.epsilons, spec.spins, g2, g2,
                const=spec.hbar_omega / unit, lin=-1.0 / unit)


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
    This is extended_dicke_residual at tau = 1.  In x it is exactly affine in
    xi, since lam^2 = 2 xi / (OMEGA0 G^2) and g s0 lam = 1/hbar_omega:

        hbar_omega residual_a = dicke_rg_residual_a
            + xi (4/OMEGA0) [sum_k s_k eps_k x_a/(x_a - eps_k)
                             - sum_{b!=a} x_a x_b/(x_a - x_b)],

    so it converges to dicke_rg_residual / hbar_omega as O(xi), and the
    report carries the exact rate dF/dxi.  Its rows are the Dicke row over
    hbar_omega at xi = 0, where the report is dicke_rg_residual's divided by
    hbar_omega, and the single copy at xi = 1.
    """
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi = {xi} outside [0, 1]")
    return spec.xi_family.report(float(xi), _values(r, DICKE_X), jacobian)


def _single_copy_family(spec):
    """deformed_dicke_residual's rows in x: the contraction limit at xi = 0
    and the extended family's tau = 1 row at xi = 1."""
    return _Homotopy(_dicke_row(spec, spec.hbar_omega), tau_family(spec, 1.0).ends[1])


def tau_family(spec, xi):
    """extended_dicke_residual's rows in x at tau = 0 and 1, for one xi (a
    Python float), built once per spec and xi: every weight, the copy's w0
    included, follows the deformation map in tau from its degeneracy 2s + 1
    to s, and the rapidity coupling is tau * g."""
    families = spec._tau_families
    if xi not in families:
        lam, g, s0 = contraction_scales(spec, xi)
        families[xi] = _Homotopy(*(
            _row(algebra.TRIGONOMETRIC, spec.epsilons,
                 [deformed_weight(tau, s, 2.0 * s + 1.0) for s in spec.spins], g, g * tau,
                 lin=g * deformed_weight(tau, s0, 2.0 * s0 + 1.0), scale=-lam)
            for tau in (0.0, 1.0)))
    return families[xi]


def extended_dicke_residual(spec, tau, r, xi=1.0, jacobian=True):
    """Homotopy family used to seed a starting point of the Dicke construction.

    At tau = 1 this equals deformed_dicke_residual(spec, xi, ...); at tau = 0
    the rapidity coupling vanishes and the level weights are promoted to their
    degeneracies, leaving one decoupled secular equation per rapidity.  Every
    weight and the rapidity coupling are affine in tau, so the report carries
    the exact rate dF/dtau.  The default xi = 1 seeds the top of the
    deformation family; branches whose rapidities escape to infinity there
    (the deformed copy is too small to hold them) are seeded at a smaller xi
    instead.
    """
    w = _values(r, DICKE_X)
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"tau = {tau} outside [0, 1]")
    return tau_family(spec, float(xi)).report(float(tau), w, jacobian)
