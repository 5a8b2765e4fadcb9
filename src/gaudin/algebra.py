"""Gaudin algebra parametrizations and pseudo-deformation bookkeeping.

The two realizations used here are the rational one, X_ij = Z_ij = 1/(u_i - u_j),
and the trigonometric one,

    X_ij = sqrt((1 + u_i^2)(1 + u_j^2)) / (u_i - u_j),
    Z_ij = (1 + u_i u_j) / (u_i - u_j),

which satisfy X^2 - Z^2 = c with c = 0 and c = 1 respectively, together with
the compatibility condition X_ij X_jk - X_ik (Z_ij + Z_jk) = 0.  Complex
coordinates are allowed; the square root is taken per coordinate so the
compatibility condition survives analytic continuation.

The pseudo-deformation s -> s(xi) = s + (1/xi - 1)*omega is written once: the
equations see xi*s(xi) (`deformed_weight`), the matrices the irrep label s(xi)
on the unitary grid (`grid_label`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionError,
    DegenerateLevelError,
    DomainError,
    RepresentationError,
)

# Coordinates closer than this are treated as colliding: denominators below
# this scale destroy Newton conditioning at double precision.
COLLISION_TOL = 1e-10

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"
KINDS = (RATIONAL, TRIGONOMETRIC)


def _check_kind(kind):
    if kind not in KINDS:
        raise DomainError(f"unknown Gaudin kind {kind!r}; expected one of {KINDS}")


def check_levels(coords, spins):
    """Raise DegenerateLevelError unless every level coordinate is finite,
    every spin is a positive half-integer (within 1e-12) and no two level
    coordinates lie within COLLISION_TOL of each other.  Each list is tested
    by array operations; a message names the first offending entry."""
    c = np.asarray(coords, dtype=float)
    bad = np.flatnonzero(~np.isfinite(c))
    if len(bad):
        raise DegenerateLevelError(f"level coordinate {coords[bad[0]]} is not finite")
    s = np.asarray(spins, dtype=float)
    with np.errstate(invalid="ignore"):
        half = np.abs(2.0 * s - np.round(2.0 * s)) < 1e-12
    bad = np.flatnonzero(~((s > 0) & half))
    if len(bad):
        raise DegenerateLevelError(f"spin {spins[bad[0]]} is not a positive half-integer")
    # the pairs i < j that coincide, in row-major order
    i, j = np.nonzero(np.triu(np.abs(c[:, None] - c) < COLLISION_TOL, 1))
    if len(i):
        i, j = int(i[0]), int(j[0])
        raise DegenerateLevelError(f"levels {i} and {j} coincide: {coords[i]}, {coords[j]}")


def _integer_degeneracies(values):
    for o in values:
        if not float(o).is_integer():
            raise DegenerateLevelError(f"degeneracy {o} is not an integer")
    return tuple(int(o) for o in values)


@dataclass(frozen=True)
class LevelSet:
    """The m spin levels: coordinates eta_i, spins s_i, degeneracies 2 s_i + 1."""

    etas: tuple
    spins: tuple
    degeneracies: tuple

    def __post_init__(self):
        etas = tuple(float(e) for e in self.etas)
        spins = tuple(float(s) for s in self.spins)
        degeneracies = _integer_degeneracies(self.degeneracies)
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "degeneracies", degeneracies)
        m = len(etas)
        if m < 1:
            raise DegenerateLevelError("need at least one level")
        if len(spins) != m or len(degeneracies) != m:
            raise DegenerateLevelError("etas, spins, degeneracies must have equal length")
        check_levels(etas, spins)
        for s, omega in zip(spins, degeneracies):
            if omega != round(2 * s + 1):
                raise DegenerateLevelError(f"degeneracy {omega} != 2*{s} + 1")

    @classmethod
    def from_spins(cls, etas, spins):
        spins = tuple(float(s) for s in spins)
        return cls(tuple(etas), spins, tuple(int(round(2 * s + 1)) for s in spins))

    @classmethod
    def from_degeneracies(cls, etas, degeneracies):
        degeneracies = _integer_degeneracies(degeneracies)
        return cls(tuple(etas), tuple((o - 1) / 2 for o in degeneracies), degeneracies)

    @property
    def m(self):
        return len(self.etas)


@dataclass(frozen=True)
class GaudinMatrices:
    """Antisymmetric X, Z coupling matrices over levels (optionally + rapidities)."""

    kind: str
    dim: int
    x: np.ndarray
    z: np.ndarray


def pair_x(kind, u, v):
    """X entry for a coordinate pair (complex-safe)."""
    _check_kind(kind)
    d = u - v
    if kind == RATIONAL:
        return 1.0 / d
    return np.sqrt(1.0 + u * u + 0j) * np.sqrt(1.0 + v * v + 0j) / d


def pair_z(kind, u, v):
    """Z entry for a coordinate pair (complex-safe)."""
    _check_kind(kind)
    d = u - v
    if kind == RATIONAL:
        return 1.0 / d
    return (1.0 + u * v) / d


def check_collisions(sites, rapidities):
    """Raise CollisionError if a rapidity lies within COLLISION_TOL of a site
    or of another rapidity; the error's pair is ("level", i, a) or
    ("rapidity", a, b), for the first collision in rapidity order."""
    for a, w in enumerate(rapidities):
        for i, e in enumerate(sites):
            if abs(w - e) < COLLISION_TOL:
                raise CollisionError(
                    f"rapidity {a} collides with level {i} at {e}", pair=("level", i, a)
                )
        for b in range(a + 1, len(rapidities)):
            if abs(w - rapidities[b]) < COLLISION_TOL:
                raise CollisionError(
                    f"rapidities {a} and {b} collide at {w}", pair=("rapidity", a, b)
                )


def _fill_pairwise(kind, coords):
    """X and Z over every coordinate pair, zero on the diagonal: pair_x and
    pair_z's formulas as array formulas over the (n, n) array of differences
    u_i - u_j, whose diagonal is set to 1 and its entries to 0 afterwards."""
    _check_kind(kind)
    u = np.asarray(coords)
    d = u[:, None] - u  # d[i, j] = u_i - u_j
    np.fill_diagonal(d, 1.0)
    if kind == RATIONAL:
        x, z = 1.0 / d, 1.0 / d
    else:
        root = np.sqrt(1.0 + u * u + 0j)
        x = np.multiply.outer(root, root) / d
        z = (1.0 + np.multiply.outer(u, u)) / d
    np.fill_diagonal(x, 0.0)
    np.fill_diagonal(z, 0.0)
    if not np.iscomplexobj(coords) and x.dtype.kind == "c":
        # real coordinates give real matrices even in the trigonometric case;
        # the complex square root is kept, as in pair_x, whose last bits a
        # real one does not reproduce
        x = x.real.copy() if np.max(np.abs(x.imag)) == 0.0 else x
    return x, z


def build_gaudin(kind, levels):
    """Construct the m x m X, Z matrices for a level set."""
    coords = np.asarray(levels.etas)
    x, z = _fill_pairwise(kind, coords)
    return GaudinMatrices(kind=kind, dim=levels.m, x=x, z=z)


def extend_with_rapidities(matrices, levels, rapidities):
    """Extend to the (m + N)-dimensional matrices over levels and rapidities."""
    check_collisions(levels.etas, rapidities.values)
    values = np.asarray(rapidities.values, dtype=complex)
    etas = np.asarray(levels.etas)
    coords = np.concatenate([etas.astype(complex), values])
    x, z = _fill_pairwise(matrices.kind, coords)
    # keep the original m x m block bit-identical
    x[: levels.m, : levels.m] = matrices.x
    z[: levels.m, : levels.m] = matrices.z
    return GaudinMatrices(kind=matrices.kind, dim=len(coords), x=x, z=z)


def eta0_infinity_row(etas):
    """Trigonometric X_{0k}, Z_{0k} rows in the eta_0 -> infinity limit.

    X_{0k} = sqrt(1 + eta_k^2), Z_{0k} = eta_k; together with the finite block
    these still satisfy the compatibility condition.
    """
    etas = np.asarray(etas)
    return np.sqrt(1.0 + etas * etas), etas.copy()


def deformed_weight(xi, s, omega):
    """xi * s(xi) = xi*s + (1 - xi)*omega, the weight a level of spin s(1) = s
    carries in the deformed equations; finite on all of [0, 1], where s(xi)
    itself diverges at xi = 0."""
    return xi * s + (1.0 - xi) * omega


def unitary_xi(omega, n):
    """The discrete deformation value xi_n = 2*omega / (n + 2*omega)."""
    if n < 0 or int(n) != n:
        raise DomainError(f"grid index must be a nonnegative integer, got {n}")
    return 2.0 * omega / (n + 2.0 * omega)


def grid_index(omega, xi, tol=1e-9):
    """Inverse of unitary_xi; returns the integer n, or None if xi is off-grid."""
    if xi <= 0.0 or xi > 1.0:
        return None
    n = 2.0 * omega * (1.0 / xi - 1.0)
    return int(round(n)) if abs(n - round(n)) < tol else None


def grid_label(s, omega, xi):
    """Deformed irrep label s(xi) = s + (1/xi - 1)*omega = s + n/2 at the
    unitary point xi = xi_n; raises RepresentationError off the grid (which
    includes xi outside (0, 1])."""
    n = grid_index(omega, xi)
    if n is None:
        raise RepresentationError(f"xi = {xi} is off the unitary grid of omega = {omega}")
    return s + n / 2.0


def gaudin_residual(matrices):
    """Max |X_ij X_jk - X_ik (Z_ij + Z_jk)| over all distinct triples (0 with
    fewer than three coordinates), over the (n, n, n) array of triples."""
    n = matrices.dim
    if n < 3:
        return 0.0
    x, z = matrices.x, matrices.z
    r = np.abs(x[:, :, None] * x[None, :, :] - x[:, None, :] * (z[:, :, None] + z[None, :, :]))
    i, j, k = np.ogrid[:n, :n, :n]
    return float(r[(i != j) & (j != k) & (i != k)].max())
