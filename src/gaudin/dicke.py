"""Contraction-limit objects: the Dicke Hamiltonian, its conserved charges,
the partially deformed charge R0(xi), and Bethe product-state amplitudes.

Operator expressions are symbolic sums of elementary-operator products; the
oracle realizes them as matrices.  The deformed copy is handled through the
canonical su(2) triple with label s0(xi) = omega0/(4 xi), the unique choice
for which hbar_omega * R0(xi) reproduces the Dicke Hamiltonian in the
contraction limit (coupling G, level terms eps_k) with no leftover factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ed_oracle, rg_core
from .errors import (
    CutoffError,
    DegenerateLevelError,
    DomainError,
    RepresentationError,
    ValidationError,
)

# symbol order used for the canonical factor ordering: mode first, spins by level
_MODE_SYMBOLS = ("bdag", "b", "n", "Adag", "A", "A0")


@dataclass(frozen=True)
class OperatorExpression:
    """Sum of terms (coefficient, product of elementary operator symbols)."""

    terms: tuple
    hermitian: bool = False

    def __post_init__(self):
        canon = []
        for coeff, factors in self.terms:
            coeff = complex(coeff)
            if not np.isfinite(coeff):
                raise ValidationError("coefficients must be finite")
            factors = tuple(factors)
            # boson/deformed-mode factors first, then spin factors by level
            factors = tuple(
                sorted(
                    factors,
                    key=lambda f: (-1, 0) if f[0] in _MODE_SYMBOLS else (f[1], 1),
                )
            )
            canon.append((coeff, factors))
        object.__setattr__(self, "terms", tuple(canon))

    def coefficient(self, *factors):
        """Sum of coefficients of terms whose factor product matches exactly."""
        want = tuple(
            sorted(factors, key=lambda f: (-1, 0) if f[0] in _MODE_SYMBOLS else (f[1], 1))
        )
        return sum(c for c, fs in self.terms if fs == want)


def build_dicke_hamiltonian(spec):
    """H = hw b'b + sum_k eps_k Sz_k + G sum_k (b' S_k + S'_k b)."""
    terms = [(spec.hbar_omega, (("n", None),))]
    for k, eps in enumerate(spec.epsilons):
        terms.append((eps, (("sz", k),)))
    for k in range(spec.m):
        terms.append((spec.coupling_G, (("bdag", None), ("sm", k))))
        terms.append((spec.coupling_G, (("b", None), ("sp", k))))
    return OperatorExpression(tuple(terms), hermitian=True)


def excitation_number(spec):
    """M = b'b + sum_k (Sz_k + s_k); conserved by the Dicke Hamiltonian."""
    terms = [(1.0, (("n", None),))]
    for k, s in enumerate(spec.spins):
        terms.append((1.0, (("sz", k),)))
        terms.append((s, ()))
    return OperatorExpression(tuple(terms), hermitian=True)


def build_dicke_charge(spec, i):
    """hw R_i = (hw - eps_i) Sz_i
    + sum_{k != i} 2G^2/(eps_k - eps_i) [ (S'_i S_k + S'_k S_i)/2 + Sz_i Sz_k ]
    - G (S'_i b + b' S_i).

    Index 0 returns the Hamiltonian itself (hw R_0 in the contraction limit,
    with the divergent constant dropped); spin levels are indexed from 1.
    """
    if i == 0:
        return build_dicke_hamiltonian(spec)
    k0 = i - 1
    if not 0 <= k0 < spec.m:
        raise DomainError(f"charge index {i} out of range for m = {spec.m}")
    eps = spec.epsilons
    gg2 = 2.0 * spec.coupling_G**2
    terms = [(spec.hbar_omega - eps[k0], (("sz", k0),))]
    for k in range(spec.m):
        if k == k0:
            continue
        denom = eps[k] - eps[k0]
        if abs(denom) < 1e-14:
            raise DegenerateLevelError(f"levels {k0} and {k} degenerate")
        c = gg2 / denom
        terms.append((0.5 * c, (("sp", k0), ("sm", k))))
        terms.append((0.5 * c, (("sp", k), ("sm", k0))))
        terms.append((c, (("sz", k0), ("sz", k))))
    terms.append((-spec.coupling_G, (("b", None), ("sp", k0))))
    terms.append((-spec.coupling_G, (("bdag", None), ("sm", k0))))
    return OperatorExpression(tuple(terms), hermitian=True)


def deformed_copy_label(xi, omega0):
    """Irrep label s0(xi) = omega0/(4 xi) of the deformed copy."""
    if xi <= 0.0 or xi > 1.0:
        raise DomainError(f"xi = {xi} outside (0, 1]")
    return omega0 / (4.0 * xi)


def contraction_grid_xi(omega0, k):
    """Deformation values xi = omega0/(omega0 + 2k) at which s0(xi) gains k/2.

    These are the unitary points of the single-copy construction (the subset
    n = 4k of the 2*omega/(n + 2*omega) grid).
    """
    if k < 0 or int(k) != k:
        raise DomainError("grid index must be a nonnegative integer")
    return omega0 / (omega0 + 2.0 * k)


def build_deformed_charge0(spec, xi, omega0=2.0):
    """R0(xi) = A0 + g sum_k [ X_0k (A' S_k + S'_k A)/2 + Z_0k A0 Sz_k ],
    with the xi-dependent coupling and level rescalings of the contraction
    construction.  Returns (expression, s0_label); the expression is in units
    of hbar_omega (hbar_omega * R0 -> H_Dicke as xi -> 0, up to the divergent
    constant)."""
    lam, g, s0 = rg_core.contraction_scales(spec, xi, omega0)
    eta_k = -lam * np.asarray(spec.epsilons)
    x0 = np.sqrt(1.0 + eta_k**2)
    z0 = eta_k
    terms = [(1.0, (("A0", None),))]
    for k in range(spec.m):
        terms.append((0.5 * g * x0[k], (("Adag", None), ("sm", k))))
        terms.append((0.5 * g * x0[k], (("A", None), ("sp", k))))
        terms.append((g * z0[k], (("A0", None), ("sz", k))))
    return OperatorExpression(tuple(terms), hermitian=True), s0


def realize_deformed_charge0(spec, xi, boson_cutoff, omega0=2.0):
    """Matrix of hbar_omega * R0(xi) on the truncated deformed-copy basis,
    requiring xi on the unitary grid (half-integer s0(xi))."""
    expr, s0 = build_deformed_charge0(spec, xi, omega0)
    if abs(2 * s0 - round(2 * s0)) > 1e-9:
        raise RepresentationError(
            f"s0(xi) = {s0} is not half-integer; xi = {xi} is off the unitary grid"
        )
    basis = ed_oracle.HilbertBasis.deformed_dicke(spec, boson_cutoff, round(2 * s0) / 2.0)
    op = ed_oracle.realize(expr, basis)
    return ed_oracle.MatrixOperator(spec.hbar_omega * op.csr, basis, hermitian=True)


@dataclass(frozen=True)
class BetheProductState:
    """Bethe product state prod_a (b' - G sum_k S'_k/(eps_k - x_a)) |theta>."""

    spec: object
    rapidities: object
    normalization: str = "unit"  # raw | unit

    def __post_init__(self):
        if self.rapidities.frame != rg_core.DICKE_X:
            raise ValidationError("Bethe rapidities must be in the dicke_x frame")
        if self.normalization not in ("raw", "unit"):
            raise ValidationError(f"unknown normalization {self.normalization!r}")
        x = self.rapidities.as_array()
        for e in self.spec.epsilons:
            if np.min(np.abs(x - e)) < 1e-12:
                raise ValidationError("rapidity collides with a level epsilon")


def bethe_coefficients(state, boson_cutoff):
    """Amplitude vector of the Bethe product state on the truncated basis.

    Each factor raises the boson number by at most one, so cutoff >= N keeps
    the expansion exact; spin raising beyond highest weight contributes zero.
    """
    spec = state.spec
    x = state.rapidities.as_array()
    n_exc = len(x)
    if boson_cutoff < n_exc:
        raise CutoffError(f"cutoff {boson_cutoff} < N = {n_exc}")
    basis = ed_oracle.HilbertBasis.dicke(spec, boson_cutoff)
    bdag = ed_oracle.realize(
        OperatorExpression(((1.0, (("bdag", None),)),)), basis
    ).csr
    raisers = [
        ed_oracle.realize(OperatorExpression(((1.0, (("sp", k),)),)), basis).csr
        for k in range(spec.m)
    ]
    # |theta>: boson vacuum, every spin at lowest weight -> basis index 0
    v = np.zeros(basis.total_dim, dtype=complex)
    v[0] = 1.0
    for xa in x:
        w = bdag @ v
        for k in range(spec.m):
            w -= spec.coupling_G / (spec.epsilons[k] - xa) * (raisers[k] @ v)
        v = w
    if state.normalization == "unit":
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValidationError("Bethe expansion collapsed to the zero vector")
        v = v / nv
    return v, basis
