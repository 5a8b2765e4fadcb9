"""Contraction-limit objects: the Dicke Hamiltonian, its conserved charges,
the partially deformed charge R0(xi), and Bethe product-state amplitudes.

Operator expressions are symbolic sums of elementary-operator products; the
oracle realizes them as matrices.  The deformed copy is handled through the
canonical su(2) triple, labelled by the levels' deformation map with
s(1) = Omega = OMEGA0/4: s0(xi) = OMEGA0/(4 xi), the unique choice for which
hbar_omega * R0(xi) reproduces the Dicke Hamiltonian in the contraction limit
(coupling G, level terms eps_k) with no leftover factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, ed_oracle, rg_core
from .errors import (
    CutoffError,
    DomainError,
    ValidationError,
)


def _canonical(factors):
    """Canonical factor order: mode factors first, then spin factors by level."""
    return tuple(sorted(
        factors, key=lambda f: (-1, 0) if f[0] in ed_oracle.MODE_SYMBOLS else (f[1], 1)
    ))


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
            canon.append((coeff, _canonical(factors)))
        object.__setattr__(self, "terms", tuple(canon))

    def coefficient(self, *factors):
        """Sum of coefficients of terms whose factor product matches exactly."""
        want = _canonical(factors)
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
        c = gg2 / (eps[k] - eps[k0])  # DickeSpec keeps levels COLLISION_TOL apart
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
    """Deformation values xi = omega0/(omega0 + 2k) at which s0(xi) gains k/2:
    the unitary grid of the copy's map, Omega = omega0/4."""
    return algebra.unitary_xi(omega0 / 4.0, k)


def build_deformed_charge0(spec, xi):
    """R0(xi) = A0 + g sum_k [ X_0k (A' S_k + S'_k A)/2 + Z_0k A0 Sz_k ],
    with the xi-dependent coupling and level rescalings of the contraction
    construction.  Returns (expression, s0_label); the expression is in units
    of hbar_omega (hbar_omega * R0 -> H_Dicke as xi -> 0, up to the divergent
    constant)."""
    lam, g, s0 = rg_core.contraction_scales(spec, xi)
    x0, z0 = algebra.eta0_infinity_row(-lam * np.asarray(spec.epsilons))
    terms = [(1.0, (("A0", None),))]
    for k in range(spec.m):
        terms.append((0.5 * g * x0[k], (("Adag", None), ("sm", k))))
        terms.append((0.5 * g * x0[k], (("A", None), ("sp", k))))
        terms.append((g * z0[k], (("A0", None), ("sz", k))))
    return OperatorExpression(tuple(terms), hermitian=True), s0


def realize_deformed_charge0(spec, xi, boson_cutoff):
    """Matrix of hbar_omega * R0(xi) on the truncated deformed-copy basis,
    requiring xi on the copy's unitary grid."""
    expr, _ = build_deformed_charge0(spec, xi)
    omega = rg_core.OMEGA0 / 4.0
    label = algebra.grid_label(omega, omega, xi)
    basis = ed_oracle.HilbertBasis.deformed_dicke(spec, boson_cutoff, label)
    op = ed_oracle.realize(expr, basis)
    return ed_oracle.MatrixOperator(spec.hbar_omega * op.coo, basis, hermitian=True)


@dataclass(frozen=True)
class BetheProductState:
    """Bethe product state prod_a (b' - G sum_k S'_k/(eps_k - x_a)) |theta>."""

    spec: object
    rapidities: object

    def __post_init__(self):
        if self.rapidities.frame != rg_core.DICKE_X:
            raise ValidationError("Bethe rapidities must be in the dicke_x frame")
        x = self.rapidities.as_array()
        for e in self.spec.epsilons:
            if np.min(np.abs(x - e)) < algebra.COLLISION_TOL:
                raise ValidationError("rapidity collides with a level epsilon")


def bethe_ladder(spec, boson_cutoff):
    """The truncated Dicke basis and the sparse matrices of b' and of every S'_k
    on it: the operators bethe_coefficients applies, realized once for all
    the states of a spec."""
    basis = ed_oracle.HilbertBasis.dicke(spec, boson_cutoff)

    def raiser(symbol, level):
        return ed_oracle.realize(OperatorExpression(((1.0, ((symbol, level),)),)), basis).coo

    return basis, raiser("bdag", None), [raiser("sp", k) for k in range(spec.m)]


def bethe_coefficients(state, boson_cutoff, ladder=None):
    """Amplitude vector of the Bethe product state on the truncated basis.

    Each factor raises the boson number by at most one, so cutoff >= N keeps
    the expansion exact; spin raising beyond highest weight contributes zero.
    A caller that expands several states of one spec passes their
    bethe_ladder(spec, boson_cutoff) as `ladder`.
    """
    spec = state.spec
    x = state.rapidities.as_array()
    n_exc = len(x)
    if boson_cutoff < n_exc:
        raise CutoffError(f"cutoff {boson_cutoff} < N = {n_exc}")
    if ladder is None:
        ladder = bethe_ladder(spec, boson_cutoff)
    basis, bdag, raisers = ladder
    # |theta>: boson vacuum, every spin at lowest weight -> basis index 0
    v = np.zeros(basis.total_dim, dtype=complex)
    v[0] = 1.0
    for xa in x:
        w = bdag @ v
        for k in range(spec.m):
            w -= spec.coupling_G / (spec.epsilons[k] - xa) * (raisers[k] @ v)
        v = w
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValidationError("Bethe expansion collapsed to the zero vector")
    return v / nv, basis
