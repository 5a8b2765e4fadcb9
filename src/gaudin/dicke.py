"""Contraction-limit objects: the Dicke Hamiltonian, its conserved charges,
the partially deformed charge R0(xi), and Bethe product-state amplitudes,
built for all the states of a spec at once on their excitation sectors.

Operator expressions are symbolic sums of elementary-operator products; the
oracle realizes them as matrices on truncated product bases.  The Bethe
vectors need no product basis: each factor of a Bethe state raises the
excitation number by one, so they are built on the sector tables 0 .. N
(digit rows of the states of each sector, sector_tables) from the blocks of
b' and S'_k between consecutive sectors (bethe_ladder), and H's sector-N
block, which checks them, is composed from the top blocks
(sector_hamiltonian).  The deformed copy is handled through the
canonical su(2) triple, labelled by the levels' deformation map with
s(1) = Omega = OMEGA0/4: s0(xi) = OMEGA0/(4 xi), the unique choice for which
hbar_omega * R0(xi) reproduces the Dicke Hamiltonian in the contraction limit
(coupling G, level terms eps_k) with no leftover factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        if len(x) != self.spec.n_excitations:
            raise ValidationError(
                f"{len(x)} rapidities for N = {self.spec.n_excitations} excitations")
        if np.min(np.abs(x[:, None] - np.asarray(self.spec.epsilons))) < algebra.COLLISION_TOL:
            raise ValidationError("rapidity collides with a level epsilon")


class Sector(NamedTuple):
    """The states of one excitation sector of a Dicke spec, in product-basis
    order: their digit rows (b, k_1 .. k_m), the photon number and each
    level's weight above lowest, and their indices b prod_k (2 s_k + 1) +
    spin code in the product basis.  The photon is the leading digit, so
    neither the order nor the indices depend on the boson cutoff."""

    digits: np.ndarray
    indices: np.ndarray

    @property
    def total_dim(self):
        return len(self.indices)


def _place_values(spec):
    """The product-basis place values of the digits (b, k_1 .. k_m)."""
    dims = [int(round(2 * s + 1)) for s in spec.spins]
    return np.cumprod([1] + dims[::-1])[::-1]


def sector_tables(spec):
    """The Sectors 0 .. N of a spec, built on first use (_sector_tables) and
    kept on the spec, their arrays read-only: the EVB batch and the records
    of one solve-dicke call read the same tables."""
    kept = spec._sectors
    if not kept:
        kept.append(_sector_tables(spec))
    return kept[0]


def _sector_tables(spec):
    """The Sectors 0 .. N of a spec.  Digit rows are built factor by factor,
    the photon first, and a partial row is dropped as soon as its excitation
    exceeds N, so no state above sector N is ever formed."""
    n = spec.n_excitations
    digits = np.arange(n + 1)[:, None]
    excitation = digits[:, 0]
    for s in spec.spins:
        k = np.arange(int(round(2 * s + 1)))
        excitation = (excitation[:, None] + k).ravel()
        keep = excitation <= n
        digits = np.column_stack((np.repeat(digits, len(k), axis=0),
                                  np.tile(k, len(digits))))[keep]
        excitation = excitation[keep]
    indices = digits @ _place_values(spec)
    sectors = tuple(Sector(digits[excitation == a], indices[excitation == a])
                    for a in range(n + 1))
    for sector in sectors:
        sector.digits.flags.writeable = sector.indices.flags.writeable = False
    return sectors


class BetheLadder(NamedTuple):
    """What bethe_coefficients applies: the Sectors 0 .. N of a spec
    (`sectors`, from sector_tables), and per excitation a < N the blocks of
    b' and of every S'_k from sector a to sector a + 1 (`steps`, one (b'
    block, S' blocks) pair per a).  Sector N (`top`) is the basis of the
    Bethe vectors and of H's block (sector_hamiltonian)."""

    sectors: tuple
    steps: tuple

    @property
    def top(self):
        return self.sectors[-1]


def _raiser(down, up, column, amplitudes, place):
    """The block from Sector `down` to Sector `up` of the operator that
    raises digit `column` by one, with amplitudes[d] on a digit d below
    len(amplitudes): a raised state lies `place` above its source in the
    product basis.  Each state has one source, so the block has at most one
    entry per row and per column."""
    digit = down.digits[:, column]
    cols = np.nonzero(digit < len(amplitudes))[0]
    rows = np.searchsorted(up.indices, down.indices[cols] + place)
    return ed_oracle.CooMatrix(rows, cols, amplitudes[digit[cols]].astype(complex),
                               (up.total_dim, down.total_dim))


def bethe_ladder(spec):
    """The BetheLadder of a spec, once for all its states.  b' carries
    sqrt(b + 1) and S'_k sqrt((k + 1)(2 s_k - k)) at weight k above lowest
    (the entries of ed_oracle's local operators), and every block comes from
    the sector tables alone: no product basis and no state above sector N.
    A sector at or below a boson cutoff holds the same states at any
    cutoff, so the blocks are those of b' and S'_k realized at any cutoff
    >= N, cut to consecutive sectors."""
    n = spec.n_excitations
    sectors = sector_tables(spec)
    amplitudes = [np.sqrt(np.arange(1.0, n + 1.0))]
    for s in spec.spins:
        k = np.arange(round(2 * s), dtype=float)
        amplitudes.append(np.sqrt((k + 1.0) * (2 * s - k)))
    place = _place_values(spec)
    steps = []
    for down, up in zip(sectors, sectors[1:]):
        bdag, *raisers = (_raiser(down, up, c, amp, place[c])
                          for c, amp in enumerate(amplitudes))
        steps.append((bdag, tuple(raisers)))
    return BetheLadder(sectors, tuple(steps))


def sector_hamiltonian(spec, ladder):
    """H's block on sector N (ladder.top), composed from the ladder's top
    step: its diagonal hw b + sum_k eps_k (k_k - s_k), and G sum_k (B P_k' +
    P_k B') with B = b' and P_k = S'_k from sector N - 1 to N.  b commutes
    with S'_k, so each product passes through sector N - 1 only, where the
    blocks are exact.  Entry for entry, and summed in the same order, this is
    realize(build_dicke_hamiltonian(spec)) at any cutoff >= N cut to sector
    N; it is a MatrixOperator on ladder.top."""
    top = ladder.top
    diag = spec.hbar_omega * top.digits[:, 0]
    for eps, s, k in zip(spec.epsilons, spec.spins, top.digits[:, 1:].T):
        diag = diag + eps * (k - s)
    rows, cols, data = [np.arange(top.total_dim)], [np.arange(top.total_dim)], [diag]
    bdag, raisers = ladder.steps[-1]
    # every state of sector N - 1 takes one photon: b' has one entry per
    # column, in column order
    for sp in raisers:
        photon, coupling = bdag.rows[sp.cols], spec.coupling_G * (bdag.data[sp.cols] * sp.data)
        rows += [photon, sp.rows]
        cols += [sp.rows, photon]
        data += [coupling, coupling]
    coo = ed_oracle.CooMatrix(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(data).astype(complex), (top.total_dim,) * 2)
    return ed_oracle.MatrixOperator(coo, top, hermitian=True)


def bethe_coefficients(states, boson_cutoff, ladder=None):
    """Unit amplitude vectors of Bethe product states of one spec.

    Each factor raises the excitation number by exactly one, so the product
    is built one sector at a time, from |theta> (sector 0, a single state)
    through sectors 1 .. N, on the blocks of a BetheLadder, for all the
    states at once: no vector holds more entries than its sector.  Any
    cutoff >= N keeps the expansion exact; spin raising beyond highest
    weight contributes zero.

    `states` is a sequence of BetheProductStates, whose vectors come back as
    the columns of a (d, B) array on sector N (ladder.top, d states), or
    one state, the batch of one, whose vector comes back on the truncated
    product basis HilbertBasis.dicke(spec, boson_cutoff), zero outside
    sector N.  Returns (amplitudes, basis).  A caller that expands the
    states of a spec in several calls passes their bethe_ladder(spec) as
    `ladder`.
    """
    single = isinstance(states, BetheProductState)
    batch = [states] if single else list(states)
    if not batch:
        raise ValidationError("bethe_coefficients needs at least one state")
    spec = batch[0].spec
    if boson_cutoff < spec.n_excitations:
        raise CutoffError(f"cutoff {boson_cutoff} < N = {spec.n_excitations}")
    if ladder is None:
        ladder = bethe_ladder(spec)
    x = np.array([s.rapidities.as_array() for s in batch])
    v = np.ones((1, len(batch)), dtype=complex)
    for xa, (bdag, raisers) in zip(x.T, ladder.steps):
        # a raiser has at most one entry per row, so each block's products
        # land on distinct rows of w
        w = np.zeros((bdag.shape[0], len(batch)), dtype=complex)
        w[bdag.rows] = bdag.data[:, None] * v[bdag.cols]
        for eps, sp in zip(spec.epsilons, raisers):
            w[sp.rows] -= spec.coupling_G / (eps - xa) * (sp.data[:, None] * v[sp.cols])
        v = w
    nv = np.linalg.norm(v, axis=0)
    if not np.all(nv > 0.0):
        raise ValidationError("Bethe expansion collapsed to the zero vector")
    v = v / nv
    if not single:
        return v, ladder.top
    basis = ed_oracle.HilbertBasis.dicke(spec, boson_cutoff)
    full = np.zeros(basis.total_dim, dtype=complex)
    full[ladder.top.indices] = v[:, 0]
    return full, basis
