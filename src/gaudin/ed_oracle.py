"""Exact-diagonalization oracle on truncated tensor-product Hilbert spaces.

Every operator, from a Dicke expression or an RG charge, is a sum of terms
(coefficient, product of per-site symbols) realized as a sparse complex CSR
matrix on the full truncated product basis by one routine, `_assemble`: it
forms each term's Kronecker nonzeros by index arithmetic and builds one CSR
from all of them.  Spectra are taken per excitation sector, densifying one
sector block at a time, so the oracle reaches product spaces (m = 10
spin-1/2 levels at boson cutoff 20, 21504 states) whose dense matrices would
not fit in memory.  Spectra, commutator norms and eigenvector residuals
anchor the numerical claims made by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import algebra
from .errors import (
    BasisMismatchError,
    DomainError,
    RepresentationError,
    ValidationError,
)

BOSON = "boson"
SPIN = "spin"
TRUNC_SPIN = "trunc_spin"  # lowest weights of a (possibly large) spin irrep


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a truncated Fock mode or a spin-s irrep."""

    kind: str
    dim: int
    spin: float = 0.0  # irrep label for SPIN / TRUNC_SPIN factors

    def excitation_weights(self):
        # boson: n; spin: mu + s; trunc_spin: weight index above lowest
        return np.arange(self.dim)


def _boson_ops(dim):
    n = np.arange(dim)
    bdag = np.zeros((dim, dim))
    bdag[1:, :-1] = np.diag(np.sqrt(n[1:]))
    return {"bdag": bdag, "b": bdag.T.copy(), "n": np.diag(n.astype(float))}


def _spin_ops(s, dim):
    # weights mu = -s + i, i = 0 .. dim-1, truncated from above when dim < 2s+1
    mu = -s + np.arange(dim)
    sp = np.zeros((dim, dim))
    amp = np.sqrt(s * (s + 1.0) - mu[:-1] * (mu[:-1] + 1.0))
    sp[1:, :-1] = np.diag(amp)
    return {"sp": sp, "sm": sp.T.copy(), "sz": np.diag(mu)}


def _local_ops(factor):
    if factor.kind == BOSON:
        return _boson_ops(factor.dim)
    ops = _spin_ops(factor.spin, factor.dim)
    if factor.kind == TRUNC_SPIN:
        # canonical su(2) triple of the deformed copy, exposed as A-operators
        return {"Adag": ops["sp"], "A": ops["sm"], "A0": ops["sz"]}
    return ops


# symbols of a mode (a boson or the deformed copy); factor 0 when given no level
MODE_SYMBOLS = frozenset({"bdag", "b", "n", "Adag", "A", "A0"})


class HilbertBasis:
    """Truncated tensor-product basis with optional excitation-number sectors."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValidationError("basis needs at least one factor")
        self.total_dim = int(np.prod([f.dim for f in self.factors]))
        total = np.zeros(1)
        for f in self.factors:
            total = (total[:, None] + f.excitation_weights()[None, :]).ravel()
        self._excitations = total.astype(int)
        self._excitations.flags.writeable = False

    @classmethod
    def dicke(cls, spec, boson_cutoff):
        """Fock mode (cutoff + 1 states) tensored with the spin levels."""
        if boson_cutoff < 0:
            raise DomainError("boson cutoff must be >= 0")
        factors = [Factor(BOSON, boson_cutoff + 1)]
        factors += [Factor(SPIN, int(round(2 * s + 1)), s) for s in spec.spins]
        return cls(factors)

    @classmethod
    def spins(cls, spins):
        return cls([Factor(SPIN, int(round(2 * s + 1)), s) for s in spins])

    @classmethod
    def bosons(cls, cutoffs):
        return cls([Factor(BOSON, c + 1) for c in cutoffs])

    @classmethod
    def deformed_dicke(cls, spec, boson_cutoff, deformed_label):
        """Deformed copy (lowest cutoff+1 weights of spin-s(xi)) + spin levels."""
        if 2 * deformed_label + 1 < boson_cutoff + 1:
            raise RepresentationError(
                f"irrep of label {deformed_label} has fewer than {boson_cutoff + 1} weights"
            )
        factors = [Factor(TRUNC_SPIN, boson_cutoff + 1, deformed_label)]
        factors += [Factor(SPIN, int(round(2 * s + 1)), s) for s in spec.spins]
        return cls(factors)

    def excitation_numbers(self):
        """Excitation count (boson n plus spin weight above lowest) per basis
        state; computed once per basis, read-only."""
        return self._excitations

    def sector_indices(self, m_value):
        return np.nonzero(self.excitation_numbers() == m_value)[0]


class RestrictedBasis(HilbertBasis):
    """Subspace of a HilbertBasis spanned by a fixed index set."""

    def __init__(self, parent, indices):
        self.parent = parent
        self.indices = np.asarray(indices, dtype=int)
        self.factors = parent.factors
        self.total_dim = len(self.indices)
        self._excitations = parent.excitation_numbers()[self.indices]
        self._excitations.flags.writeable = False


@dataclass
class MatrixOperator:
    """Complex matrix over a HilbertBasis, stored as CSR whether it is given
    dense or sparse."""

    csr: sparse.csr_array
    basis: HilbertBasis
    hermitian: bool = False

    def __post_init__(self):
        self.csr = sparse.csr_array(self.csr, dtype=complex)
        if self.csr.shape != (self.basis.total_dim, self.basis.total_dim):
            raise BasisMismatchError("matrix dimension does not match basis")
        if self.hermitian:
            dev = abs(self.csr - self.csr.conj().T).max()
            if dev > 1e-12 * max(1.0, abs(self.csr).max()):
                raise ValidationError(f"hermitian flag set but deviation is {dev:.3e}")

    @property
    def matrix(self):
        """Read-only dense copy of the whole operator."""
        dense = self.csr.toarray()
        dense.flags.writeable = False
        return dense

    def restrict(self, indices):
        """Sparse sub-matrix on the given basis indices."""
        return self.csr[indices][:, indices]


def _factor_index(basis, symbol, level):
    """Factor 0 for a mode symbol without a level, else the level's factor:
    level k is factor k + 1 behind a Dicke basis's mode, else factor k."""
    if level is None:
        if symbol in MODE_SYMBOLS:
            return 0
        raise BasisMismatchError(f"symbol {symbol} needs a level")
    factors = basis.factors
    idx = level + int(factors[0].kind != factors[-1].kind)
    if not 0 <= idx < len(factors):
        raise BasisMismatchError(f"level {level} absent from basis")
    return idx


def _kron_nonzeros(dims, per_site):
    """Rows, columns and values of the Kronecker product over factors of the
    given dimensions, with the dense matrix per_site[i] on factor i and the
    identity wherever per_site[i] is None.

    Nonzeros are combined factor by factor: a combined index times the next
    factor's dimension plus its local index, the ordering of np.kron.
    """
    rows = cols = np.zeros(1, dtype=np.int64)
    data = np.ones(1, dtype=complex)
    for d, op in zip(dims, per_site):
        if op is None:
            r = c = np.arange(d)
            v = np.ones(d)
        else:
            r, c = np.nonzero(op)
            v = op[r, c]
        rows = (rows[:, None] * d + r).ravel()
        cols = (cols[:, None] * d + c).ravel()
        data = (data[:, None] * v).ravel()
    return rows, cols, data


def _assemble(terms, basis):
    """CSR matrix of a sum of terms (coefficient, ((symbol, level), ...)).

    The Kronecker nonzeros of every term are concatenated into one CSR, which
    adds up the entries that several terms place on one matrix element.
    """
    dims = [f.dim for f in basis.factors]
    local = [_local_ops(f) for f in basis.factors]
    parts = []
    for coeff, factors in terms:
        per_site = [None] * len(dims)
        for symbol, level in factors:
            idx = _factor_index(basis, symbol, level)
            if symbol not in local[idx]:
                raise BasisMismatchError(
                    f"symbol {symbol} undefined on factor {idx} ({basis.factors[idx].kind})"
                )
            op = local[idx][symbol]
            per_site[idx] = op if per_site[idx] is None else per_site[idx] @ op
        r, c, v = _kron_nonzeros(dims, per_site)
        parts.append((r, c, coeff * v))
    n = basis.total_dim
    if not parts:
        return sparse.csr_array((n, n), dtype=complex)
    rows, cols, data = (np.concatenate(a) for a in zip(*parts))
    return sparse.csr_array((data, (rows, cols)), shape=(n, n))


def realize(expr, basis):
    """Realize an OperatorExpression as a sparse matrix on the given basis."""
    return MatrixOperator(_assemble(expr.terms, basis), basis, hermitian=expr.hermitian)


def spectrum(op):
    """Sorted real eigenvalues of a hermitian operator (full dense diagonalization)."""
    if not op.hermitian:
        raise ValidationError("spectrum requires a hermitian operator")
    return np.sort(np.linalg.eigvalsh(op.matrix))


def eigensystem(op):
    if not op.hermitian:
        raise ValidationError("eigensystem requires a hermitian operator")
    return np.linalg.eigh(op.matrix)


def sector_spectrum(op, m_value):
    """Eigenvalues of the restriction to the excitation-number-M sector.

    The sector must be invariant: an operator with a nonzero entry between
    the sector and any other state is refused, since its restriction would
    not carry a part of its spectrum.
    """
    if not op.hermitian:
        raise ValidationError("sector_spectrum requires a hermitian operator")
    idx = op.basis.sector_indices(m_value)
    if len(idx) == 0:
        return np.array([])
    csr = op.csr
    rows = csr[idx]
    block = rows[:, idx]
    inside = np.zeros(op.basis.total_dim, dtype=bool)
    inside[idx] = True
    # invariant iff neither the sector's rows nor its columns hold a nonzero off
    # the block; both are checked, as the hermitian flag allows some asymmetry
    n_block = np.count_nonzero(block.data)
    if (np.count_nonzero(rows.data) != n_block
            or np.count_nonzero(csr.data[inside[csr.indices]]) != n_block):
        raise ValidationError(f"operator links sector M = {m_value} to other sectors")
    return np.sort(np.linalg.eigvalsh(block.toarray()))


def restrict_to_closed_sectors(op):
    """Sub-operator on excitation sectors unaffected by mode truncation.

    Number-conserving operators act exactly on sectors whose total
    excitation count fits under every truncated mode; above that, the
    clipped ladder leaks at the top row and commutation identities fail
    as a pure cutoff artifact.  Bases with no truncated mode pass through.
    """
    basis = op.basis
    caps = [f.dim - 1 for f in basis.factors if f.kind in (BOSON, TRUNC_SPIN)]
    if not caps:
        return op
    keep = np.nonzero(basis.excitation_numbers() <= min(caps))[0]
    sub = RestrictedBasis(basis, keep)
    return MatrixOperator(op.restrict(keep), sub, hermitian=op.hermitian)


def commutator_norm(a, b):
    """Frobenius norm of AB - BA."""
    if a.csr.shape != b.csr.shape:
        raise BasisMismatchError("operators live on different bases")
    c = a.csr @ b.csr - b.csr @ a.csr
    return float(np.linalg.norm(c.data))


def eigencheck(op, v):
    """Rayleigh quotient and relative eigen-residual of a trial vector.

    The residual |O v - rho v| is taken relative to | |O| |v| | (entrywise
    moduli), the scale of the terms that O v sums on this vector: it does
    not vanish at an eigenvalue zero, as |O v| does, and it does not grow
    with rows of O that v never reaches, as |O|_inf does.
    """
    v = np.asarray(v, dtype=complex).ravel()
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValidationError("eigencheck needs a nonzero vector")
    ov = op.csr @ v
    rayleigh = np.vdot(v, ov) / (nv * nv)
    if op.hermitian:
        rayleigh = rayleigh.real
    scale = np.linalg.norm(abs(op.csr) @ np.abs(v))
    rel = np.linalg.norm(ov - rayleigh * v) / max(scale, 1e-300)
    return rayleigh, float(rel)


def realize_rg_charges(spec, xi, boson_cutoffs=None):
    """The m conserved charges as matrices: xi = 1 (spin irreps), xi on the
    unitary grid (enlarged irreps of the canonical triple, coupling g*xi), or
    xi = 0 (purely bosonic quadratic forms on truncated Fock modes)."""
    levels = spec.levels
    g = spec.coupling_g
    mats = algebra.build_gaudin(spec.kind, levels)
    x, z = mats.x, mats.z
    m = levels.m
    if xi == 0.0:
        if boson_cutoffs is None:
            raise DomainError("xi = 0 charges need boson cutoffs per level")
        basis = HilbertBasis.bosons(list(boson_cutoffs))
    elif xi == 1.0:
        basis = HilbertBasis.spins(levels.spins)
    else:
        # a unitary grid point: spin irreps of the canonical triple
        basis = HilbertBasis.spins([
            algebra.grid_label(s, omega, xi)
            for s, omega in zip(levels.spins, levels.degeneracies)
        ])
    omegas = levels.degeneracies
    g_eff = g * xi  # exactly g at xi = 1
    charges = []
    for i in range(m):
        others = [k for k in range(m) if k != i]
        if xi == 0.0:
            terms = [(1.0, (("n", i),))]
            for k in others:
                hop = 0.25 * g * x[i, k] * np.sqrt(omegas[i] * omegas[k])
                terms += [(hop, (("bdag", i), ("b", k))), (hop, (("bdag", k), ("b", i))),
                          (-0.25 * g * z[i, k] * omegas[i], (("n", k),)),
                          (-0.25 * g * z[i, k] * omegas[k], (("n", i),))]
        else:
            terms = [(1.0, (("sz", i),))]
            for k in others:
                mix = 0.5 * g_eff * x[i, k]
                terms += [(mix, (("sp", k), ("sm", i))), (mix, (("sp", i), ("sm", k))),
                          (g_eff * z[i, k], (("sz", i), ("sz", k)))]
        # the quadratic forms conserve total occupation; outside the sectors
        # that fit under the smallest cutoff, [b, b'] != 1 at the cutoff row
        # and commutation fails as a pure truncation artifact (spin bases
        # pass through)
        op = MatrixOperator(_assemble(terms, basis), basis, hermitian=True)
        charges.append(restrict_to_closed_sectors(op))
    return charges
