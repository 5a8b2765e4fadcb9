"""Exact-diagonalization oracle on truncated tensor-product Hilbert spaces.

Every operator, from a Dicke expression or an RG charge, is a sum of terms
(coefficient, product of per-site symbols) realized as a sparse complex
matrix on the full truncated product basis by one routine, `_assemble`: it
forms each term's Kronecker nonzeros by index arithmetic and keeps all of
them as one `CooMatrix`, canonical COO triplets on numpy arrays.  Spectra
are taken per excitation sector, scattering one sector's entries into a
dense block at a time, so the oracle reaches product spaces (m = 10
spin-1/2 levels at boson cutoff 20, 21504 states) whose dense matrices would
not fit in memory.  Spectra, commutator norms and eigenvector residuals
anchor the numerical claims made by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        self._index_sectors(total.astype(int))

    def _index_sectors(self, excitations):
        """Keep each state's excitation number and, from one stable argsort
        of them, its position within its sector; both read-only."""
        order = np.argsort(excitations, kind="stable")
        ranked = excitations[order]
        position = np.empty_like(order)
        position[order] = np.arange(len(order)) - np.searchsorted(ranked, ranked)
        excitations.flags.writeable = position.flags.writeable = False
        self._excitations, self._position = excitations, position

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

    def sector_positions(self):
        """Position of every state within its sector's sector_indices;
        computed once per basis, read-only."""
        return self._position


class RestrictedBasis(HilbertBasis):
    """Subspace of a HilbertBasis spanned by a fixed index set."""

    def __init__(self, parent, indices):
        self.parent = parent
        self.indices = np.asarray(indices, dtype=int)
        self.factors = parent.factors
        self.total_dim = len(self.indices)
        self._index_sectors(parent.excitation_numbers()[self.indices])


class CooMatrix:
    """Sparse matrix as canonical COO triplets: `rows`, `cols` and `data`
    sorted by (row, col), one entry per matrix element, no exact zeros.

    It carries what the oracle needs and nothing more: products with a
    vector or a block of columns (`np.bincount` over the rows, in column
    order within a row) and with another CooMatrix, scalar multiples,
    differences, the conjugate transpose `H`, entrywise moduli, restriction
    to index sets and a dense copy.  Moduli and scalar multiples keep the
    triplets' order; the other results are put in canonical form anew.
    """

    __slots__ = ("rows", "cols", "data", "shape")
    __array_ufunc__ = None  # a numpy scalar times a CooMatrix defers to __rmul__

    def __init__(self, rows, cols, data, shape):
        """Canonical form of triplets in any order: the entries that fall on
        one element are summed in the order given, and exact zeros dropped."""
        shape = (int(shape[0]), int(shape[1]))
        key = np.asarray(rows, dtype=np.int64) * shape[1] + np.asarray(cols, dtype=np.int64)
        data = np.asarray(data)
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            # a left-to-right sum per element (np.add.reduceat would sum
            # complex runs pairwise)
            key, data = key[first], _bincount(np.cumsum(first) - 1, data, np.count_nonzero(first))
        keep = data != 0
        self.rows, self.cols = np.divmod(key[keep], shape[1])
        self.data = data[keep]
        self.shape = shape

    @classmethod
    def from_dense(cls, mat):
        rows, cols = np.nonzero(mat)
        return cls(rows, cols, mat[rows, cols], mat.shape)

    @property
    def nnz(self):
        return len(self.data)

    @property
    def H(self):
        """Conjugate transpose."""
        return CooMatrix(self.cols, self.rows, self.data.conj(), self.shape[::-1])

    @classmethod
    def _canonical(cls, rows, cols, data, shape):
        """A CooMatrix of triplets that are canonical already, taken as given."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.data, out.shape = rows, cols, data, shape
        return out

    def __abs__(self):
        # the modulus of a nonzero is nonzero: the triplets stay canonical
        return CooMatrix._canonical(self.rows, self.cols, np.abs(self.data), self.shape)

    def __mul__(self, scalar):
        # only a zero scalar, or an underflow, makes a zero entry
        data = scalar * self.data
        keep = data != 0
        return CooMatrix._canonical(self.rows[keep], self.cols[keep], data[keep], self.shape)

    __rmul__ = __mul__

    def __sub__(self, other):
        if self.shape != other.shape:
            raise BasisMismatchError("operators live on different bases")
        return CooMatrix(np.concatenate((self.rows, other.rows)),
                         np.concatenate((self.cols, other.cols)),
                         np.concatenate((self.data, -other.data)), self.shape)

    def __matmul__(self, other):
        if isinstance(other, CooMatrix):
            return self._matmat(other)
        vec = np.asarray(other)
        if vec.ndim not in (1, 2) or len(vec) != self.shape[1]:
            raise BasisMismatchError("vector length does not match the matrix")
        # one bin per (row, column) of a block, each column summed as alone
        block = vec if vec.ndim == 2 else vec[:, None]
        k = block.shape[1]
        bins = (self.rows[:, None] * k + np.arange(k)).ravel()
        out = _bincount(bins, (self.data[:, None] * block[self.cols]).ravel(), self.shape[0] * k)
        return out.reshape((self.shape[0],) + vec.shape[1:])

    def _matmat(self, other):
        """Every entry (i, k) of self times every entry (k, j) of other,
        found through other's row starts and summed per element."""
        if self.shape[1] != other.shape[0]:
            raise BasisMismatchError("operators live on different bases")
        starts = np.searchsorted(other.rows, np.arange(other.shape[0] + 1))
        first, counts = starts[self.cols], np.diff(starts)[self.cols]
        offset = np.cumsum(counts) - counts
        take = np.repeat(first - offset, counts) + np.arange(counts.sum())
        return CooMatrix(np.repeat(self.rows, counts), other.cols[take],
                         np.repeat(self.data, counts) * other.data[take],
                         (self.shape[0], other.shape[1]))

    def restrict(self, indices, columns=None):
        """Sub-matrix on the given row indices and column indices (the row
        indices by default), each in their order."""
        indices = np.asarray(indices, dtype=np.int64)
        columns = indices if columns is None else np.asarray(columns, dtype=np.int64)

        def position(index, n):
            where = np.full(n, -1, dtype=np.int64)
            where[index] = np.arange(len(index))
            return where

        rows = position(indices, self.shape[0])[self.rows]
        cols = position(columns, self.shape[1])[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        return CooMatrix(rows[keep], cols[keep], self.data[keep], (len(indices), len(columns)))

    def toarray(self):
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        dense[self.rows, self.cols] = self.data
        return dense


def _bincount(bins, values, n):
    """Sums of real or complex values per bin, each taken left to right."""
    if not np.iscomplexobj(values):
        return np.bincount(bins, values, n)
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(bins, values.real, n)
    out.imag = np.bincount(bins, values.imag, n)
    return out


def _max_abs(coo):
    return float(np.abs(coo.data).max(initial=0.0))


@dataclass
class MatrixOperator:
    """Complex matrix over a HilbertBasis, stored as a CooMatrix whether it
    is given dense or sparse."""

    coo: CooMatrix
    basis: HilbertBasis
    hermitian: bool = False

    def __post_init__(self):
        if not isinstance(self.coo, CooMatrix):
            self.coo = CooMatrix.from_dense(np.asarray(self.coo, dtype=complex))
        if self.coo.shape != (self.basis.total_dim, self.basis.total_dim):
            raise BasisMismatchError("matrix dimension does not match basis")
        if self.hermitian:
            dev = _max_abs(self.coo - self.coo.H)
            if dev > 1e-12 * max(1.0, _max_abs(self.coo)):
                raise ValidationError(f"hermitian flag set but deviation is {dev:.3e}")

    @property
    def matrix(self):
        """Read-only dense copy of the whole operator."""
        dense = self.coo.toarray()
        dense.flags.writeable = False
        return dense

    def restrict(self, indices):
        """Sparse sub-matrix on the given basis indices."""
        return self.coo.restrict(indices)


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
    """CooMatrix of a sum of terms (coefficient, ((symbol, level), ...)).

    The Kronecker nonzeros of every term are concatenated into one CooMatrix,
    which adds up the entries that several terms place on one matrix element.
    """
    dims = [f.dim for f in basis.factors]
    local = [_local_ops(f) for f in basis.factors]
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))]
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
    rows, cols, data = (np.concatenate(a) for a in zip(*parts))
    return CooMatrix(rows, cols, data, (basis.total_dim,) * 2)


def realize(expr, basis):
    """Realize an OperatorExpression as a sparse matrix on the given basis."""
    return MatrixOperator(_assemble(expr.terms, basis), basis, hermitian=expr.hermitian)


def spectrum(op):
    """Sorted real eigenvalues of a hermitian operator (full dense diagonalization)."""
    if not op.hermitian:
        raise ValidationError("spectrum requires a hermitian operator")
    return np.sort(np.linalg.eigvalsh(op.matrix))


# no caller in the package: kept because perfbench/tracing.py patches this name
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
    basis, coo = op.basis, op.coo
    dim = len(basis.sector_indices(m_value))
    if dim == 0:
        return np.array([])
    exc = basis.excitation_numbers()
    in_rows = exc[coo.rows] == m_value
    # invariant iff no entry has just one of its row and its column in the
    # sector; both sides count, as the hermitian flag allows some asymmetry
    if np.any(in_rows != (exc[coo.cols] == m_value)):
        raise ValidationError(f"operator links sector M = {m_value} to other sectors")
    pos = basis.sector_positions()
    block = np.zeros((dim, dim), dtype=complex)
    block[pos[coo.rows[in_rows]], pos[coo.cols[in_rows]]] = coo.data[in_rows]
    return np.sort(np.linalg.eigvalsh(block))


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
    if a.coo.shape != b.coo.shape:
        raise BasisMismatchError("operators live on different bases")
    c = a.coo @ b.coo - b.coo @ a.coo
    return float(np.linalg.norm(c.data))


def eigencheck(op, v):
    """Rayleigh quotient and relative eigen-residual of a trial vector, or of
    each column of a block of them.

    The residual |O v - rho v| is taken relative to | |O| |v| | (entrywise
    moduli), the scale of the terms that O v sums on this vector: it does
    not vanish at an eigenvalue zero, as |O v| does, and it does not grow
    with rows of O that v never reaches, as |O|_inf does.  A block takes one
    product O V and one |O| |V|; it returns an array of each.
    """
    v = np.asarray(v, dtype=complex)
    block = v if v.ndim == 2 else v.ravel()[:, None]
    nv = np.linalg.norm(block, axis=0)
    if not np.all(nv > 0.0):
        raise ValidationError("eigencheck needs a nonzero vector")
    ov = op.coo @ block
    rayleigh = np.einsum("ik,ik->k", block.conj(), ov) / (nv * nv)
    if op.hermitian:
        rayleigh = rayleigh.real
    scale = np.linalg.norm(abs(op.coo) @ np.abs(block), axis=0)
    rel = np.linalg.norm(ov - rayleigh * block, axis=0) / np.maximum(scale, 1e-300)
    if v.ndim == 2:
        return rayleigh, rel
    return rayleigh[0], float(rel[0])


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
