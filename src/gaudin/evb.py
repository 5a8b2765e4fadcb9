"""Spin-1/2 Dicke spectra in eigenvalue-based (EVB) variables.

In U_k = G^2 sum_a 1/(eps_k - x_a), the Dicke equations of spin-1/2 levels
(rg_core.dicke_rg_residual) summed against 1/(eps_k - x_a) become m
quadratics with no poles (Babelon & Talalaev, J. Stat. Mech. P06013 (2007);
Tschirhart & Faribault, J. Phys. A 47, 405204 (2014)):

    F_k = N g + (w - eps_k) U_k - U_k^2 - g sum_{j != k} 2 s_j (U_k - U_j)/(eps_j - eps_k)

at g = G^2, w = hbar_omega.  At g = 0 their solutions are U_k in
{0, w - eps_k}, level k down or flipped: 2^m of them, and the system has no
solutions at infinity, so following all 2^m starts along a homotopy from
g = 0 to g = G^2 (Quadratics) reaches every solution.  For N < m some
endpoints are spurious: only a physical one
has a monic degree-N polynomial P, with the rapidities as its roots, that
solves the Heine-Stieltjes equation

    A [(w - x) P' - G^2 P''] - 2 G^2 sum_k s_k A_k P' = V P,

A = prod_k (eps_k - x), A_k = prod_{j != k} (eps_j - x),
V = -N A - 2 sum_k s_k U_k A_k.  Its least-squares residual is the
physicality test.  Only numpy is used; the solver polishes the roots of P on
the Dicke equations.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, ValidationError

log = logging.getLogger("gaudin")

# the homotopy: g(t) = t G^2 (1 + i GAMMA (1 - t)) and w(t) = w + i SHIFT G^2 (1 - t)
GAMMA = 0.7
SHIFT = 1.0
# step control of the tracker: a step accepted within two corrections grows,
# a rejected one halves, and a path whose step falls below MIN_STEP fails;
# points along a path are corrected to TRACK_TOL, endpoints to END_TOL
INITIAL_STEP = 1e-2
MAX_STEP = 0.1
MIN_STEP = 1e-9
MAX_CORRECTIONS = 3
TRACK_TOL = 1e-6
END_TOL = 1e-13
# endpoints closer than this (max norm, relative to the largest |U|) count as
# one; a round re-tracks them, and the failed paths, with the step cap / 4
DISTINCT_TOL = 1e-7
ROUNDS = 3
# Heine-Stieltjes residual below which an endpoint is physical, and below
# which it is still worth a polish: where solutions nearly meet, a physical
# endpoint and its spurious neighbours read 1e-5 alike (over 150 random specs
# with m <= 8, 24 of 7159 spurious endpoints read below 1e-3, the lowest 5e-5)
PHYSICAL_TOL = 1e-6
CANDIDATE_TOL = 1e-3
# the most paths one batch tracks: 2^12, m = 12 levels; a batch holds
# (paths, m, m) Jacobians, which beyond this run to gigabytes
MAX_PATHS = 2**12
# elements of one block of endpoint differences in duplicates()
BLOCK_ELEMENTS = 2**18


class Quadratics:
    """The EVB system of a spin-1/2 Dicke spec along the homotopy, batched
    over paths.

    Along t the coupling runs g(t) = t G^2 (1 + i GAMMA (1 - t)) and the
    photon energy w(t) = w + i SHIFT G^2 (1 - t); both are real at t = 1.
    The shift keeps the starts U_k in {0, w(0) - eps_k} apart and their
    Jacobian regular when a level is in resonance (eps_k = w), and the
    coupling leaves the real axis at a finite angle, so paths stay clear of
    the points where real solutions merge into complex pairs.
    """

    def __init__(self, spec):
        if spec.coupling_G == 0.0:
            raise DomainError("EVB enumeration needs G != 0")
        if 2 ** len(spec.epsilons) > MAX_PATHS:
            raise ValidationError(
                f"EVB enumeration tracks 2^m paths; m = {len(spec.epsilons)} "
                f"exceeds {MAX_PATHS} of them")
        eps = np.asarray(spec.epsilons, dtype=float)
        spins = np.asarray(spec.spins, dtype=float)
        diff = eps[None, :] - eps[:, None]  # eps_j - eps_k at [k, j]
        np.fill_diagonal(diff, 1.0)
        self.pair = 2.0 * spins[None, :] / diff
        np.fill_diagonal(self.pair, 0.0)
        self.pair_sum = self.pair.sum(axis=1)
        self.lin = spec.hbar_omega - eps
        self.n = float(spec.n_excitations)
        self.g2 = spec.coupling_G**2
        self.shift = 1j * SHIFT * self.g2
        self.m = len(eps)

    def evaluate(self, u, t):
        """F, its Jacobian in U and dF/dt for paths u (P, m) at t (P,)."""
        tc = t[:, None]
        g = self.g2 * tc * (1.0 + 1j * GAMMA * (1.0 - tc))
        dg = self.g2 * (1.0 + 1j * GAMMA * (1.0 - 2.0 * tc))
        lin = self.lin + self.shift * (1.0 - tc)
        pairs = u * self.pair_sum - u @ self.pair.T
        f = self.n * g + lin * u - u * u - g * pairs
        jac = g[:, :, None] * self.pair
        idx = np.arange(self.m)
        jac[:, idx, idx] = lin - 2.0 * u - g * self.pair_sum
        return f, jac, dg * (self.n - pairs) - self.shift * u

    def starts(self):
        """The 2^m subsets of flipped levels as a (2^m, m) bool array, and
        the paths' values at t = 0."""
        flipped = np.array(list(itertools.product((False, True), repeat=self.m)), dtype=bool)
        return flipped, np.where(flipped, self.lin + self.shift, 0.0)

    def correct(self, u, t, tol=None):
        """Up to MAX_CORRECTIONS Newton steps on each path u (in place) at t;
        returns (converged mask, corrections used).  A path has converged
        once its correction, or the next one that quadratic convergence
        predicts (size^2 / previous size), is below tol relative to |u|."""
        tol = TRACK_TOL if tol is None else tol
        todo = np.arange(len(u))
        converged = np.zeros(len(u), dtype=bool)
        used = np.zeros(len(u), dtype=int)
        prev = None
        for it in range(1, MAX_CORRECTIONS + 1):
            f, jac, _ = self.evaluate(u[todo], t[todo])
            delta = np.linalg.solve(jac, f[..., None])[..., 0]
            u[todo] -= delta
            size = np.max(np.abs(delta), axis=1)
            scale = 1.0 + np.max(np.abs(u[todo]), axis=1)
            est = size if prev is None else np.minimum(size, size * size / prev)
            done = est <= tol * scale
            converged[todo[done]] = True
            used[todo[done]] = it
            # a path whose correction is of the order of its values has left
            # the basin; evaluating it again could overflow
            keep = ~done & (size < scale)
            todo, prev = todo[keep], size[keep]
            if not len(todo):
                break
        return converged, used

    def track(self, u, max_step):
        """Follow paths u (P, m) from t = 0 to t = 1 with an Euler predictor
        and an adaptive step per path, then correct the endpoints to END_TOL.
        Returns (u at t = 1, ok)."""
        u = u.copy()
        n = len(u)
        t = np.zeros(n)
        h = np.full(n, min(INITIAL_STEP, max_step))
        alive = np.ones(n, dtype=bool)
        while True:
            act = np.nonzero(alive & (t < 1.0))[0]
            if not len(act):
                idx = np.nonzero(alive)[0]
                ends = u[idx]
                self.correct(ends, t[idx], END_TOL)
                # an ill-conditioned endpoint stops at its round-off floor
                # above END_TOL; the polish is kept unless it moved the point
                # far beyond the accuracy the path arrived with
                arrived = u[idx]
                moved = np.max(np.abs(ends - arrived), axis=1)
                keep = moved <= 1e3 * TRACK_TOL * (1.0 + np.max(np.abs(arrived), axis=1))
                u[idx[keep]] = ends[keep]
                return u, alive
            ua, ta = u[act], t[act]
            _, jac, dfdt = self.evaluate(ua, ta)
            tangent = -np.linalg.solve(jac, dfdt[..., None])[..., 0]
            last = h[act] >= 1.0 - ta
            t1 = np.where(last, 1.0, ta + h[act])
            v = ua + (t1 - ta)[:, None] * tangent
            ok, used = self.correct(v, t1)
            acc, rej = act[ok], act[~ok]
            u[acc], t[acc] = v[ok], t1[ok]
            grow = acc[used[ok] <= 2]
            h[grow] = np.minimum(2.0 * h[grow], max_step)
            h[rej] *= 0.5
            alive[rej[h[rej] < MIN_STEP]] = False

    def solve(self):
        """(flipped subsets, endpoints at g = G^2, ok mask): every start
        tracked; duplicate endpoints and failed paths are re-tracked with a
        smaller step cap, for at most ROUNDS rounds, after which one member
        of each remaining duplicate group is kept."""
        flipped, seeds = self.starts()
        ends = np.empty_like(seeds)
        ok = np.zeros(len(seeds), dtype=bool)
        redo = np.arange(len(seeds))
        for r in range(ROUNDS):
            max_step = MAX_STEP / 4.0**r
            ends[redo], ok[redo] = self.track(seeds[redo], max_step)
            dup = duplicates(ends, ok)
            log.debug("evb round %d: %d paths at step cap %.3g, %d failed, %d duplicate",
                      r, len(redo), max_step, int(np.sum(~ok[redo])), len(dup))
            redo = np.union1d(np.nonzero(~ok)[0], dup)
            if not len(redo):
                break
        keep_one_of_each(ends, ok, dup)
        return flipped, ends, ok


def duplicates(u, ok):
    """Indices of tracked endpoints (rows of u where ok) that lie within
    DISTINCT_TOL of another one."""
    idx = np.nonzero(ok)[0]
    pts = u[idx]
    if not len(pts):
        return idx
    tol = distinct_tol(pts)
    dup = np.zeros(len(pts), dtype=bool)
    block = max(1, BLOCK_ELEMENTS // pts.size)  # bounds the (block, P, m) differences
    for i in range(0, len(pts), block):
        d = np.max(np.abs(pts[i:i + block, None, :] - pts[None, :, :]), axis=2)
        rows = np.arange(len(d))
        d[rows, i + rows] = np.inf
        dup[i:i + block] = np.min(d, axis=1) <= tol
    return idx[dup]


def keep_one_of_each(u, ok, dup):
    """Clear ok, in place, for all but the last member of each group of
    duplicate endpoints dup (from duplicates(u, ok)): the paths of a group
    reached one solution, which is real even though one of them should have
    reached another."""
    if not len(dup):
        return
    tol = distinct_tol(u[ok])
    for i in dup:
        ok[i] = False
        if not np.any(np.max(np.abs(u[ok] - u[i]), axis=1) <= tol):
            ok[i] = True


def distinct_tol(pts):
    """DISTINCT_TOL relative to the largest modulus among the points."""
    return DISTINCT_TOL * (1.0 + np.max(np.abs(pts), initial=0.0))


def heine_stieltjes(spec, u):
    """Rapidities of each endpoint: the roots of the monic degree-N P of the
    Heine-Stieltjes equation, by least squares, and its relative residual.

    Solved in y = (x - c)/h, with c and h the centre and half-width of the
    levels, hbar_omega and a margin of 2 |G| sqrt(N), where the equation keeps
    its form with G^2/h^2, (eps - c)/h, (hbar_omega - c)/h and U/h.  Returns
    (roots (P, N), relative residual (P,)).
    """
    n = spec.n_excitations
    eps = np.asarray(spec.epsilons, dtype=float)
    spins = np.asarray(spec.spins, dtype=float)
    lo = min(eps.min(), spec.hbar_omega)
    hi = max(eps.max(), spec.hbar_omega)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo) + 2.0 * abs(spec.coupling_G) * np.sqrt(n)
    e, w, g2 = (eps - c) / h, (spec.hbar_omega - c) / h, spec.coupling_G**2 / h**2
    m = len(e)
    rows = m + n

    def coeffs(p):
        out = np.zeros(rows + 1, dtype=complex)
        out[:len(p)] = p
        return out

    a = npoly.polyfromroots(e) * (-1.0) ** m
    a_k = [npoly.polyfromroots(np.delete(e, k)) * (-1.0) ** (m - 1) for k in range(m)]
    base = np.empty((rows + 1, n + 1), dtype=complex)
    per_level = np.empty((m, rows + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        mono = np.zeros(i + 1)
        mono[i] = 1.0
        d1, d2 = npoly.polyder(mono), npoly.polyder(mono, 2)
        col = npoly.polymul(a, npoly.polymul([w, -1.0], d1))
        col = npoly.polysub(col, g2 * npoly.polymul(a, d2))
        for k in range(m):
            col = npoly.polysub(col, 2.0 * g2 * spins[k] * npoly.polymul(a_k[k], d1))
            per_level[k, :, i] = coeffs(2.0 * spins[k] * npoly.polymul(a_k[k], mono))
        base[:, i] = coeffs(npoly.polyadd(col, n * npoly.polymul(a, mono)))
    # the y^(m+N) row cancels identically; V P enters as -V P = N A P + ...
    mat = base[:rows] + np.einsum("pk,krc->prc", u / h, per_level[:, :rows])
    lhs, rhs = mat[..., :n], -mat[..., n]
    qm, rm = np.linalg.qr(lhs)
    q = np.linalg.solve(rm, np.einsum("pri,pr->pi", qm.conj(), rhs)[..., None])[..., 0]
    resid = np.linalg.norm(np.einsum("pri,pi->pr", lhs, q) - rhs, axis=1)
    rel = resid / np.maximum(np.linalg.norm(rhs, axis=1), np.finfo(float).tiny)
    roots = np.array([npoly.polyroots(np.append(qq, 1.0)) for qq in q])
    return c + h * roots.reshape(len(u), n), rel


def eigenvalue_variables(spec, x):
    """U_k = G^2 sum_a 1/(eps_k - x_a) of the rapidities x."""
    eps = np.asarray(spec.epsilons, dtype=float)
    return spec.coupling_G**2 * np.sum(1.0 / (eps[:, None] - np.asarray(x)), axis=1)
