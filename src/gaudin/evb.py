"""Dicke spectra of spin-1/2 levels in eigenvalue-based (EVB) variables.

In U_k = G^2 sum_a 1/(eps_k - x_a), the Dicke equations of spin-1/2 levels
(rg_core.dicke_rg_residual) summed against 1/(eps_k - x_a) become m
quadratics with no poles (Babelon & Talalaev, J. Stat. Mech. P06013 (2007);
Tschirhart & Faribault, J. Phys. A 47, 405204 (2014)):

    F_k = N g + (w - eps_k) U_k - U_k^2 - g sum_{j != k} 2 s_j (U_k - U_j)/(eps_j - eps_k)

at g = G^2, w = hbar_omega.  At g = 0 their solutions are U_k in
{0, w - eps_k}, level k down or flipped: 2^m of them, and the system has no
solutions at infinity, so following all 2^m starts along a homotopy from
g = 0 to g = G^2 (Quadratics) reaches every solution.  The tracker predicts
each step by the cubic Hermite extrapolation (hermite, the formula the
solver's continuation uses too) through a path's last two points and their
tangents dU/dt = -J^-1 dF/dt, and takes each tangent from the solve of the
correction that accepted its point, against F and dF/dt together, so that no
point is evaluated twice.  For N < m some endpoints are spurious: only a
physical one
has a monic degree-N polynomial P, with the rapidities as its roots, that
solves the Heine-Stieltjes equation

    A [(w - x) P' - G^2 P''] - 2 G^2 sum_k s_k A_k P' = V P,

A = prod_k (eps_k - x), A_k = prod_{j != k} (eps_j - x),
V = -N A - 2 sum_k s_k U_k A_k.  Its least-squares residual is the
physicality test.  The endpoint-independent parts of that equation are built
once per spec (heine_stieltjes_matrices), and the roots of every endpoint's
P come from one batched companion eigensolve.  Only numpy is used; the
solver polishes the roots of P on the Dicke equations.

A level of spin s > 1/2 enters as 2 s spin-1/2 levels a small spacing apart
(solver.split_levels): the split spec is enumerated here and its states are
polished on the equations of the unsplit one, the numerical shortcut to the
degenerate-level treatment of El Araby, Gritsev & Faribault, PRB 85, 115130
(2012).  heine_stieltjes itself takes any spins.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from .errors import DomainError, ValidationError

log = logging.getLogger("gaudin")

# the homotopy: g(t) = t G^2 (1 + i GAMMA (1 - t)) and w(t) = w + i SHIFT G^2 (1 - t)
GAMMA = 0.7
SHIFT = 1.0
# step control of the tracker: a step accepted within two corrections grows,
# a rejected one halves, and a path whose step falls below MIN_STEP fails;
# points along a path are corrected to TRACK_TOL, endpoints to END_TOL.  With
# the Hermite predictor a cap of 0.3 takes 32 and 27 evaluations per solve on
# the benchmark's two specs (0.1: 35, 35; 0.2: 31, 28) and finds every state
# of 330 random specs with m <= 10, as 0.1 does
INITIAL_STEP = 1e-2
MAX_STEP = 0.3
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
        rhs = np.empty(u.shape + (2,), dtype=complex)
        jac = self._system(u, *self._homotopy(t), rhs)
        return rhs[..., 0], jac, rhs[..., 1]

    def _homotopy(self, t):
        """The coefficients of paths at t (P,) as columns: g(t), dg/dt and
        w(t) - eps_k."""
        tc = t[:, None]
        g = self.g2 * tc * (1.0 + 1j * GAMMA * (1.0 - tc))
        dg = self.g2 * (1.0 + 1j * GAMMA * (1.0 - 2.0 * tc))
        return g, dg, self.lin + self.shift * (1.0 - tc)

    def _system(self, u, g, dg, lin, rhs):
        """The Jacobian in U of paths u (P, m) at homotopy coefficients g, dg,
        lin (_homotopy); F and dF/dt go to rhs[..., 0] and rhs[..., 1]."""
        pairs = u * self.pair_sum - u @ self.pair.T
        rhs[..., 0] = self.n * g + lin * u - u * u - g * pairs
        rhs[..., 1] = dg * (self.n - pairs) - self.shift * u
        jac = g[:, :, None] * self.pair
        idx = np.arange(self.m)
        jac[:, idx, idx] = lin - 2.0 * u - g * self.pair_sum
        return jac

    def starts(self):
        """The 2^m subsets of flipped levels as a (2^m, m) bool array, and
        the paths' values at t = 0."""
        flipped = np.array(list(itertools.product((False, True), repeat=self.m)), dtype=bool)
        return flipped, np.where(flipped, self.lin + self.shift, 0.0)

    def correct(self, u, t, tol=None):
        """Up to MAX_CORRECTIONS Newton steps on each path u (in place) at t;
        returns (converged mask, corrections used, tangents).  A path has
        converged once its correction, or the next one that quadratic
        convergence predicts (size^2 / previous size), is below tol relative
        to |u|.  Each correction solves J against F and dF/dt together: a
        converged path's tangent dU/dt = -J^-1 dF/dt is that of its last
        correction, taken where the correction started.  The homotopy's
        coefficients at t are computed once per call, and every correction
        evaluates the system as evaluate does (_system)."""
        tol = TRACK_TOL if tol is None else tol
        todo = np.arange(len(u))
        converged = np.zeros(len(u), dtype=bool)
        used = np.zeros(len(u), dtype=int)
        tangent = np.zeros_like(u)
        coeffs = self._homotopy(t)
        # while every path is active, the corrections work on u itself
        active = u
        prev = None
        for it in range(1, MAX_CORRECTIONS + 1):
            rhs = np.empty(active.shape + (2,), dtype=complex)
            sol = np.linalg.solve(self._system(active, *coeffs, rhs), rhs)
            delta = sol[..., 0]
            active -= delta
            if active is not u:
                u[todo] = active
            size = np.max(np.abs(delta), axis=1)
            scale = 1.0 + np.max(np.abs(active), axis=1)
            est = size if prev is None else np.minimum(size, size * size / prev)
            done = est <= tol * scale
            converged[todo[done]] = True
            used[todo[done]] = it
            tangent[todo[done]] = -sol[done, :, 1]
            # a path whose correction is of the order of its values has left
            # the basin; evaluating it again could overflow
            keep = ~done & (size < scale)
            todo, prev = todo[keep], size[keep]
            if not len(todo):
                break
            if not keep.all():
                active, coeffs = u[todo], tuple(c[keep] for c in coeffs)
        return converged, used, tangent

    def track(self, u, max_step):
        """Follow paths u (P, m) from t = 0 to t = 1 with an adaptive step per
        path, then correct the endpoints to END_TOL.  Returns (u at t = 1,
        ok).

        A step is predicted by the cubic Hermite extrapolation (hermite)
        through the path's last two accepted points and their tangents, by
        an Euler step from its start.  Every tangent comes from the
        correction that accepted its point (correct), the start's from a
        correction at t = 0, so no point is evaluated twice."""
        u = u.copy()
        n = len(u)
        t = np.zeros(n)
        h = np.full(n, min(INITIAL_STEP, max_step))
        alive, _, du = self.correct(u, t)
        # the last accepted point before the current one, once there is one
        before = np.zeros(n, dtype=bool)
        t0, u0, du0 = t.copy(), u.copy(), du.copy()
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
            ta = t[act]
            t1 = np.where(h[act] >= 1.0 - ta, 1.0, ta + h[act])
            tau = (t1 - ta)[:, None]
            v = np.where(before[act, None],
                         hermite(u0[act], du0[act], u[act], du[act],
                                 np.where(before[act], ta - t0[act], 1.0)[:, None], tau),
                         u[act] + tau * du[act])
            ok, used, dv = self.correct(v, t1)
            acc, rej = act[ok], act[~ok]
            t0[acc], u0[acc], du0[acc] = t[acc], u[acc], du[acc]
            before[acc] = True
            t[acc], u[acc], du[acc] = t1[ok], v[ok], dv[ok]
            grow = acc[used[ok] <= 2]
            h[grow] = np.minimum(2.0 * h[grow], max_step)
            h[rej] *= 0.5
            alive[rej[h[rej] < MIN_STEP]] = False

    def solve(self):
        """(flipped subsets, endpoints at g = G^2, ok mask): every start
        tracked; duplicate endpoints and failed paths are re-tracked with a
        smaller step cap, for at most ROUNDS rounds.  Duplicates left after
        the last round stay in: the paths of a group reached one solution,
        which is real, and the solver keeps one state per solution."""
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
        return flipped, ends, ok


def hermite(y0, d0, y1, d1, h, tau):
    """The cubic Hermite extrapolation of both trackers (solver._predict and
    Quadratics.track): the values at t1 + tau of the cubic through (t1 - h,
    y0) and (t1, y1) with slopes d0 and d1 there (Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 6), in
    Newton form about t1:

        y1 + tau y1' + tau^2 (y1' - D)/h + tau^2 (tau + h) (y1' + y0' - 2 D)/h^2,

    D = (y1 - y0)/h, whose error is O(h^4) on steps of size h.  Arrays
    broadcast: a batch of paths takes h and tau as columns."""
    slope = (y1 - y0) / h
    curvature = (d1 - slope) + (tau + h) / h * (d1 + d0 - 2.0 * slope)
    return y1 + tau * d1 + (tau * tau / h) * curvature


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


def distinct_tol(pts):
    """DISTINCT_TOL relative to the largest modulus among the points."""
    return DISTINCT_TOL * (1.0 + np.max(np.abs(pts), initial=0.0))


def frame(spec):
    """(c, h): the centre and half-width of the levels and hbar_omega, the
    half-width with a margin of 2 |G| sqrt(N), in which heine_stieltjes
    solves its equation."""
    eps = np.asarray(spec.epsilons, dtype=float)
    lo = min(eps.min(), spec.hbar_omega)
    hi = max(eps.max(), spec.hbar_omega)
    margin = 2.0 * abs(spec.coupling_G) * np.sqrt(spec.n_excitations)
    return 0.5 * (lo + hi), 0.5 * (hi - lo) + margin


def _expand(roots):
    """Ascending coefficients of prod_j (r_j - y), one row per row of roots."""
    coeffs = np.zeros((len(roots), roots.shape[1] + 1))
    coeffs[:, 0] = 1.0
    for d, r in enumerate(roots.T, start=1):
        # times (r - y): degree d - 1 becomes degree d
        lower = coeffs[:, :d].copy()
        coeffs[:, :d] *= r[:, None]
        coeffs[:, 1:d + 1] -= lower
    return coeffs


def heine_stieltjes_matrices(spec):
    """The endpoint-independent parts of the Heine-Stieltjes equation, in y =
    (x - c)/h with (c, h) from frame(spec): returns (c, h, base, per_level).

    Column i of base holds the ascending coefficients (degrees 0 .. m + N)
    of the equation's left side at P = y^i plus N A y^i, and column i of
    per_level[k] those of 2 s_k A_k y^i, so that the equation at an endpoint
    U reads (base + sum_k (U_k/h) per_level[k]) q = 0 for the coefficients q
    of P.  Every column is a fixed polynomial shifted by a power of y.
    """
    n = spec.n_excitations
    eps = np.asarray(spec.epsilons, dtype=float)
    spins = np.asarray(spec.spins, dtype=float)
    c, h = frame(spec)
    e, w, g2 = (eps - c) / h, (spec.hbar_omega - c) / h, spec.coupling_G**2 / h**2
    m = len(e)
    a = _expand(e[None, :])[0]
    a_k = _expand(e[np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)])
    # P' = i y^(i-1) multiplies A (w - y) - 2 G^2 sum_k s_k A_k
    drift = np.zeros(m + 2)
    drift[:m + 1] = w * a
    drift[1:] -= a
    drift[:m] -= 2.0 * g2 * (spins @ a_k)
    base = np.zeros((m + n + 1, n + 1))
    per_level = np.zeros((m, m + n + 1, n + 1))
    for i in range(n + 1):
        base[i:i + m + 1, i] = n * a
        if i:
            base[i - 1:i + m + 1, i] += i * drift
        if i > 1:
            base[i - 2:i + m - 1, i] -= g2 * i * (i - 1) * a
        per_level[:, i:i + m, i] = 2.0 * spins[:, None] * a_k
    return c, h, base, per_level


def heine_stieltjes(spec, u):
    """Rapidities of each endpoint: the roots of the monic degree-N P of the
    Heine-Stieltjes equation, by least squares, and its relative residual.

    Solved in y = (x - c)/h, with (c, h) from frame(spec), where the
    equation keeps its form with G^2/h^2, (eps - c)/h, (hbar_omega - c)/h
    and U/h.  The roots of every endpoint's P come from one batched
    eigensolve of their companion matrices, in the layout of
    numpy.polynomial.polynomial.polyroots.  Returns (roots (P, N), relative
    residual (P,)).
    """
    n = spec.n_excitations
    c, h, base, per_level = heine_stieltjes_matrices(spec)
    rows = len(base) - 1
    # the y^(m+N) row cancels identically; V P enters as -V P = N A P + ...
    mat = base[:rows] + np.einsum("pk,krc->prc", u / h, per_level[:, :rows])
    lhs, rhs = mat[..., :n], -mat[..., n]
    qm, rm = np.linalg.qr(lhs)
    q = np.linalg.solve(rm, np.einsum("pri,pr->pi", qm.conj(), rhs)[..., None])[..., 0]
    resid = np.linalg.norm(np.einsum("pri,pi->pr", lhs, q) - rhs, axis=1)
    rel = resid / np.maximum(np.linalg.norm(rhs, axis=1), np.finfo(float).tiny)
    companion = np.zeros((len(q), n, n), dtype=q.dtype)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, -1] = -q
    roots = np.sort(np.linalg.eigvals(companion[:, ::-1, ::-1]), axis=1)
    return c + h * roots, rel


def eigenvalue_variables(spec, x):
    """U_k = G^2 sum_a 1/(eps_k - x_a) of the rapidities x."""
    eps = np.asarray(spec.epsilons, dtype=float)
    return spec.coupling_G**2 * np.sum(1.0 / (eps[:, None] - np.asarray(x)), axis=1)
