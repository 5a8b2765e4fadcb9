"""Dicke spectra in eigenvalue-based (EVB) variables, for levels of any spin.

A state's rapidities are the roots of the monic degree-N P that solves the
Heine-Stieltjes equation

    A [(w - x) P' - G^2 P''] - 2 G^2 sum_k s_k A_k P' = V P,

A = prod_k (eps_k - x), A_k = prod_{j != k} (eps_j - x), w = hbar_omega,
V = -N A - 2 sum_k s_k U_k A_k, where U_k = y(eps_k) for y = G^2 P'/P.
Divided by A P/G^2 it reads, for any spins,

    (w - x) y - y^2 - G^2 y' + N G^2 = 2 G^2 sum_j s_j (y(x) - U_j)/(eps_j - x).

With y = sum_n c_{k,n} z^n about eps_k, z = x - eps_k, its order z^n,
n = 0 .. 2 s_k - 1, is (El Araby, Gritsev & Faribault, PRB 85, 115130 (2012))

    a_k c_n - c_{n-1} - sum_{i<=n} c_i c_{n-i} + G^2 (2 s_k - n - 1) c_{n+1}
      + N G^2 delta_{n0}
      - 2 G^2 sum_{j != k} s_j sum_{i<=n} (c_i - U_j delta_{i0})/(eps_j - eps_k)^(n-i+1) = 0,

a_k = w - eps_k, c_{k,0} = U_k.  c_{2 s_k} drops out of the last order, so
the system closes on sum_k 2 s_k unknowns; at spin 1/2 it is the quadratic
F_k = N g + a_k U_k - U_k^2 - g sum_{j != k} 2 s_j (U_k - U_j)/(eps_j - eps_k),
g = G^2 (Babelon & Talalaev, J. Stat. Mech. P06013 (2007)).  Quadratics
tracks c^_{k,n} = g^n c_{k,n}, each order-n row times g^n, polynomial in
(c^, g) and regular at g = 0, from g = 0 to G^2.  At g = 0, with p_k = 0 ..
2 s_k flips of level k, c^_{k,0} = p_k a_k/(2 s_k) and c^_{k,n+1} =
(sum_{i<=n} c^_i c^_{n-i} - a_k c^_{k,n})/(2 s_k - n - 1): one start per
state of the sector (sum_k p_k <= N, DickeSpec.sector_dimension).  Each
step is predicted by the cubic Hermite extrapolation (hermite, shared with
the solver) through a path's last two points and their tangents
dc^/dt = -J^-1 dF/dt, each from the correction that accepted its point.  Each
endpoint's rapidities are the roots of the monic degree-N P that solves the
Heine-Stieltjes equation at its U by least squares (heine_stieltjes, its
parts built once per spec by heine_stieltjes_matrices); the solver takes
those that meet its Newton tolerance on the Dicke equations as they stand
and polishes the others, the endpoints with the lowest least-squares
residual first.
"""

from __future__ import annotations

import logging

import numpy as np

from . import dicke, ed_oracle
from .errors import DomainError

log = logging.getLogger("gaudin")

# the homotopy: g(t) = t G^2 (1 + i GAMMA (1 - t)) and w(t) = w + i SHIFT G^2 (1 - t)
GAMMA = 0.7
SHIFT = 1.0
# step control of the tracker: a step accepted within two corrections grows,
# a rejected one halves, and a path that has not reached t = 1 after
# MAX_ATTEMPTS steps, accepted or not, fails (the ladder then fills the
# sector); points along a path are corrected to TRACK_TOL, endpoints to
# END_TOL.  A cap of 0.3 takes 32 and 18 evaluations per solve on the
# benchmark's two specs
INITIAL_STEP = 1e-2
MAX_STEP = 0.3
MAX_ATTEMPTS = 150
MAX_CORRECTIONS = 3
TRACK_TOL = 1e-6
END_TOL = 1e-13
# endpoints closer than this (max norm, relative to the largest |c^|) count
# as one; a round re-tracks them, and the failed paths, with the step cap / 4
DISTINCT_TOL = 1e-7
ROUNDS = 3


class Quadratics:
    """The EVB system of a Dicke spec along the homotopy, batched over paths.

    The unknowns c^_{k,n} are ordered by n, then k: the first m are U.  Along
    t the coupling runs g(t) = t G^2 (1 + i GAMMA (1 - t)) and w(t) = w + i
    SHIFT G^2 (1 - t), both real at t = 1: the shift keeps the starts apart
    and regular when a level is in resonance (eps_k = w), and the complex
    coupling keeps paths off the points where real solutions merge.

    F = A(t) (c^, 0, 1) - K c^: A(t) = sum_p g(t)^p B_p + i SHIFT G^2 (1 - t)
    I, with w - eps_k on B_0's diagonal and N in B_1's last column, is a
    polynomial in t (`coef`, one row per power), and K = (c^, 0,
    1)[partner] gathers c^_{k,n-i} at (row (k, n), unknown (k, i)), so the
    Jacobian is A - 2 K.
    """

    def __init__(self, spec):
        if spec.coupling_G == 0.0:
            raise DomainError("EVB enumeration needs G != 0")
        eps = np.asarray(spec.epsilons, dtype=float)
        spins = np.asarray(spec.spins, dtype=float)
        self.orders = np.rint(2.0 * spins).astype(int)
        self.m = m = len(eps)
        top = int(self.orders.max())
        self.order, self.level = np.nonzero(np.arange(top)[:, None] < self.orders)
        size = len(self.level)
        index = np.full((m, top + 1), size)
        index[self.level, self.order] = np.arange(size)
        diff = eps[None, :] - eps[:, None]  # eps_j - eps_k at [k, j]
        np.fill_diagonal(diff, 1.0)
        # pair[p - 1][k, j] = 2 s_j/(eps_j - eps_k)^p, j != k
        pair = 2.0 * spins[None, :] / diff ** np.arange(1, top + 1)[:, None, None]
        pair[:, np.arange(m), np.arange(m)] = 0.0
        self.lin = (spec.hbar_omega - eps)[self.level]
        self.sector = dicke.sector_tables(spec)[-1]
        self.shift = 1j * SHIFT * spec.coupling_G**2
        coef = np.zeros((top + 1, size, size + 2))  # B_p over (c^, 0, 1)
        coef[0, :, :size] = np.diag(self.lin)
        coef[1, :m, size + 1] = spec.n_excitations
        self.partner = np.full((size, size), size)
        for r, (k, n) in enumerate(zip(self.level, self.order)):
            if n + 1 < self.orders[k]:
                coef[0, r, index[k, n + 1]] = self.orders[k] - n - 1
            if n:
                coef[1, r, index[k, n - 1]] = -1.0
            for i in range(n + 1):
                coef[n - i + 1, r, index[k, i]] -= pair[n - i, k].sum()
                self.partner[r, index[k, i]] = index[k, n - i]
            coef[n + 1, r, :m] += pair[n, k]
        # g(t)^p in powers of t, g(t) = G^2 ((1 + i GAMMA) t - i GAMMA t^2)
        g = spec.coupling_G**2 * np.array([0.0, 1.0 + 1j * GAMMA, -1j * GAMMA])
        poly = np.zeros((2 * top + 1, size, size + 2), dtype=complex)
        power = np.ones(1)
        for p in range(top + 1):
            poly[:2 * p + 1] += np.multiply.outer(power, coef[p])
            power = np.convolve(power, g)
        poly[:2, :, :size] += np.multiply.outer((self.shift, -self.shift), np.eye(size))
        self.coef = poly.reshape(2 * top + 1, size * (size + 2))
        self.powers = np.arange(2 * top + 1)

    def evaluate(self, u, t):
        """F, its Jacobian in c^ and dF/dt for paths u (P, M) at t (P,)."""
        rhs = np.empty(u.shape + (2,), dtype=complex)
        jac = self._system(u, self._homotopy(t), rhs)
        return rhs[..., 0], jac, rhs[..., 1]

    def _homotopy(self, t):
        """A(t) and dA/dt of paths at t (P,), stacked (P, 2, M, M + 2): the
        weights t^q and q t^(q-1) of the polynomial's coefficients (coef)."""
        weights = np.empty((len(t), 2, len(self.powers)))
        weights[:, 0] = t[:, None] ** self.powers
        weights[:, 1, 0] = 0.0
        weights[:, 1, 1:] = self.powers[1:] * weights[:, 0, :-1]
        size = len(self.level)
        return (weights @ self.coef).reshape(len(t), 2, size, size + 2)

    def _system(self, u, mats, rhs):
        """The Jacobian in c^ of paths u (P, M) at A(t) and dA/dt (mats, from
        _homotopy); F and dF/dt go to rhs[..., 0] and rhs[..., 1]."""
        size = len(self.level)
        ext = np.empty((len(u), size + 2), dtype=complex)
        ext[:, :size] = u
        ext[:, size:] = (0.0, 1.0)
        quad = ext[:, self.partner]
        out = (mats @ ext[:, None, :, None])[..., 0]
        rhs[..., 0] = out[:, 0] - (quad @ u[:, :, None])[..., 0]
        rhs[..., 1] = out[:, 1]
        return mats[:, 0, :, :size] - 2.0 * quad

    def starts(self):
        """The sector's flips p_k (levels flipped, 0 .. 2 s_k each, at most N
        in all: the spin digits of sector N's states) as a (P, m) int array,
        and the paths' values at t = 0."""
        flips = self.sector.digits[:, 1:]
        a = self.lin[:self.m] + self.shift
        c = np.zeros((len(flips), self.m, self.orders.max()), dtype=complex)
        c[:, :, 0] = flips * (a / self.orders)
        for n in range(self.orders.max() - 1):
            conv = sum(c[:, :, i] * c[:, :, n - i] for i in range(n + 1))
            c[:, :, n + 1] = (conv - a * c[:, :, n]) / np.maximum(self.orders - n - 1, 1)
        return flips, c[:, self.level, self.order]

    def correct(self, u, t, tol=None):
        """Up to MAX_CORRECTIONS Newton steps on each path u (P, M), in place,
        at t (P,); returns (converged mask, corrections used, tangents).  A
        path has converged once its correction, or the next one that
        quadratic convergence predicts (size^2 / previous size), is below tol
        relative to |u|.  Each correction solves J against F and dF/dt
        together: a converged path's tangent du/dt = -J^-1 dF/dt is that of
        its last correction, taken where the correction started.  The
        homotopy's matrices at t are computed once per call, and every
        correction evaluates the system as evaluate does (_system).  The
        corrections work on u itself while every path is active, a
        correction after which every path converged ends the call, and the
        paths that continue are gathered anew only when some stop."""
        tol = TRACK_TOL if tol is None else tol
        todo = np.arange(len(u))
        converged = np.zeros(len(u), dtype=bool)
        used = np.zeros(len(u), dtype=int)
        tangent = np.zeros_like(u)
        mats = self._homotopy(t)
        active = u
        prev = None
        for it in range(1, MAX_CORRECTIONS + 1):
            rhs = np.empty(active.shape + (2,), dtype=complex)
            sol = np.linalg.solve(self._system(active, mats, rhs), rhs)
            delta = sol[..., 0]
            active -= delta
            if active is not u:
                u[todo] = active
            size = np.abs(delta).max(axis=1)
            scale = 1.0 + np.abs(active).max(axis=1)
            est = size if prev is None else np.minimum(size, size * size / prev)
            done = est <= tol * scale
            if done.all():
                converged[todo], used[todo], tangent[todo] = True, it, -sol[..., 1]
                break
            if done.any():
                finished = todo[done]
                converged[finished], used[finished] = True, it
                tangent[finished] = -sol[done, :, 1]
            # a path whose correction is of the order of its values has left
            # the basin; evaluating it again could overflow
            keep = ~done & (size < scale)
            if keep.all():
                prev = size
                continue
            todo, prev = todo[keep], size[keep]
            if not len(todo):
                break
            active, mats = u[todo], mats[keep]
        return converged, used, tangent

    def track(self, u, max_step):
        """Follow paths u (P, M) from t = 0 to t = 1 with an adaptive step per
        path, then correct the endpoints to END_TOL.  Returns (u at t = 1,
        ok, capped): a path fails once a step no longer moves its t, or when
        it has not reached t = 1 after MAX_ATTEMPTS steps (capped).  A path
        is active from the first step until it fails or reaches t = 1, so
        every active path has made as many attempts as the loop has made
        steps, and the cap is tested on that count alone.

        A step is predicted by the cubic Hermite extrapolation (hermite)
        through the path's last two accepted points and their tangents, by
        an Euler step from its start.  Every tangent comes from the
        correction that accepted its point (correct), the start's from a
        correction at t = 0, so no point is evaluated twice.  The active
        paths' points, tangents and steps are held in arrays of their own,
        in path order: a step that every path accepts only passes them on,
        and a path leaves them, its last point written to u, once it reaches
        t = 1 or fails."""
        u = u.copy()
        alive, _, du = self.correct(u, np.zeros(len(u)))
        capped = np.zeros(len(u), dtype=bool)
        idx = np.nonzero(alive)[0]
        # each active path's last accepted point (t, x, dx) and, once it has
        # one (prior), the accepted point before it (t0, x0, dx0)
        t, x, dx = np.zeros(len(idx)), u[idx], du[idx]
        t0, x0, dx0 = t.copy(), x.copy(), dx.copy()
        prior = np.zeros(len(idx), dtype=bool)
        h = np.full(len(idx), min(INITIAL_STEP, max_step))
        steps = 0
        while len(idx):
            steps += 1
            t1 = np.where(h >= 1.0 - t, 1.0, t + h)
            tau = (t1 - t)[:, None]
            if prior.all():
                v = hermite(x0, dx0, x, dx, (t - t0)[:, None], tau)
            else:
                v = np.where(prior[:, None],
                             hermite(x0, dx0, x, dx, np.where(prior, t - t0, 1.0)[:, None], tau),
                             x + tau * dx)
            ok, used, dv = self.correct(v, t1)
            if ok.all():
                t0, x0, dx0, t, x, dx, prior = t, x, dx, t1, v, dv, ok
                grow = used <= 2
                out = t >= 1.0
            else:
                t0[ok], x0[ok], dx0[ok] = t[ok], x[ok], dx[ok]
                t[ok], x[ok], dx[ok] = t1[ok], v[ok], dv[ok]
                prior |= ok
                grow = ok & (used <= 2)
                h[~ok] *= 0.5
                out = (t >= 1.0) | (~ok & (t + h <= t))
            h[grow] = np.minimum(2.0 * h[grow], max_step)
            if steps >= MAX_ATTEMPTS:
                capped[idx[~out]] = True
                out[:] = True
            if out.any():
                u[idx[out]] = x[out]
                alive[idx[out & (t < 1.0)]] = False
                keep = ~out
                idx, t, x, dx, t0, x0, dx0, prior, h = (
                    a[keep] for a in (idx, t, x, dx, t0, x0, dx0, prior, h))
        idx = np.nonzero(alive)[0]
        ends = u[idx]
        self.correct(ends, np.ones(len(idx)), END_TOL)
        # an ill-conditioned endpoint stops at its round-off floor above
        # END_TOL; the polish is kept unless it moved the point far beyond
        # the accuracy the path arrived with
        arrived = u[idx]
        moved = np.max(np.abs(ends - arrived), axis=1)
        keep = moved <= 1e3 * TRACK_TOL * (1.0 + np.max(np.abs(arrived), axis=1))
        u[idx[keep]] = ends[keep]
        return u, alive, capped

    def solve(self):
        """(flips, endpoints at g = G^2, ok mask): every start (starts)
        tracked; duplicate endpoints and failed paths are re-tracked with a
        smaller step cap, for at most ROUNDS rounds.  Duplicates left after
        the last round stay in: the paths of a group reached one solution,
        which is real, and the solver keeps one state per solution.  The
        endpoints are the c^ of each path; their first m columns are U.

        Paths are tracked independently, so each round tracks its paths in
        consecutive batches whose (paths, 2, M, M + 2) system matrices hold
        at most ed_oracle.BLOCK_ELEMENTS entries (one path at least)."""
        flips, seeds = self.starts()
        ends = np.empty_like(seeds)
        ok = np.zeros(len(seeds), dtype=bool)
        size = len(self.level)
        batch = max(1, ed_oracle.BLOCK_ELEMENTS // (2 * size * (size + 2)))
        redo = np.arange(len(seeds))
        for r in range(ROUNDS):
            max_step = MAX_STEP / 4.0**r
            capped = 0
            for i in range(0, len(redo), batch):
                part = redo[i:i + batch]
                ends[part], ok[part], stopped = self.track(seeds[part], max_step)
                capped += int(np.sum(stopped))
            dup = duplicates(ends, ok)
            log.debug("evb round %d: %d paths at step cap %.3g, %d failed (%d at the "
                      "attempt cap), %d duplicate; %d batches of at most %d paths", r,
                      len(redo), max_step, int(np.sum(~ok[redo])), capped, len(dup),
                      -(-len(redo) // batch), min(batch, len(redo)))
            again = ~ok
            again[dup] = True
            redo = np.nonzero(again)[0]
            if not len(redo):
                break
        return flips, ends, ok


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
    block = max(1, ed_oracle.BLOCK_ELEMENTS // pts.size)  # bounds the (block, P, m) differences
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
    """U_k = G^2 sum_a 1/(eps_k - x_a) of the rapidities x (..., N), one
    (..., m) row per rapidity array."""
    eps = np.asarray(spec.epsilons, dtype=float)
    return spec.coupling_G**2 * np.sum(1.0 / (eps[:, None] - np.asarray(x)[..., None, :]),
                                       axis=-1)
