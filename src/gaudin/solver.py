"""Root finding and adiabatic continuation along the deformation parameter.

The solve pipeline follows the deformation strategy: the decoupled secular
equation (rg_core.secular_row with a family's kernel parameters) is solved by
bracketing between its poles, the roots seed a damped-Newton corrector, and
one adaptive first-order predictor-corrector, _continue_path, tracks the
solution along the homotopy parameter to the coupled equations.  It
evaluates every accepted point once, in the corrector, and takes the
predictor's tangent from that evaluation.  The RG path runs xi 0 -> 1
(continue_in_xi); the Dicke path runs tau 0 -> 1 and then xi down to 0
(solve_dicke_branch).  A ContinuationPolicy sets the Newton tolerance and
the largest step; the rest of the step control is fixed below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import rg_core
from .algebra import COLLISION_TOL
from .errors import (
    CollisionError,
    ConvergenceError,
    DomainError,
    InsufficientModesError,
    SelectionError,
    SingularJacobianError,
)
from .rg_core import DICKE_X, RG_ETA, RapiditySet

# magnitude of the symmetric complex lift applied to repeated seed roots
SEED_LIFT = 1e-4

# below this xi the single-copy family is numerically indistinguishable from
# the exact contraction limit; the final polish switches to the Dicke residual
XI_HANDOFF = 1e-4

# step control: a rejected step shrinks, a step accepted within three Newton
# iterations grows, and a path stalls once its step falls below MIN_STEP;
# newton_solve gives up after MAX_NEWTON_ITERS iterations
MIN_STEP = 1e-8
STEP_SHRINK = 0.5
STEP_GROW = 1.3
MAX_NEWTON_ITERS = 50


@dataclass(frozen=True)
class ContinuationPolicy:
    """Newton tolerance and largest step of the adiabatic tracking."""

    newton_tol: float = 1e-10
    max_step: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise DomainError("newton_tol must be finite and positive")
        if not MIN_STEP <= self.max_step < math.inf:
            raise DomainError(f"max_step must be finite and >= MIN_STEP = {MIN_STEP}")

    @property
    def initial_step(self):
        return min(1e-2, self.max_step)


@dataclass
class TracePoint:
    xi: float
    rapidities: RapiditySet
    max_abs: float


@dataclass
class SolutionTrace:
    path: list
    status: str  # converged | stalled | collision_detected

    @property
    def final(self):
        return self.path[-1]


def newton_solve(residual_fn, w0, tol=1e-10):
    """Damped Newton iteration on a holomorphic residual system.

    residual_fn maps a complex rapidity array to a ResidualReport with an
    analytic Jacobian; w0 is the complex starting array.  Returns
    (values, report, iterations).
    """
    w = np.array(w0, dtype=complex)
    report = residual_fn(w)
    if report.max_abs <= tol:
        return w, report, 0
    for it in range(1, MAX_NEWTON_ITERS + 1):
        jac = report.jacobian
        if np.linalg.cond(jac) > 1e14:
            raise SingularJacobianError(
                f"Jacobian condition estimate exceeds 1e14 at iteration {it}"
            )
        step = np.linalg.solve(jac, report.residuals)
        # damping: halve the step while it fails to reduce the residual
        scale = 1.0
        for _ in range(12):
            try:
                trial = residual_fn(w - scale * step)
            except CollisionError:
                scale *= 0.5
                continue
            if trial.max_abs < report.max_abs or trial.max_abs <= tol:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {report.max_abs:.3e}",
                best=w,
                max_abs=report.max_abs,
            )
        w = w - scale * step
        report = trial
        if report.max_abs <= tol:
            return w, report, it
    raise ConvergenceError(
        f"no convergence in {MAX_NEWTON_ITERS} iterations "
        f"(residual {report.max_abs:.3e})",
        best=w,
        max_abs=report.max_abs,
    )


def _real_roots(row):
    """All real roots of the secular row with kernel parameters `row`, by
    sign-change bracketing on each interval between its poles (the sites)
    plus two outer windows."""

    def f(w):
        return rg_core.secular_row(w, **row)[0]

    poles = np.sort(np.asarray(row["sites"], dtype=float))
    outer = 50.0 * max(poles[-1] - poles[0], 1.0)
    edges = np.concatenate([[poles[0] - outer], poles, [poles[-1] + outer]])
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-9 * max(abs(lo), abs(hi), 1.0)
        a, b = lo + margin, hi - margin
        if b <= a:
            continue
        ts = np.linspace(a, b, 400)
        vals = f(ts)
        good = np.isfinite(vals)
        ts, vals = ts[good], vals[good]
        for i in range(len(ts) - 1):
            if vals[i] == 0.0:
                roots.append(ts[i])
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(brentq(f, ts[i], ts[i + 1], xtol=1e-14, rtol=8.9e-16))
    return sorted(roots)


def _assign_pattern(roots, n, occupation):
    """Map an occupation pattern (root indices, multiset) to n seed values."""
    if occupation is None:
        # default: fill from the lowest root upwards, wrapping when n exceeds
        # the number of available roots
        occupation = [i % len(roots) for i in range(n)]
    if len(occupation) != n:
        raise SelectionError(f"occupation pattern has {len(occupation)} entries, need {n}")
    if any(i < 0 or i >= len(roots) for i in occupation):
        raise SelectionError(f"occupation indices out of range for {len(roots)} roots")
    return np.array([roots[i] for i in occupation], dtype=complex)


def _equal_groups(values):
    """Index lists of the seeds that share a real part, in ascending order."""
    groups = {}
    for idx in np.argsort(values.real):
        groups.setdefault(round(values[idx].real / COLLISION_TOL), []).append(idx)
    return list(groups.values())


def _cluster_seeds(spec, values, t_start, xi):
    """Leading-order seeds for rapidities sharing a root of the extended Dicke
    secular row, at a small homotopy value t_start.

    k rapidities on a simple root x0 of F = row(tau = 0) split as x0 + shift +
    sigma * u_a with sigma^2 = t_start * P(x0) / F'(x0), P the coefficient of
    sum_b 1/(x_b - x_a) in the rapidity coupling at tau = 1, u_a the zeros of
    the Hermite polynomial H_k, and shift = -t_start * dF/dtau / F', where
    dF/dtau = row(1) - row(0) as the family is affine in tau.  The sign of
    sigma^2 decides between a real split and a complex-conjugate pair, so the
    seed set stays closed under conjugation either way.
    """
    start = rg_core.extended_dicke_params(spec, 0.0, xi)
    end = rg_core.extended_dicke_params(spec, 1.0, xi)
    values = np.asarray(values, dtype=complex)
    out = values.copy()
    for members in _equal_groups(values):
        x0 = values[members[0]]
        f0, fp = rg_core.secular_row(x0, **start)
        f1, _ = rg_core.secular_row(x0, **end)
        shift = -t_start * (f1 - f0) / fp
        k = len(members)
        if k == 1:
            out[members[0]] = x0 + shift
            continue
        # -g Z(u_b, u_a) = -g (1 + u_a u_b) / (scale (x_b - x_a)), u = scale*x
        u = end["scale"] * x0
        pair = -end["g_site"] * (1.0 + u * u) / end["scale"]
        sigma = np.sqrt(complex(t_start * pair / fp))
        herm = np.polynomial.hermite.hermroots([0.0] * k + [1.0])
        for h, idx in zip(herm, members):
            out[idx] = x0 + shift + sigma * h
    return out


def _lift_duplicates(values):
    """Split repeated seeds by a symmetric imaginary perturbation so the seed
    set stays closed under complex conjugation."""
    values = np.asarray(values, dtype=complex).copy()
    for members in _equal_groups(values):
        k = len(members)
        for j, idx in enumerate(members):
            values[idx] += 1j * SEED_LIFT * (j - (k - 1) / 2.0) * 2.0
    return values


def solve_tda(spec, occupation=None):
    """Solve the decoupled secular equations and pick N seed rapidities.

    The secular row 1 + g sum_i Z(eta_i, w) Omega_i has up to m real roots;
    the occupation pattern selects a multiset of them (default: lowest
    first).  Repeated roots are lifted by a symmetric complex split.
    """
    if spec.coupling_g == 0.0:
        raise InsufficientModesError("secular equation 1 = 0 has no roots at g = 0")
    roots = _real_roots(rg_core.tda_params(spec))
    n = spec.n_excitations
    if not roots:
        raise InsufficientModesError("secular equation has no real roots")
    values = _assign_pattern(roots, n, occupation)
    values = _lift_duplicates(values)
    values = values[np.argsort(values.real)]
    return RapiditySet(tuple(values), RG_ETA)


def tda_roots_dicke(spec, xi=1.0):
    """Real roots of the decoupled (tau = 0) secular equation of the extended
    Dicke construction at deformation xi, scanned in the physical x frame,
    where its poles are the eps_k."""
    return _real_roots(rg_core.extended_dicke_params(spec, 0.0, xi))


def _continue_path(residual_at, t_start, t_end, values, policy):
    """Predictor-corrector tracking of residual_at(t, values) = 0 from t_start
    to t_end.  Returns ([(t, values, max_abs), ...], status)."""
    tol = policy.newton_tol
    values, report, _ = newton_solve(lambda w: residual_at(t_start, w), values, tol)
    path = [(t_start, values, report.max_abs)]
    direction = 1.0 if t_end > t_start else -1.0
    t = t_start
    step = policy.initial_step
    while (t_end - t) * direction > 0.0:
        tangent = _tangent(residual_at, t, values, report, direction)
        # retry from (t, values) with shrinking steps until the corrector lands
        while True:
            step = min(step, abs(t_end - t))
            t_next = t + direction * step
            predicted = values if tangent is None else values + (direction * step) * tangent
            try:
                new_vals, report, iters = newton_solve(
                    lambda w: residual_at(t_next, w), predicted, tol
                )
                break
            except (ConvergenceError, SingularJacobianError):
                failure = "stalled"
            except CollisionError:
                failure = "collision_detected"
            step *= STEP_SHRINK
            if step < MIN_STEP:
                return path, failure
        t = t_next
        values = new_vals
        path.append((t, values, report.max_abs))
        # branches that leave every finite scale are escaping to infinity
        if np.max(np.abs(values)) > 1e8:
            return path, "stalled"
        if iters <= 3:
            step = min(step * STEP_GROW, policy.max_step)
    return path, "converged"


def _tangent(residual_at, t, values, here, direction):
    """Path tangent dvalues/dt = -J^-1 dF/dt at an accepted point, with J from
    its report `here` and dF/dt by finite differences; None (keep the point as
    the prediction) when J is ill-conditioned."""
    h = max(1e-7, 1e-7 * abs(t))
    try:
        try:
            f_hi = residual_at(t + h, values)
            f_lo = residual_at(t - h, values)
            dfdt = (f_hi.residuals - f_lo.residuals) / (2.0 * h)
        except DomainError:
            # one-sided difference at a domain edge
            f_near = residual_at(t + direction * h, values)
            dfdt = direction * (f_near.residuals - here.residuals) / h
        if np.linalg.cond(here.jacobian) > 1e12:
            return None
        return np.linalg.solve(here.jacobian, -dfdt)
    except (CollisionError, DomainError, np.linalg.LinAlgError):
        return None


def _trace(path, status, frame):
    return SolutionTrace(
        [TracePoint(t, RapiditySet(tuple(v), frame), r) for t, v, r in path], status
    )


def _require_converged(path, status, what, param):
    if status != "converged":
        t, values, max_abs = path[-1]
        raise ConvergenceError(
            f"{what} {status} at {param} = {t:.6g}", best=values, max_abs=max_abs
        )


def continue_in_xi(spec, policy, r_start):
    """Track a solution of the pseudo-deformed RG equations from the TDA limit
    xi = 0 to the RG equations at xi = 1."""

    def residual_at(xi, w):
        return rg_core.deformed_rg_residual(spec, xi, RapiditySet(tuple(w), RG_ETA))

    path, status = _continue_path(residual_at, 0.0, 1.0, r_start.as_array(), policy)
    return _trace(path, status, RG_ETA)


def solve_rg(spec, policy=None, occupation=None):
    """Full pipeline for the RG equations: TDA seeds continued from xi = 0 to 1.

    Returns (RapiditySet, SolutionTrace); the final point is re-verified with
    an independent rg_residual evaluation.
    """
    policy = policy or ContinuationPolicy()
    seeds = solve_tda(spec, occupation=occupation)
    trace = continue_in_xi(spec, policy, seeds)
    if trace.status != "converged":
        raise ConvergenceError(
            f"continuation {trace.status} at xi = {trace.final.xi:.6g}",
            best=trace.final.rapidities.as_array(),
            max_abs=trace.final.max_abs,
        )
    final = trace.final.rapidities
    check = rg_core.rg_residual(spec, final, jacobian=False)
    if check.max_abs > 10.0 * policy.newton_tol:
        raise ConvergenceError(
            f"independent residual check failed: {check.max_abs:.3e}",
            best=final.as_array(),
            max_abs=check.max_abs,
        )
    return final, trace


def solve_dicke_branch(spec, occupation, policy=None, xi_start=1.0):
    """Solve one Bethe branch of the Dicke equations.

    Pipeline: decoupled roots of the extended construction at xi = xi_start,
    inner homotopy tau 0 -> 1 (reintroducing the rapidity coupling), then the
    single-copy deformation xi_start -> XI_HANDOFF, where the family is
    numerically the contraction limit, and a Newton polish on the exact Dicke
    equations recorded at xi = 0.  xi_start = 1 is the natural top of the
    family; branches that escape to infinity there need a smaller xi_start (a
    larger deformed copy).
    Returns (RapiditySet in the x frame, final ResidualReport, trace).
    """
    policy = policy or ContinuationPolicy()
    roots = tda_roots_dicke(spec, xi_start)
    if not roots:
        raise InsufficientModesError("extended secular equation has no real roots")
    x_seed = _assign_pattern(roots, spec.n_excitations, occupation)

    def inner(tau, w):
        return rg_core.extended_dicke_residual(
            spec, tau, RapiditySet(tuple(w), DICKE_X), xi_start
        )

    def outer(xi, w):
        return rg_core.deformed_dicke_residual(spec, xi, RapiditySet(tuple(w), DICKE_X))

    def exact(w):
        return rg_core.dicke_rg_residual(spec, RapiditySet(tuple(w), DICKE_X))

    tau0 = 0.0
    if len(_equal_groups(x_seed)) < len(x_seed):
        # repeated secular roots: seed the cluster split at a small tau > 0
        tau0 = 1e-3
        x_seed = _cluster_seeds(spec, x_seed, tau0, xi_start)

    path, status = _continue_path(inner, tau0, 1.0, x_seed, policy)
    _require_converged(path, status, "inner homotopy", "tau")
    path, status = _continue_path(outer, xi_start, XI_HANDOFF, path[-1][1], policy)
    _require_converged(path, status, "outer continuation", "xi")
    values, polished, _ = newton_solve(exact, path[-1][1], policy.newton_tol)
    path.append((0.0, values, polished.max_abs))
    trace = _trace(path, status, DICKE_X)
    final = trace.final.rapidities
    report = rg_core.dicke_rg_residual(spec, final, jacobian=False)
    return final, report, trace


XI_START_LADDER = (1.0, 0.5, 0.25, 0.1, 0.04)


def enumerate_dicke_branches(spec, policy=None):
    """Attempt every occupation multiset of the extended secular roots and
    return the distinct converged branches, sorted by energy (sum of x).

    Patterns that fail at xi_start = 1 (typically branches escaping to
    infinity because the deformed copy is too small) or converge onto an
    already-found branch are retried at smaller xi_start values, where the
    larger deformed copy holds every finite solution.
    """
    from itertools import combinations_with_replacement

    n = spec.n_excitations
    n_roots = len(tda_roots_dicke(spec, XI_START_LADDER[0]))
    pending = list(combinations_with_replacement(range(n_roots), n))
    branches = []

    def attempt(pattern, xi_start):
        try:
            final, report, trace = solve_dicke_branch(spec, list(pattern), policy, xi_start)
            return final, report
        except (ConvergenceError, SingularJacobianError, CollisionError,
                SelectionError):
            return None

    for xi_start in XI_START_LADDER:
        if not pending:
            break
        still = []
        for pattern in pending:
            res = attempt(pattern, xi_start)
            if res is None:
                still.append(pattern)
                continue
            final, report = res
            key = np.sort_complex(np.round(final.as_array(), 8))
            if any(np.allclose(key, k, atol=1e-6) for k, *_ in branches):
                # relabeled onto a known branch; look deeper down the ladder
                still.append(pattern)
                continue
            branches.append((key, pattern, final, report))
        pending = still
    branches.sort(key=lambda b: float(np.sum(b[2].as_array().real)))
    return [
        {"occupation": list(pat), "rapidities": fin, "report": rep}
        for _, pat, fin, rep in branches
    ]
