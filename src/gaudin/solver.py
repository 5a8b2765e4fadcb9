"""Root finding and adiabatic continuation along the deformation parameter.

The solve pipeline follows the deformation strategy: the decoupled secular
equation (rg_core.secular_row with a family's kernel parameters) is solved by
bracketing between its poles, the roots seed a damped-Newton corrector, and
one adaptive first-order predictor-corrector, _continue_path, tracks the
solution along the homotopy parameter to the coupled equations.  It
evaluates every accepted point once, in the corrector, and takes the
predictor's tangent from that evaluation.  The RG path runs xi 0 -> 1
(continue_in_xi); the Dicke path runs tau 0 -> 1 and then xi down to 0
(solve_dicke_branch).  Both families have a secular row affine in their
parameter and a rapidity coupling proportional to it, so one rule,
_cluster_seeds, splits rapidities that share a root, at CLUSTER_T0.  A
ContinuationPolicy sets the Newton tolerance and the largest step; the rest
of the step control is fixed below.

enumerate_dicke_branches picks its method from the spins: for at most
twelve spin-1/2 levels it polishes the physical endpoints of the
eigenvalue-based homotopy (evb) on the Dicke equations; otherwise it runs
solve_dicke_branch over every occupation pattern, on a ladder of xi starts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import evb, rg_core
from .algebra import COLLISION_TOL, RATIONAL
from .errors import (
    CollisionError,
    ConvergenceError,
    DomainError,
    InsufficientModesError,
    SelectionError,
    SingularJacobianError,
)
from .rg_core import DICKE_X, RG_ETA, RapiditySet

log = logging.getLogger("gaudin")

# homotopy value at which rapidities sharing a secular root start, split
CLUSTER_T0 = 1e-3

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


def _ill_conditioned(jac, limit):
    """cond(jac) > limit, from the singular values (np.linalg.cond without
    its wrapping); a singular matrix counts as ill-conditioned."""
    s = np.linalg.svd(jac, compute_uv=False)
    return not s[0] <= limit * s[-1] or s[-1] == 0.0


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
        if _ill_conditioned(jac, 1e14):
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


def _cluster_seeds(row0, row1, values):
    """Seeds of a homotopy family whose secular row is affine in t and whose
    rapidity coupling is t * g_site, given its rows at t = 0 and t = 1.

    Returns (t_start, seeds): (0.0, values) when no root repeats; otherwise
    the leading-order solution at t_start = CLUSTER_T0.  k rapidities on a
    simple root x0 of F = row0 split as x0 + shift + sigma * u_a with
    sigma^2 = t_start * P(x0) / F'(x0), P the coefficient of
    sum_b 1/(x_b - x_a) in the rapidity coupling at t = 1, u_a the zeros of
    the Hermite polynomial H_k, and shift = -t_start * (row1 - row0) / F'.
    The sign of sigma^2 decides between a real split and a complex-conjugate
    pair, so the seed set stays closed under conjugation either way.
    """
    values = np.asarray(values, dtype=complex)
    # index lists of the seeds that share a real part, in ascending order
    groups = {}
    for idx in np.argsort(values.real):
        groups.setdefault(round(values[idx].real / COLLISION_TOL), []).append(idx)
    if len(groups) == len(values):
        return 0.0, values
    t_start = CLUSTER_T0
    c = 0.0 if row1["kind"] == RATIONAL else 1.0
    scale = row1.get("scale", 1.0)
    out = values.copy()
    for members in groups.values():
        x0 = values[members[0]]
        f0, fp = rg_core.secular_row(x0, **row0)
        f1, _ = rg_core.secular_row(x0, **row1)
        shift = -t_start * (f1 - f0) / fp
        k = len(members)
        if k == 1:
            out[members[0]] = x0 + shift
            continue
        # -g Z(u_b, u_a) = -g (1 + c u_a u_b) / (scale (x_b - x_a)), u = scale*x
        u = scale * x0
        pair = -row1["g_site"] * (1.0 + c * u * u) / scale
        sigma = np.sqrt(complex(t_start * pair / fp))
        herm = np.polynomial.hermite.hermroots([0.0] * k + [1.0])
        for h, idx in zip(herm, members):
            out[idx] = x0 + shift + sigma * h
    return t_start, out


def solve_tda(spec, occupation=None):
    """Solve the decoupled secular equations and pick N seed rapidities.

    The secular row 1 + g sum_i Z(eta_i, w) Omega_i has up to m real roots;
    the occupation pattern selects a multiset of them (default: lowest
    first).  Returns the TDA point itself, sorted by real part: a repeated
    root stays repeated, and continue_in_xi splits it by _cluster_seeds.
    """
    roots = _real_roots(rg_core.deformed_rg_params(spec, 0.0))
    if not roots:
        raise InsufficientModesError("secular equation has no real roots")
    values = _assign_pattern(roots, spec.n_excitations, occupation)
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
    its report `here` and dF/dt by finite differences, each point evaluated
    once; None (keep the point as the prediction) when the point ahead lies
    outside the domain or J is ill-conditioned."""
    h = max(1e-7, 1e-7 * abs(t))
    try:
        ahead = residual_at(t + direction * h, values).residuals
        try:
            behind = residual_at(t - direction * h, values).residuals
            dfdt = direction * (ahead - behind) / (2.0 * h)
        except DomainError:
            # one-sided difference at a domain edge behind the path
            dfdt = direction * (ahead - here.residuals) / h
        if _ill_conditioned(here.jacobian, 1e12):
            return None
        return np.linalg.solve(here.jacobian, -dfdt)
    except (CollisionError, DomainError, np.linalg.LinAlgError):
        return None


def _trace(path, status, frame):
    return SolutionTrace(
        [TracePoint(t, RapiditySet(tuple(v), frame), r) for t, v, r in path], status
    )


def _require_converged(last, status, what, param):
    """Raise ConvergenceError at the last point (t, values, max_abs) unless converged."""
    if status != "converged":
        t, values, max_abs = last
        raise ConvergenceError(
            f"{what} {status} at {param} = {t:.6g}", best=values, max_abs=max_abs
        )


def continue_in_xi(spec, policy, r_start):
    """Track a solution of the pseudo-deformed RG equations from the TDA limit
    xi = 0 to the RG equations at xi = 1; repeated TDA roots start split at
    xi = CLUSTER_T0."""

    def residual_at(xi, w):
        return rg_core.deformed_rg_residual(spec, xi, RapiditySet(tuple(w), RG_ETA))

    xi0, seeds = _cluster_seeds(rg_core.deformed_rg_params(spec, 0.0),
                                rg_core.deformed_rg_params(spec, 1.0), r_start.as_array())
    path, status = _continue_path(residual_at, xi0, 1.0, seeds, policy)
    return _trace(path, status, RG_ETA)


def solve_rg(spec, policy=None, occupation=None):
    """Full pipeline for the RG equations: TDA seeds continued from xi = 0 to 1.

    Returns (RapiditySet, SolutionTrace); the final point is re-verified with
    an independent rg_residual evaluation.
    """
    policy = policy or ContinuationPolicy()
    seeds = solve_tda(spec, occupation=occupation)
    trace = continue_in_xi(spec, policy, seeds)
    final = trace.final.rapidities
    _require_converged((trace.final.xi, final.as_array(), trace.final.max_abs),
                       trace.status, "continuation", "xi")
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

    tau0, x_seed = _cluster_seeds(rg_core.extended_dicke_params(spec, 0.0, xi_start),
                                  rg_core.extended_dicke_params(spec, 1.0, xi_start), x_seed)
    path, status = _continue_path(inner, tau0, 1.0, x_seed, policy)
    _require_converged(path[-1], status, "inner homotopy", "tau")
    path, status = _continue_path(outer, xi_start, XI_HANDOFF, path[-1][1], policy)
    _require_converged(path[-1], status, "outer continuation", "xi")
    values, polished, _ = newton_solve(exact, path[-1][1], policy.newton_tol)
    path.append((0.0, values, polished.max_abs))
    trace = _trace(path, status, DICKE_X)
    final = trace.final.rapidities
    report = rg_core.dicke_rg_residual(spec, final, jacobian=False)
    return final, report, trace


XI_START_LADDER = (1.0, 0.5, 0.25, 0.1, 0.04)

# enumeration methods, chosen from the spins of the spec
EVB = "evb"
XI_CONTINUATION = "xi-continuation"

# a polish that stalls above the Newton tolerance still counts when every
# residual is within this many ulps of the rapidities times its Jacobian row,
# |J| |x|: with a rapidity between two close levels that floor exceeds 1e-10
ROUNDOFF_ULPS = 8.0


def enumeration_method(spec):
    """EVB when every spin of the Dicke spec is 1/2 and its 2^m paths fit in
    one batch (evb.MAX_PATHS), the xi-continuation ladder otherwise."""
    if (all(round(2.0 * s) == 1 for s in spec.spins)
            and 2 ** len(spec.spins) <= evb.MAX_PATHS):
        return EVB
    return XI_CONTINUATION


def enumerate_dicke_branches(spec, policy=None):
    """Every Bethe branch of the Dicke spec that the method for its spins
    (enumeration_method) finds, sorted by energy (sum of x).

    Each branch is a dict with "rapidities" (x frame) and "report" (the Dicke
    residual), and "evb_start" (the levels flipped at the start of its EVB
    path) or "occupation" (the extended secular roots it was seeded from).
    """
    policy = policy or ContinuationPolicy()
    if enumeration_method(spec) == EVB:
        branches = _evb_branches(spec, policy)
    else:
        branches = _ladder_branches(spec, policy)
    branches.sort(key=lambda b: float(np.sum(b["rapidities"].as_array().real)))
    return branches


def _evb_branches(spec, policy):
    """Spin-1/2 branches from all 2^m EVB endpoints (evb.Quadratics).

    Each endpoint whose Heine-Stieltjes residual is at most evb.CANDIDATE_TOL
    seeds newton_solve on the Dicke equations with the roots of its
    polynomial, the most physical first; a converged state is kept unless
    its eigenvalue-based variables repeat a kept one's.  The physical
    endpoints (evb.PHYSICAL_TOL) give the states; the rest of the candidates
    recover a state whose endpoint sits where solutions nearly meet, and
    whose residual is then no better than a spurious neighbour's.
    """
    flipped, ends, ok = evb.Quadratics(spec).solve()
    roots, rel = evb.heine_stieltjes(spec, ends)
    candidates = np.nonzero(ok & (rel <= evb.CANDIDATE_TOL))[0]
    candidates = candidates[np.argsort(rel[candidates], kind="stable")]
    tol = evb.distinct_tol(ends[ok])

    def exact(w):
        return rg_core.dicke_rg_residual(spec, RapiditySet(tuple(w), DICKE_X))

    kept = np.empty((len(candidates), len(spec.epsilons)), dtype=complex)
    branches = []
    for p in candidates:
        try:
            values = _polish(exact, roots[p], policy.newton_tol)
        except (ConvergenceError, SingularJacobianError, CollisionError):
            continue
        u = evb.eigenvalue_variables(spec, values)
        if np.any(np.max(np.abs(kept[:len(branches)] - u), axis=1) <= tol):
            continue
        kept[len(branches)] = u
        final = RapiditySet(tuple(values), DICKE_X)
        branches.append({
            "evb_start": [int(k) for k in np.nonzero(flipped[p])[0]],
            "rapidities": final,
            "report": rg_core.dicke_rg_residual(spec, final, jacobian=False),
        })
    log.debug("evb: %d of %d endpoints tracked, %d physical, %d candidates, %d states",
              int(np.sum(ok)), len(ok), int(np.sum(rel[candidates] <= evb.PHYSICAL_TOL)),
              len(candidates), len(branches))
    return branches


def _polish(residual_fn, w0, tol):
    """newton_solve from w0; a stall counts as converged when the best
    iterate's residuals are at their round-off floor (ROUNDOFF_ULPS)."""
    try:
        return newton_solve(residual_fn, w0, tol)[0]
    except ConvergenceError as err:
        report = residual_fn(err.best)
        floor = ROUNDOFF_ULPS * np.finfo(float).eps * (
            np.abs(report.jacobian) @ np.abs(err.best))
        if np.all(np.abs(report.residuals) <= np.maximum(floor, tol)):
            return err.best
        raise


def _ladder_branches(spec, policy):
    """Attempt every occupation multiset of the extended secular roots and
    return the distinct converged branches.

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
    return [
        {"occupation": list(pat), "rapidities": fin, "report": rep}
        for _, pat, fin, rep in branches
    ]
