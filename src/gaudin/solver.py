"""Root finding and adiabatic continuation along the deformation parameter.

The solve pipeline follows the deformation strategy: the decoupled secular
equation (rg_core.secular_row with a family's kernel parameters) is solved by
bracketing between its poles, the roots seed a damped-Newton corrector, and
an adaptive first-order predictor-corrector tracks the solution along the
homotopy parameter to the coupled equations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

ALL_COPIES_DEFORMED = "all_copies_deformed"
SINGLE_COPY_DICKE = "single_copy_dicke"

# magnitude of the symmetric complex lift applied to repeated seed roots
SEED_LIFT = 1e-4

# below this xi the single-copy family is numerically indistinguishable from
# the exact contraction limit; the final polish switches to the Dicke residual
XI_HANDOFF = 1e-4


@dataclass(frozen=True)
class ContinuationPolicy:
    """Step-control knobs for the adiabatic tracking."""

    xi_start: float = 0.0
    xi_end: float = 1.0
    initial_step: float = 1e-2
    min_step: float = 1e-8
    max_step: float = 0.1
    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    step_shrink: float = 0.5
    step_grow: float = 1.3

    def __post_init__(self):
        if not (0.0 < self.min_step <= self.initial_step <= self.max_step):
            raise DomainError("need 0 < min_step <= initial_step <= max_step")
        if self.newton_tol <= 0.0:
            raise DomainError("newton_tol must be positive")


@dataclass
class TracePoint:
    xi: float
    rapidities: RapiditySet
    max_abs: float
    newton_iters: int


@dataclass
class SolutionTrace:
    path: list
    status: str  # converged | stalled | collision_detected

    @property
    def final(self):
        return self.path[-1]


def newton_solve(residual_fn, w0, tol=1e-10, max_iters=50):
    """Damped Newton iteration on a holomorphic residual system.

    residual_fn maps a complex rapidity array to a ResidualReport with an
    analytic Jacobian; w0 is the complex starting array.  Returns
    (values, report, iterations).
    """
    w = np.array(w0, dtype=complex)
    report = residual_fn(w)
    if report.max_abs <= tol:
        return w, report, 0
    for it in range(1, max_iters + 1):
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
        f"no convergence in {max_iters} iterations (residual {report.max_abs:.3e})",
        best=w,
        max_abs=report.max_abs,
    )


def _real_roots(row, span_factor=50.0, samples=400):
    """All real roots of the secular row with kernel parameters `row`, by
    sign-change bracketing on each interval between its poles (the sites)
    plus two outer windows."""

    def f(w):
        return rg_core.secular_row(w, **row)[0]

    poles = np.sort(np.asarray(row["sites"], dtype=float))
    span = max(poles[-1] - poles[0], 1.0)
    edges = np.concatenate(
        [[poles[0] - span_factor * span], poles, [poles[-1] + span_factor * span]]
    )
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-9 * max(abs(lo), abs(hi), 1.0)
        a, b = lo + margin, hi - margin
        if b <= a:
            continue
        ts = np.linspace(a, b, samples)
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


def _cluster_seeds(spec, values, t_start, omega0, xi):
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
    start = rg_core.extended_dicke_params(spec, 0.0, omega0, xi)
    end = rg_core.extended_dicke_params(spec, 1.0, omega0, xi)
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


def tda_roots_dicke(spec, omega0=2.0, xi=1.0):
    """Real roots of the decoupled (tau = 0) secular equation of the extended
    Dicke construction at deformation xi, scanned in the physical x frame,
    where its poles are the eps_k."""
    return _real_roots(rg_core.extended_dicke_params(spec, 0.0, omega0, xi))


def _continue_path(residual_at, t_start, t_end, values, policy):
    """Generic predictor-corrector tracking of residual_at(t, values) = 0."""
    frame_vals = np.asarray(values, dtype=complex)
    report = residual_at(t_start, frame_vals)
    if report.max_abs > policy.newton_tol:
        frame_vals, report, _ = newton_solve(
            lambda w: residual_at(t_start, w),
            frame_vals,
            policy.newton_tol,
            policy.max_newton_iters,
        )
    path = [(t_start, frame_vals.copy(), report.max_abs, 0)]
    if t_start == t_end:
        return path, "converged"
    direction = 1.0 if t_end > t_start else -1.0
    t = t_start
    step = policy.initial_step
    while (t_end - t) * direction > 0.0:
        step = min(step, abs(t_end - t))
        t_next = t + direction * step
        predicted = _euler_predict(residual_at, t, frame_vals, direction * step)
        try:
            new_vals, report, iters = newton_solve(
                lambda w: residual_at(t_next, w),
                predicted,
                policy.newton_tol,
                policy.max_newton_iters,
            )
        except (ConvergenceError, SingularJacobianError):
            step *= policy.step_shrink
            if step < policy.min_step:
                return path, "stalled"
            continue
        except CollisionError:
            step *= policy.step_shrink
            if step < policy.min_step:
                return path, "collision_detected"
            continue
        t = t_next
        frame_vals = new_vals
        path.append((t, frame_vals.copy(), report.max_abs, iters))
        # branches that leave every finite scale are escaping to infinity
        if np.max(np.abs(frame_vals)) > 1e8:
            return path, "stalled"
        if iters <= 3:
            step = min(step * policy.step_grow, policy.max_step)
    return path, "converged"


def _euler_predict(residual_at, t, values, dt):
    """First-order predictor: solve J dr/dt = -dF/dt by finite differences,
    falling back to constant prediction when ill-conditioned."""
    h = max(1e-7, 1e-7 * abs(t))
    try:
        here = residual_at(t, values)
        try:
            f_hi = residual_at(t + h, values)
            f_lo = residual_at(t - h, values)
            dfdt = (f_hi.residuals - f_lo.residuals) / (2.0 * h)
        except DomainError:
            # one-sided difference at a domain edge
            sgn = 1.0 if dt > 0 else -1.0
            f_near = residual_at(t + sgn * h, values)
            dfdt = sgn * (f_near.residuals - here.residuals) / h
        jac = here.jacobian
        if np.linalg.cond(jac) > 1e12:
            return values
        return values + dt * np.linalg.solve(jac, -dfdt)
    except (CollisionError, DomainError, np.linalg.LinAlgError):
        return values


def continue_in_xi(spec, policy, r_start, family, omega0=2.0):
    """Track a solution of the chosen deformed family from xi_start to xi_end.

    all_copies_deformed: ModelSpec, typically xi 0 -> 1 (TDA seeds to the full
    RG equations).  single_copy_dicke: DickeSpec, typically xi 1 -> 0; since
    the family is singular at xi = 0 the path stops at a small handoff value
    and the final point is polished and re-checked against the exact Dicke
    residual.
    """
    if family == ALL_COPIES_DEFORMED:
        def residual_at(t, w):
            return rg_core.deformed_rg_residual(spec, t, RapiditySet(tuple(w), RG_ETA))

        frame = RG_ETA
        xi_end = policy.xi_end
        path, status = _continue_path(residual_at, policy.xi_start, xi_end,
                                      r_start.as_array(), policy)
    elif family == SINGLE_COPY_DICKE:
        def residual_at(t, w):
            return rg_core.deformed_dicke_residual(
                spec, t, RapiditySet(tuple(w), DICKE_X), omega0
            )

        frame = DICKE_X
        exact_end = policy.xi_end == 0.0
        xi_end = XI_HANDOFF if exact_end else policy.xi_end
        path, status = _continue_path(residual_at, policy.xi_start, xi_end,
                                      r_start.as_array(), policy)
        if status == "converged" and exact_end:
            vals = path[-1][1]
            vals, report, iters = newton_solve(
                lambda w: rg_core.dicke_rg_residual(spec, RapiditySet(tuple(w), DICKE_X)),
                vals,
                policy.newton_tol,
                policy.max_newton_iters,
            )
            path.append((0.0, vals, report.max_abs, iters))
    else:
        raise DomainError(f"unknown continuation family {family!r}")
    trace = SolutionTrace(
        [TracePoint(t, RapiditySet(tuple(v), frame), r, it) for t, v, r, it in path],
        status,
    )
    return trace


def solve_rg(spec, policy=None, occupation=None):
    """Full pipeline for the RG equations: TDA seeds continued from xi = 0 to 1.

    Returns (RapiditySet, SolutionTrace); the final point is re-verified with
    an independent rg_residual evaluation.
    """
    policy = policy or ContinuationPolicy(xi_start=0.0, xi_end=1.0)
    seeds = solve_tda(spec, occupation=occupation)
    trace = continue_in_xi(spec, policy, seeds, ALL_COPIES_DEFORMED)
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


def solve_dicke_branch(spec, occupation, omega0=2.0, policy=None, xi_start=1.0):
    """Solve one Bethe branch of the Dicke equations.

    Pipeline: decoupled roots of the extended construction at xi = xi_start,
    inner homotopy tau 0 -> 1 (reintroducing the rapidity coupling), then the
    single-copy deformation xi_start -> 0 down to the exact Dicke equations.
    xi_start = 1 is the natural top of the family; branches that escape to
    infinity there need a smaller xi_start (a larger deformed copy).
    Returns (RapiditySet in the x frame, final ResidualReport, trace).
    """
    policy = policy or ContinuationPolicy(xi_start=xi_start, xi_end=0.0)
    roots = tda_roots_dicke(spec, omega0, xi_start)
    if not roots:
        raise InsufficientModesError("extended secular equation has no real roots")
    x_seed = _assign_pattern(roots, spec.n_excitations, occupation)

    def inner(t, w):
        return rg_core.extended_dicke_residual(
            spec, t, RapiditySet(tuple(w), DICKE_X), omega0, xi_start
        )

    tau0 = 0.0
    if len(_equal_groups(x_seed)) < len(x_seed):
        # repeated secular roots: seed the cluster split at a small tau > 0
        tau0 = 1e-3
        x_seed = _cluster_seeds(spec, x_seed, tau0, omega0, xi_start)

    path, status = _continue_path(inner, tau0, 1.0, x_seed, policy)
    if status != "converged":
        raise ConvergenceError(
            f"inner homotopy {status} at tau = {path[-1][0]:.6g}",
            best=path[-1][1],
            max_abs=path[-1][2],
        )
    r_at_start = RapiditySet(tuple(path[-1][1]), DICKE_X)
    outer_policy = replace(policy, xi_start=xi_start, xi_end=0.0)
    trace = continue_in_xi(spec, outer_policy, r_at_start, SINGLE_COPY_DICKE, omega0)
    if trace.status != "converged":
        raise ConvergenceError(
            f"outer continuation {trace.status} at xi = {trace.final.xi:.6g}",
            best=trace.final.rapidities.as_array(),
            max_abs=trace.final.max_abs,
        )
    final = trace.final.rapidities
    report = rg_core.dicke_rg_residual(spec, final, jacobian=False)
    return final, report, trace


XI_START_LADDER = (1.0, 0.5, 0.25, 0.1, 0.04)


def enumerate_dicke_branches(spec, omega0=2.0, policy=None, xi_starts=XI_START_LADDER):
    """Attempt every occupation multiset of the extended secular roots and
    return the distinct converged branches, sorted by energy (sum of x).

    Patterns that fail at xi_start = 1 (typically branches escaping to
    infinity because the deformed copy is too small) or converge onto an
    already-found branch are retried at smaller xi_start values, where the
    larger deformed copy holds every finite solution.
    """
    from itertools import combinations_with_replacement

    n = spec.n_excitations
    n_roots = len(tda_roots_dicke(spec, omega0, xi_starts[0]))
    pending = list(combinations_with_replacement(range(n_roots), n))
    branches = []

    def attempt(pattern, xi_start):
        try:
            final, report, trace = solve_dicke_branch(
                spec, list(pattern), omega0, policy, xi_start
            )
            return final, report
        except (ConvergenceError, SingularJacobianError, CollisionError,
                SelectionError):
            return None

    for xi_start in xi_starts:
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
