"""Root finding and adiabatic continuation along the deformation parameter.

The solve pipeline follows the deformation strategy: the roots of the
decoupled secular equation, the site part (rg_core.secular_row) of the t = 0
kernel row of the homotopy family the path tracks (spec.xi_family,
rg_core.tau_family), are the eigenvalues of a symmetric matrix
(_real_roots), they seed a damped-Newton corrector, and one adaptive
predictor-corrector, _continue_path, tracks the solution along the homotopy
parameter to the coupled equations, its last step landing on the end
exactly.  It evaluates every accepted point once, in the corrector, and takes
the point's tangent from the corrector's last iteration, whose inverse and
report, one Newton step from the point, need no further evaluation or
inverse: every family it tracks is affine in its parameter and reports its
exact rate dF/dt, formed only when the tangent reads it.  The predictor
(_predict) extrapolates the cubic Hermite interpolant through the last two
accepted points and their tangents, an Euler step on a path's first step,
and the measured error of each prediction sizes the next step (Allgower &
Georg, ch. 6).  Each Jacobian is inverted once (_inverse): the inverse gives
the step and, through the Frobenius condition number, the decision to refuse
it; an SVD runs only when that number cannot decide.  The closures hand
their arrays straight to the rg_core families, which compute in the
iterate's dtype: newton_solve corrects a start with no imaginary part in
float64, and every family row is real, so a real seed's path, its inverses,
tangents and predictions included, never leaves float64, while a complex
seed (a conjugate-pair split, an EVB endpoint) stays complex.  The RG path
runs xi 0 -> 1 (continue_in_xi); the Dicke path runs tau 0 -> 1 and then xi
down to 0 (solve_dicke_branch).  Both inner families have a secular row
affine in their parameter and a rapidity coupling proportional to it, so one
rule, _cluster_seeds, splits rapidities that share a root, at CLUSTER_T0,
from the family's own rows and rate.  A ContinuationPolicy sets the Newton
tolerance and the largest step, by default 1.0, which caps no path; the
Dicke outer leg is capped at OUTER_MAX_STEP as well, and the rest of the step
control is fixed below.

enumerate_dicke_branches tracks the eigenvalue-based homotopy (evb) of the
spec, for levels of any spin: one path per state of the sector from its
g = 0 start, on the exact Taylor-order equations of each level, order z^n,
n = 0 .. 2 s_k - 1, of

    (w - x) y - y^2 - G^2 y' + N G^2 = 2 G^2 sum_j s_j (y(x) - U_j)/(eps_j - x)

about eps_k, y = G^2 P'/P (evb), in batches of bounded memory, and
polishes every tracked endpoint on the Dicke equations.  While the sector is
short, it runs solve_dicke_branch over every occupation pattern, on a ladder
of xi starts.  Both accept a Dicke answer by one rule: its polish converges
(_polish) and its eigenvalue-based variables differ from every kept state's
(_is_new); either stops once it holds as many distinct states as the sector
has (DickeSpec.sector_dimension).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import evb, rg_core
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

log = logging.getLogger("gaudin")

# homotopy value at which rapidities sharing a secular root start, split
CLUSTER_T0 = 1e-3

# step control (Allgower & Georg, Introduction to Numerical Continuation
# Methods, ch. 6): a rejected step halves, and a path stalls once its step
# falls below MIN_STEP.  An accepted step sets the next from its predictor's
# relative error d = max|corrected - predicted| / (1 + max|corrected|): the
# Hermite predictor errs as the fourth power of the step, so a step 4x (2x)
# longer errs 256x (16x) more, and the step grows x4 while d <= PREDICTION_TOL
# / 256, x2 while d <= PREDICTION_TOL / 16, and stays otherwise.  The factors
# are discrete so that round-off in d, which differs between a float64 and a
# complex run of one path, cannot move the path's grid.  newton_solve gives
# up after MAX_NEWTON_ITERS iterations
MIN_STEP = 1e-8
STEP_SHRINK = 0.5
PREDICTION_TOL = 1e-3
STEP_GROWTH = ((PREDICTION_TOL / 256.0, 4.0), (PREDICTION_TOL / 16.0, 2.0))
MAX_NEWTON_ITERS = 50

# the largest step of the Dicke outer leg (xi_start -> 0), whatever the
# policy's: on 40 random spin-1/2 specs (m 2-3, N 1-3), every occupation
# pattern at xi_start 1 (335 solves) against a reference at step 0.01, with
# the inner homotopy uncapped, this cap keeps 146 answers on the reference's
# state and 5 on another, where leaving the leg uncapped keeps 143 and lands
# 9 on another; the inner homotopy and the RG xi path keep their labels
# uncapped
OUTER_MAX_STEP = 0.1

# a tangent is refused (the point kept as its own prediction) when its
# Jacobian's condition number exceeds this
TANGENT_COND = 1e12


@dataclass(frozen=True)
class ContinuationPolicy:
    """Newton tolerance and largest step of the adiabatic tracking.

    max_step caps every step of every path; its default 1.0, the length of
    the longest path, caps none, so each step is sized by its predictor's
    error alone (_growth), and the Dicke outer leg by OUTER_MAX_STEP too.
    """

    newton_tol: float = 1e-10
    max_step: float = 1.0

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


def _frobenius(a):
    """|a|_F as a Python float, from one BLAS call: a near-singular inverse
    overflows it to inf (or nan), and products of Python floats overflow to
    inf without the RuntimeWarning of numpy scalars; either refuses."""
    return math.sqrt(np.vdot(a, a).real)


def _inverse(jac, limit):
    """jac^-1, or None when jac is singular or cond(jac) > limit.

    One inverse serves both the step and the decision: the Frobenius
    condition number cond_F = |J|_F |J^-1|_F bounds the 2-norm one, cond_2 <=
    cond_F <= n cond_2, so cond_F <= limit/2 accepts and cond_F > 2 n limit
    refuses for certain, the factor 2 covering the round-off of the computed
    inverse.  Only in between does _ill_conditioned's SVD decide.
    """
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return None
    cond = _frobenius(jac) * _frobenius(inv)
    if cond <= 0.5 * limit:
        return inv
    if not cond <= 2.0 * len(jac) * limit or _ill_conditioned(jac, limit):
        return None
    return inv


class NewtonResult(tuple):
    """newton_solve's (values, report, iterations), carrying in `last` the
    last iteration's (inverse, report it inverted), None when no iteration
    ran: the inverse of a Jacobian one Newton step from the values, which
    the continuation reuses for the point's tangent (_reused_tangent)."""

    def __new__(cls, values, report, iterations, last=None):
        result = super().__new__(cls, (values, report, iterations))
        result.last = last
        return result


def newton_solve(residual_fn, w0, tol=1e-10):
    """Damped Newton iteration on a holomorphic residual system.

    residual_fn maps a rapidity array to a ResidualReport with an analytic
    Jacobian; w0 is the starting array.  A float64 start is taken as it is,
    any other with no nonzero imaginary part is corrected in float64 (the
    families compute in the iterate's dtype, and their real rows cannot give
    it an imaginary part), and the rest in complex128; the values come back
    in that dtype.  Each trial point is evaluated once, and the array it was
    evaluated at becomes the iterate.  Each iteration inverts its Jacobian
    once (_inverse), for the step and for the condition test, and refuses a
    Jacobian whose condition number exceeds 1e14: the Jacobian of the trial
    that ends the solve is never read, so never formed.  Its
    errors carry the iterations made (a CollisionError comes from the start,
    before any).  Returns (values, report, iterations) as a NewtonResult,
    whose `last` keeps the last iteration's inverse and the report it
    inverted.
    """
    w = np.asarray(w0)
    if w.dtype != np.float64:
        w = np.array(w0, dtype=complex)
        if not w.imag.any():
            w = w.real.copy()
    report = residual_fn(w)
    if report.max_abs <= tol:
        return NewtonResult(w, report, 0)
    for it in range(1, MAX_NEWTON_ITERS + 1):
        inv = _inverse(report.jacobian, 1e14)
        if inv is None:
            raise SingularJacobianError(
                f"Jacobian condition estimate exceeds 1e14 at iteration {it}", iterations=it
            )
        step = inv @ report.residuals
        # damping: halve the step while it fails to reduce the residual
        scale = 1.0
        for _ in range(12):
            point = w - scale * step
            try:
                trial = residual_fn(point)
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
                iterations=it,
            )
        w = point
        last = (inv, report)
        report = trial
        if report.max_abs <= tol:
            return NewtonResult(w, report, it, last)
    raise ConvergenceError(
        f"no convergence in {MAX_NEWTON_ITERS} iterations "
        f"(residual {report.max_abs:.3e})",
        best=w,
        max_abs=report.max_abs,
        iterations=MAX_NEWTON_ITERS,
    )


def _real_roots(row):
    """All real roots of the secular row of the kernel row `row` (an
    rg_core._Row), in ascending order, from one symmetric eigensolve (Golub,
    SIAM Rev. 15, 318 (1973)).

    The row is base + lin*w + sum_i n_i/(e_i - w) (rg_core.secular_row);
    levels with n_i = 0 drop out, and every family's n_i share one sign, that
    of lin when lin != 0.  The roots are then the eigenvalues of the arrowhead
    [[diag(e), z], [z^T, -base/lin]] with z_i^2 = n_i/lin, or, at lin = 0, of
    diag(e) + (sum(n)/base) q q^T with q along sqrt(|n_i|).  In a basis that
    starts with q the rank-one term is one corner entry; at base = 0 its root
    is at infinity and the other m - 1 are the eigenvalues of the rest.
    Each root's bracket, the poles next to it, comes from its rank in the
    interlacing, not from where round-off put it (within an ulp of a pole at
    weak coupling): root k of the arrowhead lies between poles k - 1 and k,
    and so does that of a negative rank-one term sum(n)/base (whose sign is
    that of n_0/base), while a positive one, and base = 0, put it between
    poles k and k + 1.  Newton on
    secular_row finishes each root from inside its bracket, a move kept
    while it is shorter than the last: a Newton step that would leave the
    bracket (at weak coupling it overshoots the pole next to the root) goes
    halfway to the end it crossed instead, and the loop stops when no root
    moves, so a root closer to its pole than any double ends on the double
    next to the pole.
    """
    live = row.n != 0.0
    e, n, base, lin = row.e[live], row.n[live], row.base, row.lin
    if lin:
        mat = np.diag(np.append(e, -base / lin))
        mat[-1, :-1] = mat[:-1, -1] = np.sqrt(n / lin)
    elif len(e):
        q = np.linalg.qr(np.sqrt(np.abs(n))[:, None], mode="complete")[0]
        mat = (q.T * e) @ q
        if base:
            mat[0, 0] += np.sum(n) / base
        else:
            mat = mat[1:, 1:]
    else:
        return []
    w = np.sort(np.linalg.eigvalsh(mat))
    poles = np.concatenate(([-np.inf], np.sort(e), [np.inf]))
    # root k lies between poles[k + shift] and poles[k + shift + 1]
    shift = 0 if lin or (base and n[0] / base < 0.0) else 1
    lo, hi = poles[shift:shift + len(w)], poles[shift + 1:shift + 1 + len(w)]
    w = np.minimum(np.maximum(w, np.nextafter(lo, hi)), np.nextafter(hi, lo))
    last = np.full(len(w), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_ITERS):
            value, slope = rg_core.secular_row(row, w)
            step = value / slope
            step = np.where(w - step <= lo, 0.5 * (w - lo),
                            np.where(w - step >= hi, 0.5 * (w - hi), step))
            keep = (lo < w - step) & (w - step < hi) & (np.abs(step) < last)
            if not np.any(keep):
                break
            w = np.where(keep, w - step, w)
            last = np.where(keep, np.abs(step), 0.0)
    return [float(x) for x in w]


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


def _cluster_seeds(family, values):
    """Seeds of a homotopy family (an rg_core._Homotopy) from the secular
    roots `values` of its t = 0 row, whose rapidity coupling is 0.

    Returns (t_start, seeds): (0.0, values) when no root repeats; otherwise
    the leading-order solution at t_start = CLUSTER_T0.  k rapidities on a
    simple root x0 of F, the secular row at t = 0, split as x0 + shift +
    sigma * u_a with sigma^2 = t_start * P(x0) / F'(x0), P = -g_pair (1 + c
    x0^2) the coefficient of sum_b 1/(x_b - x_a) in the t = 1 row's
    rapidity coupling, u_a the zeros of the Hermite polynomial H_k, and
    shift = -t_start * dF/dt / F', dF/dt the secular row of the family's
    rate, the one the path's tangent reads.
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
    row0, row1 = family.ends
    out = values.copy()
    for members in groups.values():
        x0 = values[members[0]]
        fp = rg_core.secular_row(row0, x0)[1]
        shift = -t_start * rg_core.secular_row(family.rate, x0)[0] / fp
        k = len(members)
        if k == 1:
            out[members[0]] = x0 + shift
            continue
        pair = -row1.g_pair * (1.0 + row1.c * x0 * x0)
        sigma = np.sqrt(complex(t_start * pair / fp))
        herm = np.polynomial.hermite.hermroots([0.0] * k + [1.0])
        for h, idx in zip(herm, members):
            out[idx] = x0 + shift + sigma * h
    return t_start, out


def solve_tda(spec, occupation=None):
    """Solve the decoupled secular equations and pick N seed rapidities.

    The secular row 1 + g sum_i Z(eta_i, w) Omega_i, of the t = 0 row of
    spec.xi_family, has up to m real roots; the occupation pattern selects a
    multiset of them (default: lowest first).  Returns the TDA point itself,
    sorted by real part: a repeated root stays repeated, and continue_in_xi
    splits it by _cluster_seeds.
    """
    roots = _real_roots(spec.xi_family.ends[0])
    if not roots:
        raise InsufficientModesError("secular equation has no real roots")
    values = _assign_pattern(roots, spec.n_excitations, occupation)
    values = values[np.argsort(values.real)]
    return RapiditySet(tuple(values), RG_ETA)


def tda_roots_dicke(spec, xi=1.0):
    """Real roots of the decoupled secular equation of the extended Dicke
    construction at deformation xi, the t = 0 row of rg_core.tau_family, in
    the physical x frame, where its poles are the eps_k."""
    return _real_roots(rg_core.tau_family(spec, float(xi)).ends[0])


def _continue_path(residual_at, t_start, t_end, values, policy):
    """Predictor-corrector tracking of residual_at(t, values) = 0 from t_start
    to t_end; residual_at(t, values) returns a ResidualReport with its
    Jacobian and its rate dF/dt.  Each step is predicted by _predict from the
    last two accepted points and their tangents, the tangent taken from the
    corrector's last inverse where it can be (_reused_tangent); the step
    after it is sized from its predictor's error (_growth), and the last step
    lands on t_end exactly; no step exceeds policy.max_step.  Logs one DEBUG
    line per path, with the step cap it ran with.  Returns ([(t, values,
    max_abs), ...], status)."""
    tol = policy.newton_tol
    evaluations = accepted = rejected = corrections = reused = fresh = 0
    smallest = math.inf

    def at(t):
        def fn(w):
            nonlocal evaluations
            evaluations += 1
            return residual_at(t, w)
        return fn

    def done(status):
        log.debug("path %g -> %g %s: %d steps accepted, %d rejected, smallest %.3g, "
                  "cap %g; %d evaluations; %d inverses: %d Newton iterations, %d tangents "
                  "afresh (%d reused)", t_start, t_end, status, accepted, rejected, smallest,
                  policy.max_step, evaluations, corrections + fresh, corrections, fresh,
                  reused)
        return path, status

    solved = newton_solve(at(t_start), values, tol)
    values, report, corrections = solved
    path = [(t_start, values, report.max_abs)]
    direction = 1.0 if t_end > t_start else -1.0
    t = t_start
    step = policy.initial_step
    last = None
    while (t_end - t) * direction > 0.0:
        tangent = _reused_tangent(solved)
        if tangent is None:
            fresh += 1
            tangent = _tangent(report)
        else:
            reused += 1
        here = (t, values, tangent)
        # retry from (t, values) with shrinking steps until the corrector lands
        while True:
            step = min(step, abs(t_end - t))
            smallest = min(smallest, step)
            t_next = t_end if step == abs(t_end - t) else t + direction * step
            predicted = _predict(last, here, t_next)
            try:
                solved = newton_solve(at(t_next), predicted, tol)
                break
            except (ConvergenceError, SingularJacobianError) as err:
                failure = "stalled"
                corrections += err.iterations
            except CollisionError:
                failure = "collision_detected"
            rejected += 1
            step *= STEP_SHRINK
            if step < MIN_STEP:
                return done(failure)
        accepted += 1
        last = here
        t = t_next
        values, report, iters = solved
        corrections += iters
        path.append((t, values, report.max_abs))
        # branches that leave every finite scale are escaping to infinity
        size = np.max(np.abs(values))
        if size > 1e8:
            return done("stalled")
        step = min(step * _growth(values, predicted, size), policy.max_step)
    return done("converged")


def _growth(corrected, predicted, size):
    """The factor of the step after an accepted one, from the relative error
    d = max|corrected - predicted| / (1 + size) of its prediction, size =
    max|corrected| (STEP_GROWTH): 1 when d exceeds every bound."""
    d = np.max(np.abs(corrected - predicted)) / (1.0 + size)
    for bound, factor in STEP_GROWTH:
        if d <= bound:
            return factor
    return 1.0


def _predict(last, here, t):
    """The predicted values at t from the accepted points `here` and, before
    it, `last` (None on a path's first step), each (t, values, tangent) with
    tangent None where _tangent refused it.

    With both tangents it extrapolates the cubic Hermite interpolant through
    the two points (evb.hermite, the formula of both trackers), whose error
    is O(h^4) on steps of size h.  With `here`'s tangent alone it is the
    Euler step y1 + tau y1', tau = t - here's t; without it, `here`'s values.
    """
    t1, y1, d1 = here
    if d1 is None:
        return y1
    tau = t - t1
    if last is None or last[2] is None:
        return y1 + tau * d1
    t0, y0, d0 = last
    return evb.hermite(y0, d0, y1, d1, t1 - t0, tau)


def _tangent(here):
    """Path tangent dvalues/dt = -J^-1 dF/dt at an accepted point, from its
    report `here`: J and the family's exact rate dF/dt, which every family
    on a path reports (each is affine in its parameter, the outer Dicke path
    in the x frame included).  None (keep the point as the prediction) when
    J's condition number exceeds TANGENT_COND (_inverse)."""
    inv = _inverse(here.jacobian, TANGENT_COND)
    return None if inv is None else -(inv @ here.rate)


def _reused_tangent(solved):
    """The path tangent at the values of a NewtonResult from its last
    iteration: -J^-1 dF/dt with that iteration's inverse and the rate of the
    report it inverted, at an iterate one Newton step (within the predictor's
    error) from the values, so no further inverse is needed.  None when no
    iteration ran, or when the inverse's Frobenius condition number exceeds
    TANGENT_COND / 2, below which _inverse accepts for certain; _tangent then
    decides at the point itself."""
    if solved.last is None:
        return None
    inv, inverted = solved.last
    if not _frobenius(inverted.jacobian) * _frobenius(inv) <= 0.5 * TANGENT_COND:
        return None
    return -(inv @ inverted.rate)


def _trace(path, status, frame):
    return SolutionTrace(
        [TracePoint(t, RapiditySet(tuple(v.tolist()), frame), r) for t, v, r in path], status
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

    def residual_at(xi, w, jacobian=True):
        return rg_core.deformed_rg_residual(spec, xi, w, jacobian)

    xi0, seeds = _cluster_seeds(spec.xi_family, r_start.as_array())
    path, status = _continue_path(residual_at, xi0, 1.0, seeds, policy)
    return _trace(path, status, RG_ETA)


def solve_rg(spec, policy=None, occupation=None):
    """Full pipeline for the RG equations: TDA seeds continued from xi = 0 to 1.

    The final point is re-verified with an independent rg_residual
    evaluation.  Returns (RapiditySet, that check's ResidualReport,
    SolutionTrace).
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
    return final, check, trace


def solve_dicke_branch(spec, occupation, policy=None, xi_start=1.0):
    """Solve one Bethe branch of the Dicke equations.

    Pipeline: decoupled roots of the extended construction at xi = xi_start,
    inner homotopy tau 0 -> 1 (reintroducing the rapidity coupling), then the
    single-copy deformation from xi_start down to xi = 0, in steps of at most
    OUTER_MAX_STEP, where the family is the Dicke equations over hbar_omega;
    that last point is polished on the Dicke equations in energy units
    (_polish, as every enumerated state is) and listed in one order
    (_ordered).
    xi_start = 1 is the natural top of the family; branches that escape to
    infinity there need a smaller xi_start (a larger deformed copy).
    Returns (RapiditySet in the x frame, the polish's ResidualReport, trace).
    """
    policy = policy or ContinuationPolicy()
    roots = tda_roots_dicke(spec, xi_start)
    if not roots:
        raise InsufficientModesError("extended secular equation has no real roots")
    x_seed = _assign_pattern(roots, spec.n_excitations, occupation)

    def inner(tau, w, jacobian=True):
        return rg_core.extended_dicke_residual(spec, tau, w, xi_start, jacobian)

    def outer(xi, w, jacobian=True):
        return rg_core.deformed_dicke_residual(spec, xi, w, jacobian)

    def exact(w):
        return rg_core.dicke_rg_residual(spec, w)

    tau0, x_seed = _cluster_seeds(rg_core.tau_family(spec, float(xi_start)), x_seed)
    path, status = _continue_path(inner, tau0, 1.0, x_seed, policy)
    _require_converged(path[-1], status, "inner homotopy", "tau")
    capped = replace(policy, max_step=min(policy.max_step, OUTER_MAX_STEP))
    path, status = _continue_path(outer, xi_start, 0.0, path[-1][1], capped)
    _require_converged(path[-1], status, "outer continuation", "xi")
    values, report = _polish(exact, path[-1][1], policy.newton_tol)
    path[-1] = (0.0, _ordered(values), report.max_abs)
    trace = _trace(path, status, DICKE_X)
    return trace.final.rapidities, report, trace


# xi starts of the ladder, falling: the (0, 0, 1) state of levels 0.91002 and
# 0.91155 at spins 1/2 and 5/2 (G 0.1857, hbar_omega 1.2, N 3) needs 0.01
XI_START_LADDER = (1.0, 0.5, 0.25, 0.1, 0.04, 0.01)

# a polish that stalls above the Newton tolerance still counts when every
# residual is within this many ulps of the rapidities times its Jacobian row,
# |J| |x|: with a rapidity between two close levels that floor exceeds 1e-10
ROUNDOFF_ULPS = 8.0


def enumerate_dicke_branches(spec, policy=None):
    """Every Bethe branch of the Dicke spec found, sorted by energy (sum of
    x): the EVB states (_evb_branches), and then, while the sector is
    short, the ladder's (_ladder_branches).

    Each branch is a dict with "rapidities" (x frame) and "report" (the Dicke
    residual), and "evb_start" (each level listed once per flip at the start
    of its EVB path) or "occupation" (the extended secular roots it was
    seeded from).
    """
    policy = policy or ContinuationPolicy()
    full = spec.sector_dimension()
    branches = _evb_branches(spec, policy)
    if len(branches) < full:
        added = _ladder_branches(spec, policy, branches)
        log.debug("ladder: %d states added to %d from evb, of %d", len(added),
                  len(branches), full)
        branches += added
    branches.sort(key=lambda b: float(np.sum(b["rapidities"].as_array().real)))
    return branches


def _evb_branches(spec, policy):
    """Branches from all EVB endpoints (evb.Quadratics) of the spec.

    Every tracked endpoint seeds _polish on the Dicke equations with the roots
    of its Heine-Stieltjes polynomial, the lowest least-squares residual
    first, and a converged state is kept when it is new (_is_new).  The
    residual only orders the polishes: where solutions nearly meet, an
    endpoint whose residual is no better than a spurious neighbour's, or far
    worse, still polishes into its state.  Polishing stops once the sector is
    full: the kept states are distinct, so no later endpoint can be new.
    """
    m = len(spec.epsilons)
    flips, ends, ok = evb.Quadratics(spec).solve()
    roots, rel = evb.heine_stieltjes(spec, ends[:, :m])
    tracked = np.nonzero(ok)[0]
    tracked = tracked[np.argsort(rel[tracked], kind="stable")]
    full = spec.sector_dimension()

    def exact(w):
        return rg_core.dicke_rg_residual(spec, w)

    kept = np.empty((len(tracked), m), dtype=complex)
    branches = []
    polished = failed = 0
    worst = 0.0
    for p in tracked:
        if len(branches) == full:
            break
        polished += 1
        try:
            values, report = _polish(exact, roots[p], policy.newton_tol)
        except (ConvergenceError, SingularJacobianError, CollisionError):
            failed += 1
            continue
        state = evb.eigenvalue_variables(spec, values)
        if not _is_new(state, kept[:len(branches)]):
            continue
        kept[len(branches)] = state
        worst = max(worst, rel[p])
        branches.append({
            "evb_start": [int(k) for k in np.repeat(np.arange(m), flips[p])],
            "rapidities": RapiditySet(tuple(_ordered(values)), DICKE_X),
            "report": report,
        })
    log.debug("evb: %d of %d endpoints tracked, %d states; %d polished, %d failed, %d left "
              "once the sector was full; largest Heine-Stieltjes residual of a kept "
              "state %.3g",
              len(tracked), len(ok), len(branches), polished, failed,
              len(tracked) - polished, worst)
    return branches


def _is_new(state, known):
    """Whether the eigenvalue-based variables `state` (m,) of a polished
    state differ from each of `known` (K of them, as rows or a list) by more
    than evb.distinct_tol of the pair, in the max norm: the one rule by which
    EVB and the ladder tell a new state from a kept one."""
    known = np.reshape(known, (-1, len(state)))
    far = np.max(np.abs(known - state), axis=1)
    # a row's modulus is at most state's plus its distance, and so is its
    # pair's tolerance: only the rows within that can repeat the state
    near = known[far <= evb.distinct_tol(state) + evb.DISTINCT_TOL * far]
    return not any(np.max(np.abs(k - state)) <= evb.distinct_tol((k, state)) for k in near)


def _ordered(values):
    """The rapidities of a Dicke answer in one order, whatever order they were
    found in: by real part, the two members of a conjugate pair (|x_a - conj
    x_b| within round-off of their size: 1e-12, where pairs read at most 4e-16)
    sorted by the lower of their real parts, the one with the positive
    imaginary part first.  Only the order changes."""
    x = np.asarray(values)
    pair = np.abs(x[:, None] - x.conj()) <= 1e-12 * np.maximum.outer(np.abs(x), np.abs(x))
    np.fill_diagonal(pair, False)
    key = np.where(pair, np.minimum.outer(x.real, x.real), x.real[:, None]).min(axis=1)
    return x[np.lexsort((-x.imag, key))]


def _polish(residual_fn, w0, tol):
    """newton_solve from w0, returning (values, their report); a stall counts
    as converged when the best iterate's residuals are at their round-off
    floor (ROUNDOFF_ULPS)."""
    try:
        return newton_solve(residual_fn, w0, tol)[:2]
    except ConvergenceError as err:
        report = residual_fn(err.best)
        floor = ROUNDOFF_ULPS * np.finfo(float).eps * (
            np.abs(report.jacobian) @ np.abs(err.best))
        if np.all(np.abs(report.residuals) <= np.maximum(floor, tol)):
            return err.best, report
        raise


def _ladder_branches(spec, policy, found=()):
    """Attempt every occupation multiset of the extended secular roots and
    return the converged branches distinct from each other and from the
    branches `found` already.

    Patterns that fail at xi_start = 1 (typically branches escaping to
    infinity because the deformed copy is too small) or converge onto a
    known branch (not _is_new) are retried at smaller xi_start values, where
    the larger deformed copy holds every finite solution.  No pattern is
    tried once the sector is full.
    """
    from itertools import combinations_with_replacement

    n = spec.n_excitations
    n_roots = len(tda_roots_dicke(spec, XI_START_LADDER[0]))
    pending = list(combinations_with_replacement(range(n_roots), n))
    known = [evb.eigenvalue_variables(spec, b["rapidities"].values) for b in found]
    branches = []
    full = spec.sector_dimension()

    def attempt(pattern, xi_start):
        try:
            return solve_dicke_branch(spec, list(pattern), policy, xi_start)[:2]
        except (ConvergenceError, SingularJacobianError, CollisionError,
                SelectionError):
            return None

    for xi_start in XI_START_LADDER:
        if not pending:
            break
        still = []
        for i, pattern in enumerate(pending):
            if len(known) == full:
                log.debug("ladder: the sector is full at %d states; %d patterns left "
                          "at xi_start %g", full, len(pending) - i, xi_start)
                still = []
                break
            res = attempt(pattern, xi_start)
            if res is None:
                still.append(pattern)
                continue
            final, report = res
            u = evb.eigenvalue_variables(spec, final.values)
            if not _is_new(u, known):
                # relabeled onto a known branch; look deeper down the ladder
                still.append(pattern)
                continue
            known.append(u)
            branches.append({"occupation": list(pattern), "rapidities": final,
                             "report": report})
        pending = still
    return branches
