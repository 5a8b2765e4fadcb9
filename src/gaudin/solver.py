"""Root finding and adiabatic continuation along the deformation parameter.

The solve pipeline follows the deformation strategy: the roots of the
decoupled secular equation, the site part (rg_core.secular_row) of the t = 0
kernel row of the homotopy family the path tracks (spec.xi_family,
rg_core.tau_family), are the eigenvalues of a symmetric matrix
(_real_roots), they seed a damped-Newton corrector, and one adaptive
predictor-corrector, _continue_path, tracks the solution along the homotopy
parameter to the coupled equations, its last step landing on the end
exactly.  It evaluates every accepted point once, in the corrector, and takes
the point's tangent from that evaluation alone: every family it tracks is
affine in its parameter and reports its exact rate dF/dt, formed only when
the tangent reads it.  The predictor (_predict) extrapolates the cubic
Hermite interpolant through the last two accepted points and their tangents,
an Euler step on a path's first step.  Each Jacobian is inverted once
(_inverse): the inverse gives the step and, through the Frobenius condition
number, the decision to refuse it; an SVD runs only when that number cannot
decide.  The closures hand their arrays straight to the rg_core families,
which compute in the iterate's dtype: newton_solve corrects a start with no
imaginary part in float64, and every family row is real, so a real seed's
path, its inverses, tangents and predictions included, never leaves float64,
while a complex seed (a conjugate-pair split, an EVB endpoint) stays
complex.  The RG path runs xi 0 -> 1 (continue_in_xi); the Dicke path runs
tau 0 -> 1 and then xi down to 0 (solve_dicke_branch).  Both inner families
have a secular row affine in their parameter and a rapidity coupling
proportional to it, so one rule, _cluster_seeds, splits rapidities that
share a root, at CLUSTER_T0, from the family's own rows and rate.  A
ContinuationPolicy sets the Newton tolerance and the largest step; the rest
of the step control is fixed below.

enumerate_dicke_branches picks its method from the spins.  A level of spin
s counts as 2 s spin-1/2 levels a small spacing apart (split_delta,
split_levels); while there are at most twelve of those, it tracks the
eigenvalue-based homotopy (evb) of the split spec and polishes the physical
endpoints on the Dicke equations of the spec itself.  Otherwise, or when the
levels are too close for any spacing, it runs solve_dicke_branch over every
occupation pattern, on a ladder of xi starts.  Both tell states apart by
their eigenvalue-based variables (evb.eigenvalue_variables, within
evb.distinct_tol), and either stops once it holds as many distinct states as
the sector has (DickeSpec.sector_dimension).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
from .rg_core import DICKE_X, RG_ETA, DickeSpec, RapiditySet

log = logging.getLogger("gaudin")

# homotopy value at which rapidities sharing a secular root start, split
CLUSTER_T0 = 1e-3

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


def newton_solve(residual_fn, w0, tol=1e-10):
    """Damped Newton iteration on a holomorphic residual system.

    residual_fn maps a rapidity array to a ResidualReport with an analytic
    Jacobian; w0 is the starting array.  A start with no nonzero imaginary
    part is corrected in float64 (the families compute in the iterate's
    dtype, and their real rows cannot give it an imaginary part), any other
    in complex128; the values come back in that dtype.  Each iteration
    inverts its Jacobian once (_inverse), for the step and for the condition
    test, and refuses a Jacobian whose condition number exceeds 1e14.
    Returns (values, report, iterations).
    """
    w = np.array(w0, dtype=complex)
    if not w.imag.any():
        w = w.real.copy()
    report = residual_fn(w)
    if report.max_abs <= tol:
        return w, report, 0
    for it in range(1, MAX_NEWTON_ITERS + 1):
        inv = _inverse(report.jacobian, 1e14)
        if inv is None:
            raise SingularJacobianError(
                f"Jacobian condition estimate exceeds 1e14 at iteration {it}"
            )
        step = inv @ report.residuals
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
    """All real roots of the secular row of the kernel row `row` (an
    rg_core._Row), in ascending order, from one symmetric eigensolve (Golub,
    SIAM Rev. 15, 318 (1973)).

    The row is base + lin*w + sum_i n_i/(e_i - w) (rg_core.secular_row);
    levels with n_i = 0 drop out, and every family's n_i share one sign, that
    of lin when lin != 0.  The roots are then the eigenvalues of the arrowhead
    [[diag(e), z], [z^T, -base/lin]] with z_i^2 = n_i/lin, or, at lin = 0, of
    diag(e) + (sum(n)/base) q q^T with q along sqrt(|n_i|).  In a basis that
    starts with q the rank-one term is one corner entry; at base = 0 its root
    is at infinity and the other m - 1 are the eigenvalues of the rest.  Newton
    on secular_row finishes each root, a step kept while it is shorter than
    the last and stays between the poles next to the root.
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
    poles = np.sort(e)
    side = np.searchsorted(poles, w)
    lo = np.append(-np.inf, poles)[side]
    hi = np.append(poles, np.inf)[side]
    last = np.full(len(w), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_ITERS):
            value, slope = rg_core.secular_row(row, w)
            step = value / slope
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
    last two accepted points and their tangents, and the last step lands on
    t_end exactly.  Returns ([(t, values, max_abs), ...], status)."""
    tol = policy.newton_tol
    values, report, _ = newton_solve(lambda w: residual_at(t_start, w), values, tol)
    path = [(t_start, values, report.max_abs)]
    direction = 1.0 if t_end > t_start else -1.0
    t = t_start
    step = policy.initial_step
    last = None
    while (t_end - t) * direction > 0.0:
        here = (t, values, _tangent(report))
        # retry from (t, values) with shrinking steps until the corrector lands
        while True:
            step = min(step, abs(t_end - t))
            t_next = t_end if step == abs(t_end - t) else t + direction * step
            predicted = _predict(last, here, t_next)
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
        last = here
        t = t_next
        values = new_vals
        path.append((t, values, report.max_abs))
        # branches that leave every finite scale are escaping to infinity
        if np.max(np.abs(values)) > 1e8:
            return path, "stalled"
        if iters <= 3:
            step = min(step * STEP_GROW, policy.max_step)
    return path, "converged"


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
    J's condition number exceeds 1e12 (_inverse)."""
    inv = _inverse(here.jacobian, 1e12)
    return None if inv is None else -(inv @ here.rate)


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
    single-copy deformation from xi_start down to xi = 0, where the family is
    the Dicke equations over hbar_omega; that last point is polished on the
    Dicke equations in energy units and listed in one order (_ordered).
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
    path, status = _continue_path(outer, xi_start, 0.0, path[-1][1], policy)
    _require_converged(path[-1], status, "outer continuation", "xi")
    values, report, _ = newton_solve(exact, path[-1][1], policy.newton_tol)
    path[-1] = (0.0, _ordered(values), report.max_abs)
    trace = _trace(path, status, DICKE_X)
    return trace.final.rapidities, report, trace


XI_START_LADDER = (1.0, 0.5, 0.25, 0.1, 0.04)

# enumeration methods, chosen from the spins of the spec
EVB = "evb"
XI_CONTINUATION = "xi-continuation"

# a polish that stalls above the Newton tolerance still counts when every
# residual is within this many ulps of the rapidities times its Jacobian row,
# |J| |x|: with a rapidity between two close levels that floor exceeds 1e-10
ROUNDOFF_ULPS = 8.0

# split levels (split_delta): their spacing relative to the Heine-Stieltjes
# scale h, the share of a level gap that two split neighbours may fill, and
# the spacing relative to h below which no split fits.  On random mixed-spin
# specs, at 5e-2 h some polishes land on another state, and near 1e-3 h the
# split levels lose paths and Heine-Stieltjes accuracy
SPLIT_DELTA = 1e-2
SPLIT_GAP = 0.25
SPLIT_FLOOR = 3e-3


def enumeration_method(spec):
    """EVB when the spec's split into spin-1/2 levels (split_delta) exists and
    its 2^(sum 2 s_k) paths fit in one batch (evb.MAX_PATHS), the
    xi-continuation ladder otherwise."""
    if (2 ** sum(_multiplicities(spec)) <= evb.MAX_PATHS
            and split_delta(spec) is not None):
        return EVB
    return XI_CONTINUATION


def _multiplicities(spec):
    return [int(round(2.0 * s)) for s in spec.spins]


def split_delta(spec):
    """Spacing of the 2 s spin-1/2 levels that stand for a level of spin s on
    the EVB path: SPLIT_DELTA times the Heine-Stieltjes scale h (evb.frame),
    capped so that the split levels of two neighbours, each group widened by
    the spacing, fill at most SPLIT_GAP of the gap between them.  0.0 when
    every spin is 1/2; None when the cap is below SPLIT_FLOOR * h."""
    sizes = _multiplicities(spec)
    if max(sizes) == 1:
        return 0.0
    h = evb.frame(spec)[1]
    delta = SPLIT_DELTA * h
    order = np.argsort(spec.epsilons)
    for k, j in zip(order[:-1], order[1:]):
        if sizes[k] + sizes[j] > 2:
            gap = spec.epsilons[j] - spec.epsilons[k]
            delta = min(delta, SPLIT_GAP * gap / (0.5 * (sizes[k] + sizes[j])))
    return delta if delta >= SPLIT_FLOOR * h else None


def split_levels(spec, delta):
    """The spin-1/2 spec in which level k is 2 s_k levels delta apart,
    centred on eps_k, and the original level of each of its levels; a
    spin-1/2 spec is its own split."""
    eps, owner = [], []
    for k, (e, n) in enumerate(zip(spec.epsilons, _multiplicities(spec))):
        eps += [e + (j - 0.5 * (n - 1)) * delta for j in range(n)]
        owner += [k] * n
    split = DickeSpec(tuple(eps), (0.5,) * len(eps), spec.coupling_G, spec.hbar_omega,
                      spec.n_excitations)
    return split, np.array(owner)


def enumerate_dicke_branches(spec, policy=None):
    """Every Bethe branch of the Dicke spec that the method for its spins
    (enumeration_method) finds, sorted by energy (sum of x).

    Each branch is a dict with "rapidities" (x frame) and "report" (the Dicke
    residual), and "evb_start" (the level of each spin-1/2 level flipped at
    the start of its EVB path) or "occupation" (the extended secular roots it
    was seeded from).
    """
    policy = policy or ContinuationPolicy()
    if enumeration_method(spec) == EVB:
        branches = _evb_branches(spec, policy)
    else:
        branches = _ladder_branches(spec, policy)
    branches.sort(key=lambda b: float(np.sum(b["rapidities"].as_array().real)))
    return branches


def _evb_branches(spec, policy):
    """Branches from all EVB endpoints (evb.Quadratics) of the spec split
    into spin-1/2 levels (split_levels), which is the spec itself when every
    spin is 1/2.

    Each endpoint whose Heine-Stieltjes residual is at most evb.CANDIDATE_TOL
    seeds newton_solve on the Dicke equations of the spec with the roots of
    its polynomial; a converged state is kept unless its eigenvalue-based
    variables repeat a kept one's.  The physical endpoints (evb.PHYSICAL_TOL)
    give the states; the rest of the candidates recover a state whose
    endpoint sits where solutions nearly meet, and whose residual is then no
    better than a spurious neighbour's.  Of a split level's states, those of
    its lower multiplets are exact split-spec solutions that fail the polish
    or repeat a kept state, and their split partners sit far apart in U
    (_partner_spread: 8.9, about 4 G^2/delta, on the benchmark's spin-1 spec,
    against at most 0.023 for its states).  So the candidates are polished
    by spread, then most physical first (the order of rel alone on spin-1/2
    specs, where the spread is 0), and polishing stops once the sector is
    full: the kept states have distinct eigenvalue-based variables, so no
    later candidate can be new.
    """
    split, owner = split_levels(spec, split_delta(spec))
    flipped, ends, ok = evb.Quadratics(split).solve()
    roots, rel = evb.heine_stieltjes(split, ends)
    candidates = np.nonzero(ok & (rel <= evb.CANDIDATE_TOL))[0]
    spread = _partner_spread(ends[candidates], owner)
    candidates = candidates[np.lexsort((rel[candidates], spread))]
    tol = evb.distinct_tol(ends[ok])
    full = spec.sector_dimension()

    def exact(w):
        return rg_core.dicke_rg_residual(spec, w)

    kept = np.empty((len(candidates), len(spec.epsilons)), dtype=complex)
    branches = []
    polished = 0
    for p in candidates:
        if len(branches) == full:
            break
        polished += 1
        try:
            values, report = _polish(exact, roots[p], policy.newton_tol)
        except (ConvergenceError, SingularJacobianError, CollisionError):
            continue
        u = evb.eigenvalue_variables(spec, values)
        if np.any(np.max(np.abs(kept[:len(branches)] - u), axis=1) <= tol):
            continue
        kept[len(branches)] = u
        branches.append({
            "evb_start": [int(k) for k in owner[flipped[p]]],
            "rapidities": RapiditySet(tuple(_ordered(values)), DICKE_X),
            "report": report,
        })
    log.debug("evb: %d of %d endpoints tracked, %d physical, %d candidates, %d states; "
              "%d polished, %d left once the sector was full",
              int(np.sum(ok)), len(ok), int(np.sum(rel[candidates] <= evb.PHYSICAL_TOL)),
              len(candidates), len(branches), polished, len(candidates) - polished)
    return branches


def _partner_spread(ends, owner):
    """Per endpoint (rows of ends, U of the split spec), the largest |U_j -
    U_k| between two split levels j, k of one original level (owner); 0 when
    no level is split."""
    j, k = np.nonzero(np.triu(owner[:, None] == owner[None, :], 1))
    return np.abs(ends[:, j] - ends[:, k]).max(axis=1, initial=0.0)


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


def _ladder_branches(spec, policy):
    """Attempt every occupation multiset of the extended secular roots and
    return the distinct converged branches.

    Patterns that fail at xi_start = 1 (typically branches escaping to
    infinity because the deformed copy is too small) or converge onto an
    already-found branch (eigenvalue-based variables within evb.distinct_tol
    of its) are retried at smaller xi_start values, where the larger deformed
    copy holds every finite solution.  No pattern is tried once the sector is
    full.
    """
    from itertools import combinations_with_replacement

    n = spec.n_excitations
    n_roots = len(tda_roots_dicke(spec, XI_START_LADDER[0]))
    pending = list(combinations_with_replacement(range(n_roots), n))
    branches = []
    full = spec.sector_dimension()

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
        for i, pattern in enumerate(pending):
            if len(branches) == full:
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
            if any(np.max(np.abs(k - u)) <= evb.distinct_tol((k, u)) for k, *_ in branches):
                # relabeled onto a known branch; look deeper down the ladder
                still.append(pattern)
                continue
            branches.append((u, pattern, final, report))
        pending = still
    return [
        {"occupation": list(pat), "rapidities": fin, "report": rep}
        for _, pat, fin, rep in branches
    ]
