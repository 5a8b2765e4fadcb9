"""Span tracing of the gaudin layers, done from outside the package.

Each traced function is rebound on its module to a wrapper that pushes a span
on an in-memory stack.  Calls between modules, and calls inside a module
through its globals, go through the module attribute, so the wrapper sees
them.  A span's self time is its duration minus the time of the spans it
caused.  Only per-(parent, name) aggregates are kept; they are written out
once, at the end of the run.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

# residual families in gaudin.rg_core, by metric name
RESIDUALS = {
    "rg": "rg_residual",
    "deformed_rg": "deformed_rg_residual",
    "tda": "tda_residual",
    "dicke_rg": "dicke_rg_residual",
    "deformed_dicke": "deformed_dicke_residual",
    "extended_dicke": "extended_dicke_residual",
}


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "raised", "raised_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.raised_s = 0.0


class Tracer:
    """Installs span wrappers on gaudin modules and aggregates what they see."""

    def __init__(self):
        self.stack = []
        self.spans = defaultdict(SpanStats)
        self.edges = Counter()
        self.counts = Counter()
        self._pair_z_ticks = itertools.count()
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, module, attr, name, before=None, after=None):
        orig = getattr(module, attr)
        stack, spans, edges = self.stack, self.spans, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                raised = False
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = spans[name]
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[1]
                if raised:
                    st.raised += 1
                    st.raised_s += dt
                edges[(parent, name)] += 1
            if after is not None:
                after(result)
            return result

        self._patch(module, attr, wrapper)

    def _count_pair_z(self, module):
        """Count calls to module.pair_z; no span, as it is called millions of
        times and a span would cost more than the call."""
        orig = module.pair_z
        tick = self._pair_z_ticks.__next__

        def pair_z(kind, u, v):
            tick()
            return orig(kind, u, v)

        self._patch(module, "pair_z", pair_z)

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- gaudin layers ----------------------------------------------------

    def install(self):
        from gaudin import algebra, cli, dicke, ed_oracle, rg_core, solver

        counts = self.counts
        self._span(cli, "main", "cli.main")

        self._span(solver, "enumerate_dicke_branches", "solver.enumerate",
                   after=lambda res: counts.update({"solver.branch.kept": len(res)}))
        self._span(solver, "solve_dicke_branch", "solver.branch")
        self._span(solver, "solve_rg", "solver.solve_rg")
        self._span(solver, "continue_in_xi", "solver.continue_in_xi")
        self._span(solver, "_continue_path", "solver.continue")
        self._span(solver, "newton_solve", "solver.newton",
                   after=lambda res: counts.update({"solver.newton.iters": res[2]}))
        self._span(solver, "solve_tda", "solver.secular")
        self._span(solver, "tda_roots_dicke", "solver.secular")

        for family, attr in RESIDUALS.items():
            self._span(rg_core, attr, "rg_core." + family,
                       before=self._jacobian_counter(getattr(rg_core, attr)))

        # rg_core and solver call pair_z through the binding rg_core imported;
        # algebra's own matrix builders call the original name
        self._count_pair_z(rg_core)
        self._count_pair_z(algebra)
        self._span(algebra, "build_gaudin", "algebra.build_gaudin")

        def realized(op):
            dim = op.basis.total_dim
            counts["ed_oracle.realize.max_dim"] = max(counts["ed_oracle.realize.max_dim"], dim)
            counts["ed_oracle.bytes_computed"] += 16 * dim * dim

        def charges_realized(ops):
            for op in ops:
                counts["ed_oracle.bytes_computed"] += 16 * op.basis.total_dim ** 2

        self._span(ed_oracle, "realize", "ed_oracle.realize", after=realized)
        self._span(ed_oracle, "realize_rg_charges", "ed_oracle.realize_rg_charges",
                   after=charges_realized)
        for attr in ("spectrum", "sector_spectrum", "eigensystem"):
            self._span(ed_oracle, attr, "ed_oracle.diag")
        self._span(ed_oracle, "eigencheck", "ed_oracle.eigencheck")

        self._span(dicke, "bethe_coefficients", "dicke.bethe_coefficients")

    def _jacobian_counter(self, fn):
        params = list(inspect.signature(fn).parameters.values())
        pos = [p.name for p in params].index("jacobian")
        default = params[pos].default
        counts = self.counts

        def before(args, kwargs):
            jac = args[pos] if len(args) > pos else kwargs.get("jacobian", default)
            if jac:
                counts["rg_core.residual.jac_calls"] += 1

        return before

    def uninstall(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)
        # reading the tick counter advances it by one
        self.counts["algebra.pair_z.calls"] = next(self._pair_z_ticks)

    # -- results ----------------------------------------------------------

    def counts_only(self):
        """Every count the trace made, for the exact-repeat check."""
        out = {name: st.calls for name, st in self.spans.items()}
        out.update({name + ".raised": st.raised for name, st in self.spans.items()})
        out.update(self.counts)
        out.update({f"{p}->{n}": c for (p, n), c in self.edges.items()})
        return out

    def metrics(self):
        """The per-layer metrics of BENCHMARK.json, from this trace."""
        sp, c = self.spans, self.counts

        def get(name):
            return sp[name] if name in sp else SpanStats()

        branch, newton = get("solver.branch"), get("solver.newton")
        res = [get("rg_core." + f) for f in RESIDUALS]
        res_calls = sum(r.calls for r in res)
        iters = c["solver.newton.iters"]
        diag = get("ed_oracle.diag")
        m = {
            "solver.branch.attempts": branch.calls,
            "solver.branch.ok": branch.calls - branch.raised,
            "solver.branch.useful_ratio": (c["solver.branch.kept"] / branch.calls
                                           if branch.calls else 0.0),
            "solver.branch.fail_s": branch.raised_s,
            "solver.newton.calls": newton.calls,
            "solver.newton.iters": iters,
            "solver.newton.failed": newton.raised,
            "solver.newton.self_s": newton.self_s,
            "solver.continue.s": get("solver.continue").incl_s,
            "solver.secular.s": get("solver.secular").incl_s,
            "solver.residual_per_iter": res_calls / iters if iters else 0.0,
            "rg_core.residual.calls": res_calls,
            "rg_core.residual.jac_calls": c["rg_core.residual.jac_calls"],
            "rg_core.residual.self_s": sum(r.self_s for r in res),
            "rg_core.residual.raised": sum(r.raised for r in res),
        }
        for family, stats in zip(RESIDUALS, res):
            m[f"rg_core.{family}.calls"] = stats.calls
        m.update({
            "algebra.pair_z.calls": c["algebra.pair_z.calls"],
            "algebra.build_gaudin.s": get("algebra.build_gaudin").incl_s,
            "ed_oracle.realize.calls": get("ed_oracle.realize").calls,
            "ed_oracle.realize.s": get("ed_oracle.realize").incl_s,
            "ed_oracle.realize.max_dim": c["ed_oracle.realize.max_dim"],
            "ed_oracle.bytes_computed": c["ed_oracle.bytes_computed"],
            "ed_oracle.diag.s": diag.incl_s,
            "ed_oracle.realize_rg_charges.s": get("ed_oracle.realize_rg_charges").incl_s,
            "ed_oracle.eigencheck.s": get("ed_oracle.eigencheck").incl_s,
            "dicke.bethe_coefficients.calls": get("dicke.bethe_coefficients").calls,
            "dicke.bethe_coefficients.s": get("dicke.bethe_coefficients").incl_s,
            "cli.self_s": get("cli.main").self_s,
        })
        return m

    def dump(self, path):
        doc = {
            "spans": {n: {k: getattr(st, k) for k in SpanStats.__slots__}
                      for n, st in sorted(self.spans.items())},
            "edges": [{"parent": p, "name": n, "calls": c}
                      for (p, n), c in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
