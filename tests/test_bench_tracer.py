"""perfbench/tracing.py (the benchmark's per-layer tracer) rebinds package
names by attribute; renaming one of them breaks the benchmark, not the
package, so the names it patches are checked here."""

import importlib.util
import inspect
from pathlib import Path

from gaudin import cli, dicke, ed_oracle, rg_core, solver
from gaudin.algebra import LevelSet
from gaudin.rg_core import DICKE_X, RG_ETA, DickeSpec, ModelSpec, RapiditySet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_benchmark_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    names = [(solver, "solve_tda"), (solver, "tda_roots_dicke"), (rg_core, "pair_z")]
    names += [(rg_core, attr) for attr in tracing.RESIDUALS.values()]
    for _, attr in names[3:]:
        assert "jacobian" in inspect.signature(getattr(rg_core, attr)).parameters
    originals = [getattr(module, attr) for module, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [getattr(module, attr) for module, attr in names]
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in names] == originals


def test_tracer_counts_jacobian_by_keyword_and_by_position():
    tracing = _load_tracing()
    rg_args = dict(spec=ModelSpec(LevelSet.from_spins((0.9, 2.1), (0.5, 1.0)),
                                  "trigonometric", 2, -0.12),
                   r=RapiditySet((0.3 + 0.2j, 1.4 - 0.1j), RG_ETA))
    dicke_args = dict(spec=DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2),
                      r=RapiditySet((0.43 + 0.2j, 1.9 - 0.3j), DICKE_X))
    calls = {}
    for family, attr in tracing.RESIDUALS.items():
        values = dict(rg_args if family in ("rg", "deformed_rg", "tda") else dicke_args,
                      xi=0.5, tau=0.5)
        params = list(inspect.signature(getattr(rg_core, attr)).parameters.values())
        # every parameter before jacobian, passed by position
        head = params[:[p.name for p in params].index("jacobian")]
        calls[family] = (attr, [values.get(p.name, p.default) for p in head])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for family, (attr, args) in calls.items():
            fn = getattr(rg_core, attr)
            before = tracer.counts["rg_core.residual.jac_calls"]
            fn(*args, jacobian=True)
            fn(*args, True)
            fn(*args)
            fn(*args, jacobian=False)
            fn(*args, False)
            assert tracer.counts["rg_core.residual.jac_calls"] - before == 3, family
    finally:
        tracer.uninstall()


def _traced_run(tmp_path, workload, index):
    """One traced cli.main call on a benchmark spec (seed 0); the tracer
    after it is uninstalled."""
    bench = _load("specs").generate(workload, 0)[index]
    path = tmp_path / "model.spec"
    path.write_text(bench.text)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(bench.argv(str(path), str(tmp_path / "out.doc"))) == 0
    finally:
        tracer.uninstall()
    return bench, tracer


def test_a_traced_solve_dicke_call_reaches_every_patched_name(tmp_path):
    # every name the tracer patches on this path is reached through the
    # patched attribute; the record step realizes nothing.  The roots of the
    # exact spin-1 system meet the Newton tolerance already: all six
    # endpoints, complex, are accepted by one batched Dicke evaluation, which
    # reads no Jacobian, and no newton_solve runs (its res[2] hook is read on
    # the solve-rg call below)
    originals = [cli.main, solver.enumerate_dicke_branches, solver.newton_solve,
                 rg_core.dicke_rg_residual, ed_oracle.realize, ed_oracle.eigencheck,
                 dicke.bethe_coefficients]
    _, tracer = _traced_run(tmp_path, "dicke-enum", 1)  # m2-n3-spin1
    assert [cli.main, solver.enumerate_dicke_branches, solver.newton_solve,
            rg_core.dicke_rg_residual, ed_oracle.realize, ed_oracle.eigencheck,
            dicke.bethe_coefficients] == originals
    metrics = tracer.metrics()
    spans = tracer.spans
    assert spans["cli.main"].calls == 1 and spans["solver.enumerate"].calls == 1
    assert metrics["solver.newton.calls"] == 0
    assert metrics["rg_core.dicke_rg.calls"] == metrics["rg_core.residual.calls"] == 1
    assert tracer.edges[("solver.enumerate", "rg_core.dicke_rg")] == 1
    assert metrics["rg_core.residual.jac_calls"] == 0
    assert metrics["ed_oracle.realize.calls"] == 0
    assert metrics["ed_oracle.realize.max_dim"] == 0
    assert spans["ed_oracle.eigencheck"].calls == 1
    assert metrics["dicke.bethe_coefficients.calls"] == 1
    assert tracer.counts["solver.branch.kept"] == 6


def test_a_traced_solve_rg_call_checks_its_answer_once(tmp_path):
    # the independent rg_residual check of solve_rg is the document's
    # residual; nothing evaluates the final point again
    _, tracer = _traced_run(tmp_path, "rg-large", 0)
    metrics = tracer.metrics()
    assert tracer.spans["cli.main"].calls == 1
    assert tracer.spans["solver.solve_rg"].calls == 1
    assert metrics["rg_core.rg.calls"] == 1
    assert metrics["solver.newton.iters"] > 0
    assert metrics["rg_core.residual.raised"] == 0
