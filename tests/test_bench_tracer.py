"""perfbench/tracing.py (the benchmark's per-layer tracer) rebinds package
names by attribute; renaming one of them breaks the benchmark, not the
package, so the names it patches are checked here."""

import importlib.util
import inspect
from pathlib import Path

from gaudin import rg_core, solver
from gaudin.algebra import LevelSet
from gaudin.rg_core import DICKE_X, RG_ETA, DickeSpec, ModelSpec, RapiditySet

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
