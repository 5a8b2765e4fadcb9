"""perfbench/tracing.py (the benchmark's per-layer tracer) rebinds package
names by attribute; renaming one of them breaks the benchmark, not the
package, so the names it patches are checked here."""

import importlib.util
import inspect
from pathlib import Path

from gaudin import rg_core, solver

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
