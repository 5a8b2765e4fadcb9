"""One benchmark workload, run in a fresh Python process.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the BLAS
thread count pinned.  It writes the workload's spec files, times calls to
gaudin.cli.main on them, checks every document the calls wrote, and leaves a
result.json in the work directory.

Each call is timed while a reference loop (hostspeed.py) samples how much the
shared host slowed it; a spec's time is the median over its repeats of call
time / slowdown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import namedtuple

import specs as specgen
import hostspeed
from tracing import Tracer

REL_ENERGY_TOL = 1e-8
MIN_PASSES = 3
TRACED_PASSES = 2


# one timed CLI call: wall seconds, host slowdown it met, exit code (None if
# it raised), and the document it wrote (None if none)
Call = namedtuple("Call", "seconds slowdown code text")


def parse_doc(text):
    """A result document as {section: {key: value}}; None is the header."""
    doc = {None: {}}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            doc.setdefault(section, {})
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "row":
            doc[section].setdefault("rows", []).append(value.split())
        else:
            doc[section][key] = value
    return doc


class Workload:
    def __init__(self, name, seed, work_dir):
        import gaudin.cli

        self.cli = gaudin.cli
        self.work_dir = work_dir
        self.specs = specgen.generate(name, seed)
        self.spec_paths = []
        for spec in self.specs:
            path = os.path.join(work_dir, spec.name + ".spec")
            with open(path, "w") as fh:
                fh.write(spec.text)
            self.spec_paths.append(path)

    def call(self, argv):
        """One CLI call; the exit code, or None if it raised."""
        try:
            return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    def run_pass(self):
        """Every spec once; a Call per spec."""
        out = []
        for spec, path in zip(self.specs, self.spec_paths):
            doc_path = os.path.join(self.work_dir, spec.name + ".out")
            if os.path.exists(doc_path):
                os.remove(doc_path)
            code, seconds, slowdown = hostspeed.timed(self.call, spec.argv(path, doc_path))
            text = None
            if os.path.exists(doc_path):
                with open(doc_path) as fh:
                    text = fh.read()
            out.append(Call(seconds, slowdown, code, text))
        return out

    # -- output checks, outside the timed phase ---------------------------

    def _cli_doc(self, argv, out_name):
        path = os.path.join(self.work_dir, out_name)
        if os.path.exists(path):
            os.remove(path)
        code = self.call(argv + ["--out", path])
        if code != 0 or not os.path.exists(path):
            return code, None
        with open(path) as fh:
            return code, parse_doc(fh.read())

    def _verify(self, spec):
        doc_path = os.path.join(self.work_dir, spec.name + ".out")
        code, _ = self._cli_doc(["--mode", "verify", "--spec", doc_path],
                                spec.name + ".verify")
        return [] if code == 0 else [f"verify exit {code}"]

    def check(self, spec, path, text):
        """(list of failures, Dicke states found) for one document."""
        doc = parse_doc(text)
        if spec.mode == "solve-dicke":
            return self._check_dicke(spec, path, doc)
        if spec.mode == "solve-rg":
            fails = self._verify(spec)
            if "branch 0" not in doc:
                fails.append("no branch record")
            return fails, None
        return self._check_spectrum(spec, doc), None

    def _check_dicke(self, spec, path, doc):
        p = spec.params
        expected = specgen.sector_dim(p["spins"], p["N"])
        fails = self._verify(spec)
        energies = [float(kv["rayleigh_energy"]) for sec, kv in doc.items()
                    if sec is not None and sec.startswith("branch ")]
        cutoff = doc[None].get("boson_cutoff")
        code, ed = self._cli_doc(
            ["--mode", "ed-spectrum", "--spec", path, "--boson-cutoff", str(cutoff)],
            spec.name + ".ed")
        if ed is None:
            return fails + [f"ed-spectrum exit {code}"], 0
        sector = sorted(float(e) for m, e in ed["spectrum"].get("rows", [])
                        if int(m) == p["N"])
        if len(sector) != expected:
            fails.append(f"ED sector has {len(sector)} states, expected {expected}")
        matched = set()
        for e in energies:
            near = min(range(len(sector)), key=lambda i: abs(sector[i] - e), default=None)
            if near is None or abs(sector[near] - e) > REL_ENERGY_TOL * max(1.0, abs(e)):
                fails.append(f"rayleigh energy {e!r} matches no ED eigenvalue")
            elif near in matched:
                fails.append(f"two branches share ED eigenvalue {sector[near]!r}")
            else:
                matched.add(near)
        return fails, len(matched)

    def _check_spectrum(self, spec, doc):
        p = spec.params
        rows = doc.get("spectrum", {}).get("rows", [])
        counts = {}
        for label, value in rows:
            if not math.isfinite(float(value)):
                return [f"non-finite eigenvalue in {label}"]
            counts[int(label)] = counts.get(int(label), 0) + 1
        if spec.boson_cutoff is not None:
            top = spec.boson_cutoff + sum(int(round(2 * s)) for s in p["spins"])
            want = {m: specgen.sector_dim(p["spins"], m, spec.boson_cutoff)
                    for m in range(top + 1)}
        else:
            want = {i: specgen.spin_dim(p["spins"]) for i in range(len(p["spins"]))}
        return [f"{label} {counts.get(label, 0)} eigenvalues, expected {n}"
                for label, n in want.items() if counts.get(label, 0) != n]


def run_passes(workload, budget, min_passes):
    """Passes until the next would overrun the budget (at least min_passes)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - t0) > budget:
            return passes


def run_interleaved(workload, budget):
    """Untraced and traced passes in turn, so that both meet the same load on
    the host, until the next pair would overrun the budget (at least
    TRACED_PASSES pairs).  Returns (untraced passes, traced passes, tracers)."""
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(workload.run_pass())
        tracers.append(Tracer())
        tracers[-1].install()
        try:
            traced.append(workload.run_pass())
        finally:
            tracers[-1].uninstall()
        now = time.perf_counter()
        if len(traced) >= TRACED_PASSES and now - start + (now - t0) > budget:
            return untraced, traced, tracers


def spec_seconds(passes, i):
    """Spec i's time: median over its repeats of call seconds / host slowdown."""
    return statistics.median(p[i].seconds / p[i].slowdown for p in passes)


def wall_seconds(passes):
    return sum(spec_seconds(passes, i) for i in range(len(passes[0])))


def provenance():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    workload = Workload(args.workload, args.seed, args.work)
    result = {"provenance": provenance(), "specs": {}}
    if args.trace:
        untraced, traced, tracers = run_interleaved(workload, args.seconds)
        passes, timed = untraced + traced, untraced
        per_pass = [t.metrics() for t in tracers]
        # counts repeat exactly; times are taken from the fastest pass of each
        layer = {k: (min(m[k] for m in per_pass) if k.endswith("_s") or k.endswith(".s")
                     else per_pass[0][k]) for k in per_pass[0]}
        repeat = all(t.counts_only() == tracers[0].counts_only() for t in tracers)
        untraced_wall, traced_wall = wall_seconds(untraced), wall_seconds(traced)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead"] = traced_wall / untraced_wall
        result["layers"] = layer
        result["counts_repeat"] = repeat
        result["untraced_wall_s"] = untraced_wall
        tracers[0].dump(os.path.join(args.work, "trace.json"))
    else:
        passes = run_passes(workload, args.seconds, MIN_PASSES)
        timed = passes

    attempted = failed = found = expected = 0
    for i, (spec, path) in enumerate(zip(workload.specs, workload.spec_paths)):
        first = passes[0][i]
        n_found = n_expected = None
        if spec.mode == "solve-dicke":
            p = spec.params
            n_found, n_expected = 0, specgen.sector_dim(p["spins"], p["N"])
        if first.code != 0:
            fails = [f"exit {first.code}"]
        elif first.text is None:
            fails = ["no document"]
        else:
            fails, n_found = workload.check(spec, path, first.text)
        if n_expected is not None:
            found += n_found
            expected += n_expected
        calls = [one[i] for one in passes]
        bad = sum(1 for c in calls if fails or c.code != 0 or c.text != first.text)
        attempted += len(calls)
        failed += bad
        result["specs"][spec.name] = {
            "mode": spec.mode,
            "seconds": [c.seconds for c in calls],
            "slowdown": [c.slowdown for c in calls],
            "median_s": spec_seconds(timed, i),
            "failed_calls": bad,
            "failures": fails,
            "states_found": n_found,
            "states_expected": n_expected,
            "states_missing": None if n_expected is None else n_expected - n_found,
        }
    result.update({
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "wall_s": wall_seconds(timed),
        "completeness": found / expected if expected else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.trace:
        result["layers"]["solver.branch.missing"] = expected - found
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
