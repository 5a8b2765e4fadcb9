"""CPU time of two gaudin source trees on one benchmark workload, in one process.

Usage, from the root of a checkout:

    python tools/ab_cli.py PARENT CHANGE --workload dicke-enum --seeds 0-3 --rounds 40

PARENT and CHANGE are checkouts, each a directory that holds src/gaudin.  Each
tree's package is copied into a temporary directory under its own name
(gaudin_a for PARENT, gaudin_b for CHANGE) and imported there: the package
imports itself only relatively, so the copies do not see each other.  The
workload's specs are those of perfbench/specs.py of this checkout, for every
seed named, read without writing anything under perfbench/.

A pass runs every spec through a tree's cli.main, as the benchmark runs it.
After `--warmup` untimed passes per tree, each round times one pass per tree
in an order shuffled per round (random.Random(--order-seed)), by the
process's CPU time, so that load from other processes on a shared host
counts less than in wall time.  The summary gives per tree the median and
quartiles of the seconds per pass, the median of the per-round ratios CHANGE
/ PARENT (the paired ratio) and the rounds in which CHANGE took less time;
then whether each spec's exit code and document are the same on both trees.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("gaudin_a", "gaudin_b")


def load_tree(checkout, name, into):
    """The cli module of checkout's src/gaudin, copied into `into` as the
    package `name` and imported from there (`into` must be on sys.path)."""
    src = Path(checkout) / "src" / "gaudin"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{checkout}: no src/gaudin package")
    shutil.copytree(src, Path(into) / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name + ".cli")


def workload_specs(workload, seeds):
    """[(name, Spec)] of perfbench/specs.py for every seed, in run order."""
    sys.dont_write_bytecode = True  # leaves perfbench/ as it is
    loader = importlib.util.spec_from_file_location("_perfbench_specs",
                                                    ROOT / "perfbench" / "specs.py")
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    return [(f"{s.name}-seed{seed}", s) for seed in seeds
            for s in specs.generate(workload, seed)]


def seed_list(text):
    """'0-3' or '0,5,7' as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_pass(cli, jobs, out_dir):
    """Every job through cli.main; returns (CPU seconds, exit codes)."""
    codes = []
    start = time.process_time()
    for name, spec, path in jobs:
        codes.append(cli.main(spec.argv(str(path), str(out_dir / (name + ".out")))))
    return time.process_time() - start, codes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="dicke-enum")
    parser.add_argument("--seeds", default="0-3")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--order-seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        packages = tmp / "packages"
        sys.path.insert(0, str(packages))
        clis = [load_tree(root, name, packages)
                for root, name in zip((args.parent, args.change), NAMES)]
        jobs = []
        for name, spec in workload_specs(args.workload, seed_list(args.seeds)):
            path = tmp / (name + ".spec")
            path.write_text(spec.text)
            jobs.append((name, spec, path))
        outs = [tmp / ("documents_" + name) for name in NAMES]
        for out in outs:
            out.mkdir()
        codes = [None, None]
        for _ in range(args.warmup):
            for side in (0, 1):
                codes[side] = run_pass(clis[side], jobs, outs[side])[1]
        order = random.Random(args.order_seed)
        times = np.empty((args.rounds, 2))
        for r in range(args.rounds):
            sides = [0, 1]
            order.shuffle(sides)
            for side in sides:
                times[r, side], got = run_pass(clis[side], jobs, outs[side])
                if got != codes[side]:
                    print(f"round {r}: {NAMES[side]} exit codes {got}, first {codes[side]}")

        print(f"{args.workload} seeds {args.seeds}: {len(jobs)} specs per pass, "
              f"{args.rounds} rounds after {args.warmup} warm-up passes per tree")
        for side, root in enumerate((args.parent, args.change)):
            q1, med, q3 = np.percentile(times[:, side], (25, 50, 75))
            print(f"  {NAMES[side]} ({root}): CPU s per pass median {med:.6f}, "
                  f"quartiles {q1:.6f} - {q3:.6f}")
        ratio = times[:, 1] / times[:, 0]
        print(f"  paired ratio {np.median(ratio):.4f} (median of change / parent), change "
              f"lower in {int(np.sum(ratio < 1.0))} of {args.rounds} rounds")
        docs = [[(out / (n + ".out")).read_bytes() if (out / (n + ".out")).exists() else None
                 for n, _, _ in jobs] for out in outs]
        same = [a == b for a, b in zip(*docs)]
        print(f"  exit codes equal: {codes[0] == codes[1]}; documents identical: "
              f"{sum(same)} of {len(jobs)}")
        sys.path.remove(str(packages))


if __name__ == "__main__":
    main()
