"""Benchmark of the gaudin CLI: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dicke-enum --seed 0 --seconds 32 --trace 0

Workloads (see specs.py and BENCHMARK.json):
  dicke-enum  full solve-dicke enumeration on two specs (m=3 N=2; m=2 N=3 spin 1)
  rg-large    solve-rg on rational specs with m=32 N=16 and m=48 N=24
  ed-oracle   ed-spectrum on a Dicke spec (m=7, cutoff 16) and an RG spec (m=9)

The run builds nothing: it puts the checkout's src/ on PYTHONPATH.  It first
imports gaudin.cli in several fresh processes (setup_s, the median), then runs
the workload in one more fresh process (worker.py) with the BLAS thread count
pinned, and prints every metric with its unit.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer
ones, from a traced run of the same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import specs as specgen  # noqa: E402
import hostspeed  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 5
RUN_LIMIT_S = 175.0
PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import gaudin.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("GAUDIN_LOG", None)
    return env


def setup_seconds(env, root, deadline):
    """Median time to import gaudin.cli, each in a fresh interpreter, at the
    speed of a quiet host (see hostspeed.py); also the raw samples."""
    samples, scaled = [], []
    before = hostspeed.slowdown()
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        after = hostspeed.slowdown()
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(samples[-1] / (before * after) ** 0.5)
        before = after
    return statistics.median(scaled), samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaudin", "cli.py")):
        print("error: run from the root of a gaudin checkout (src/gaudin/cli.py not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    work = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)

    setup = None
    if not args.trace:
        setup, setup_samples = setup_seconds(env, root, deadline)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: workload process overran the run limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json")) as fh:
        res = json.load(fh)

    if args.trace:
        values = dict(res["layers"])
        correct = res["failed"] == 0 and res["counts_repeat"]
    else:
        values = {
            "setup_s": setup,
            "wall_s": res["wall_s"],
            "completeness": res["completeness"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        correct = res["failed"] == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  passes {res['passes']}"
          f"  trace {args.trace}")
    for key, val in sorted(res["provenance"].items()):
        print(f"  provenance.{key} = {val}")
    if setup is not None:
        print("  setup raw samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
    for name, info in res["specs"].items():
        line = (f"  spec {name}: {info['mode']}, {info['median_s']:.4f} s at quiet-host speed"
                f" (raw fastest {min(info['seconds']):.4f} s, host slowdown"
                f" {min(info['slowdown']):.3f}-{max(info['slowdown']):.3f})")
        if info["states_expected"] is not None:
            line += (f", states {info['states_found']}/{info['states_expected']}"
                     f" (missing {info['states_missing']})")
        if info["failures"]:
            line += ", FAILED: " + "; ".join(info["failures"])
        print(line)
    if args.trace:
        print(f"  untraced wall_s {res['untraced_wall_s']:.4f} s,"
              f" counts repeat exactly: {res['counts_repeat']}")
    print(f"  fail_frac = {res['failed'] / res['attempted']:.6g}"
          f" ({res['failed']} of {res['attempted']} calls)")
    for name, info in metrics.items():
        print(f"  {name} = {info['value']:.6g} {info['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
