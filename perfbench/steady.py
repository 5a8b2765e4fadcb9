"""Run the benchmark over workloads and seeds; report the run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload all --seeds 0-9 [--seconds 32]

Runs the benchmark once per (workload, seed), one run at a time, and prints
every metric of each run with its unit and whether the output checks passed.
With two or more seeds it then prints, per workload and end-to-end metric,
the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound.  The last line is the same summary as JSON.  --out appends every run's
result line to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import specs as specgen


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def workloads_arg(text):
    return list(specgen.WORKLOADS) if text == "all" else text.split(",")


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", type=workloads_arg, required=True,
                    help="a workload, a comma-separated list, or 'all'")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(line)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "result": line}) + "\n")
            shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                             for k, v in line["metrics"].items())
            print(f"{workload} seed {seed}: correct={line['correct']} failed="
                  f"{line['failed']}/{line['attempted']} {shown}", flush=True)
        if len(runs) < 2:
            continue
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": metric["unit"]}
            print(f"{workload} {metric['name']}: median {med:.6g} {metric['unit']},"
                  f" spread {spread:.4f} (bound {metric['bound']},"
                  f" a third {metric['bound'] / 3:.4f})", flush=True)
    print(json.dumps({"seeds": args.seeds, "seconds": args.seconds, "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
