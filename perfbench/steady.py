#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and print
per end-to-end metric its median, quartiles and spread against its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads serve-100k,paper-sec5] [--out FILE]

The spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4); a metric is steady when its spread stays
below a third of its bound in BENCHMARK.json (setup_s is reported but gated
only on its median). The failed share of operations must repeat exactly.
With --out, every run's result object is also written to FILE as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    everything = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: checks failed", flush=True)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        everything[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share per run {sorted(shares)}"
              + ("" if len(shares) == 1 else "  NOT EQUAL"))
        steady &= len(shares) == 1
        print(f"{'metric':<22} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]["bound"]
            if name == "setup_s":
                verdict = "median only"
            elif spread < bound / 3:
                verdict = "steady"
            else:
                verdict = "TOO WIDE" if spread > bound else "wide"
                steady = False
            print(f"{name:<22} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound:>6.2f}  {verdict}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(everything, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
