#!/usr/bin/env python3
"""Steadiness check: runs the benchmark k times on one commit, one seed per
run, and prints each end-to-end metric's median, quartiles and spread
(interquartile range / median) against the bound BENCHMARK.json fixes.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload serve [--runs 10] [--seed 1]
        [--seconds N]

Seeds are --seed, --seed+1, ... A spread at or under a third of the bound
is marked "ok"; setup_s is held only to its median (its spread is shown but
not judged). Exits nonzero if any run fails or any judged spread exceeds
its bound.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    bad = False
    for i in range(args.runs):
        seed = args.seed + i
        res = run_once(args.workload, seed, seconds)
        if res is None or not res["correct"]:
            print("run seed=%d failed" % seed)
            bad = True
            continue
        missing = [n for n in bounds if n not in res["metrics"]]
        if missing:
            print("run seed=%d lacks %s" % (seed, ", ".join(missing)))
            bad = True
        for name, m in res["metrics"].items():
            if name in values:
                values[name].append(m["value"])
        print("run seed=%d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, res["metrics"][n]["value"])
            for n in bounds if n in res["metrics"])), flush=True)

    print("\n%-24s %12s %12s %12s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = ""
        if name != "setup_s":
            verdict = "ok" if spread <= bound / 3 else (
                "within" if spread <= bound else "TOO NOISY")
            bad |= spread > bound
        print("%-24s %12.6g %12.6g %12.6g %8.4f %6.3g %s" %
              (name, q1, med, q3, spread, bound, verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
