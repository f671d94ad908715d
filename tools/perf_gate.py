#!/usr/bin/env python3
"""Performance gate: runs the repository benchmark on a base and a head
checkout of convgen and fails when the head regresses.

Usage:

    python3 tools/perf_gate.py --base <checkout> --head <checkout>
    python3 tools/perf_gate.py --self-test

Each checkout builds and runs its own perfbench/run.py. For every workload
in the head's BENCHMARK.json the gate runs PAIRS pairs at run_seconds, one
seed per pair, alternating which side goes first. For every end-to-end
metric it compares the head's median against the base's median:

- worse by more than the metric's bound: a regression;
- base spread (interquartile range / median) above the bound: unresolved,
  reported but not failed, unless every head run beats every base run.

It prints how many metric x workload pairs it compared, and exits 1 on any
regression, on any failed or incorrect run on either side, and when it
compared nothing. Both sides run on the same host, so no recorded baseline
is involved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; returns its result line, or None."""
    # A shared CARGO_TARGET_DIR would let one side run the other's build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def good(result):
    return bool(result and result["correct"] and result["failed"] == 0)


def values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if good(r) and name in r["metrics"]]


def compare(spec, runs):
    """Judges runs = {workload: {"base": [result|None], "head": [...]}}
    against spec's end-to-end bounds; prints every verdict and returns the
    exit code."""
    problems, compared = [], {}
    for workload, sides in runs.items():
        for side in ("base", "head"):
            bad = sum(not good(r) for r in sides[side])
            if bad:
                problems.append("%s: %d failed or incorrect %s run(s)" %
                                (workload, bad, side))
        compared[workload] = 0
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base, head = (values(sides[side], name)
                          for side in ("base", "head"))
            if len(base) < 2 or not head:
                continue
            q1, bmed, q3 = statistics.quantiles(base, n=4)
            hmed = statistics.median(head)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (hmed - bmed) / bmed
            spread = (q3 - q1) / bmed
            if spread <= bound:
                verdict = "REGRESSION" if worse > bound else "ok"
            elif all(sign * (h - b) < 0 for h in head for b in base):
                verdict = "better in every run"
            else:
                verdict = "unresolved"
            compared[workload] += verdict != "unresolved"
            print("%-8s %-16s base %10.4g  head %10.4g  worse %+7.1f%%  "
                  "spread %5.1f%%  bound %3.0f%%  %s" %
                  (workload, name, bmed, hmed, 100 * worse, 100 * spread,
                   100 * bound, verdict))
            if verdict == "REGRESSION":
                problems.append("%s %s: head median %.4g is %.1f%% worse "
                                "than base %.4g (bound %.0f%%)" %
                                (workload, name, hmed, 100 * worse, bmed,
                                 100 * bound))
    total = sum(compared.values())
    print("compared %d metric x workload pairs (%s)" %
          (total, ", ".join("%s %d" % kv for kv in compared.items())))
    if total == 0:
        problems.append("compared nothing")
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def result(i, slow=1.0, correct=True):
        metrics = {m["name"]: {"unit": m["unit"],
                               "value": 10.0 * (1 + 0.01 * (i % 3))}
                   for m in spec["end_to_end"]}
        metrics["conv_ms"]["value"] *= slow
        return {"correct": correct, "failed": 0 if correct else 1,
                "attempted": 100, "metrics": metrics}

    clean = [result(i) for i in range(PAIRS)]
    no_metrics = [dict(r, metrics={}) for r in clean]
    cases = [
        ("head 30% slower on conv_ms", clean,
         [result(i, slow=1.3) for i in range(PAIRS)], 1),
        ("zero comparable runs", no_metrics, no_metrics, 1),
        ("a failed run", clean, clean[:-1] + [result(0, correct=False)], 1),
        ("a clean pair", clean, clean, 0),
    ]
    for what, base, head, want in cases:
        print("-- self-test: %s" % what)
        got = compare(spec, {"table3": {"base": base, "head": head}})
        if got != want:
            print("self-test FAILED: %s exited %d, want %d" % (what, got, want))
            return 1
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base")
    ap.add_argument("--head")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.head):
        ap.error("--base and --head are required")
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    runs = {}
    for w in (x["name"] for x in spec["workloads"]):
        runs[w] = {"base": [], "head": []}
        for i in range(PAIRS):
            order = [("base", base), ("head", head)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                res = run_once(checkout, w, i + 1, seconds)
                runs[w][side].append(res)
                print("%s pair %d %s: %s" % (
                    w, i + 1, side, " ".join(
                        "%s=%.4g" % (n, v["value"])
                        for n, v in res["metrics"].items())
                    if good(res) else "FAILED"), flush=True)
    return compare(spec, runs)


if __name__ == "__main__":
    sys.exit(main())
