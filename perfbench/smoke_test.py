#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

Usage (from the root of a checkout):  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs the benchmark at a tiny input
size, untraced and traced, and checks the result line: exactly the keys
correct/attempted/failed/metrics, a correct run, and every end-to-end
(untraced) or per-layer (traced) metric present with its unit and a finite
value. It then checks that a deliberately corrupted output fails the run,
and that a directory holding only BENCHMARK.json and the benchmark's own
files fails without printing a result. Exits nonzero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZE = "0.05"


def run(workload, trace, extra=(), cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", SIZE] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(w, trace)
            check(p.returncode == 0, "%s trace=%d exit %d: %s" %
                  (w, trace, p.returncode, p.stderr[-1500:]))
            res = result_of(p)
            check(res is not None, "%s trace=%d printed no result" %
                  (w, trace))
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], "%s result keys" % w)
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, "%s trace=%d not correct" %
                  (w, trace))
            want = {m["name"]: m["unit"] for m in listed}
            check(set(res["metrics"]) == set(want),
                  "%s trace=%d metric names differ: %s" %
                  (w, trace, sorted(set(res["metrics"]) ^ set(want))))
            for name, m in res["metrics"].items():
                check(m["unit"] == want[name] and
                      isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]),
                      "%s trace=%d metric %s: %r" % (w, trace, name, m))
            print("ok %s trace=%d (%d metrics, %d conversions checked)" %
                  (w, trace, len(want), res["attempted"]), flush=True)

    p = run(spec["workloads"][0]["name"], 0, ["--corrupt"])
    res = result_of(p)
    check(p.returncode != 0 and (res is None or not res["correct"]),
          "a corrupted output did not fail the run")
    print("ok corrupted output fails the run")

    # Without the library's sources beside it, the benchmark must fail
    # without printing a result.
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=build)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k != "CARGO_TARGET_DIR"}
        p = run(spec["workloads"][0]["name"], 0, cwd=bare, env=env)
        check(p.returncode != 0 and result_of(p) is None,
              "a checkout without sources did not fail cleanly")
        print("ok bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
