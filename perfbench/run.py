#!/usr/bin/env python3
"""Builds the convgen benchmark from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table3|tensor3|serve --seed N \
        --seconds S --trace 0|1 [--size F] [--corrupt]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout. Every run gets a fresh state directory there (on-disk plan
cache, warm-start manifest, compiler scratch), removed when the run ends,
and keeps the planner's outcome store in memory, so no run inherits
compiled objects or planner history from another. The traced run (--trace 1) leaves its spans in
<build>/traces/. The last line of standard output is the result JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the benchmark itself is sized far below.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    bdir = os.path.join(out, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(bdir, "perfbench")


def cc_version(env):
    try:
        p = subprocess.run(["cc", "--version"], capture_output=True,
                           text=True, env=env, timeout=30)
        return (p.stdout.splitlines() or ["unknown"])[0]
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["table3", "tensor3", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", type=float, default=1.0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    start = time.monotonic()

    state = tempfile.mkdtemp(prefix="state-", dir=out)
    try:
        # A fixed, clean configuration: no inherited convgen knob may change
        # what is measured, and everything the library writes stays inside
        # this run's state directory.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("CONVGEN_")}
        os.makedirs(os.path.join(state, "tmp"))
        env.update({
            "OMP_NUM_THREADS": "1",
            "CONVGEN_CACHE_DIR": os.path.join(state, "cache"),
            "CONVGEN_MANIFEST": os.path.join(state, "manifest.txt"),
            # The planner's outcome store stays in memory: persisting it
            # rewrites a file on every eighth planned request, and that
            # filesystem latency swamped every other tail source.
            "CONVGEN_OUTCOMES": "",
            "TMPDIR": os.path.join(state, "tmp"),
        })
        print("provenance_cc %s" % cc_version(env), flush=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--state", state, "--size", repr(args.size)]
        if args.trace == "1":
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        if args.corrupt:
            cmd.append("--corrupt")
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT,
                                  timeout=max(10.0, left))
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: run exceeded its time limit\n")
            return 1
        return proc.returncode
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
