#!/usr/bin/env python3
"""Builds the citl benchmark harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload turnloop --seed 1 --seconds 8 --trace 0

The harness (perfbench/src) is compiled together with the library sources
under src/ into .bench_build/perfbench, in Release mode. The first call in a
checkout pays the build; later calls only re-check it. The harness prints
its environment and result tables, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error so that line stays last on standard output.

`--self-test` builds and runs the harness's own unit tests instead.
All state (build tree, kernel cache, session journals, trace files, and
the compilers' temporary files) stays under .bench_build/perfbench.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"),
           CITL_KERNEL_CACHE_DIR=os.path.join(BUILD, "kernel-cache"))


def sh(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=ENV)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["turnloop", "chain", "served"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    try:
        binary = build("perfbench_tests" if args.self_test else "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(BUILD, "state")]
    try:
        return subprocess.run(cmd, env=ENV, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
