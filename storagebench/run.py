#!/usr/bin/env python3
"""Builds the storage benchmark from source and runs one workload.

    python3 storagebench/run.py --workload io_mirror --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The benchmark binary is configured and
built in Release mode under $CARGO_TARGET_DIR (default .bench_build) on the
first run and rebuilt incrementally afterwards; build output goes to stderr so
the last line on stdout is the binary's JSON result.  Traced runs write
their spans to <build dir>/storagebench/spans/<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "storagebench")
WORKLOADS = ("io_mirror", "lookup_churn", "reconfig")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "storagebench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "storagebench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("storagebench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("storagebench: build failed", file=sys.stderr)
            return None
    return os.path.join(out_dir, "storagebench")


def main():
    args = parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("storagebench: the library sources (src/) are missing; run "
              "from a full checkout", file=sys.stderr)
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    spans_dir = os.path.join(out_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(spans_dir, args.workload + ".csv")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("storagebench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
