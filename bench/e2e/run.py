#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload paper-128 --seed 1 --seconds 10 --trace 0

Run from anywhere: the build goes to <repo>/.bench_build/e2e, results to
its results/ directory. The build step's output goes to stderr, so the last
line of standard output is the benchmark's JSON result. Exits non-zero,
printing no result, when the build fails (for example when ../../src is
missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds incrementally; False on failure."""
    generator = []
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        generator = ["-G", "Ninja"]
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD_DIR, "librisk_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(BUILD_DIR, "results")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
