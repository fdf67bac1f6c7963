#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark: parent against change.

    python3 scripts/ab_e2e.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --out OUT [--workload W ...] [--seeds 1-10] [--seconds 10]

Builds bench/e2e in both checkouts first, in Release into
<checkout>/.bench_build/e2e as bench/e2e/run.py does, so that no run
overlaps a build. Then, for every seed and workload, runs the two
librisk_e2e binaries with --trace 0 and --out OUT/parent or OUT/change,
switching which side runs first on every seed. Ends by running the change's
bench/e2e/compare.py on the two result directories and exits with its
status (0 clean, 1 a regression or failure, 2 too few pairs).

Workloads default to those the change's BENCHMARK.json declares. --seeds
takes a range (1-10) or a comma-separated list (1,2,5). Each run's summary
goes to stderr as it finishes. Standard library only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170  # bench/e2e/run.py's per-run limit
SIDES = ("parent", "change")


def parse_seeds(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def build_dir(checkout):
    return os.path.join(checkout, ".bench_build", "e2e")


def build(checkout):
    """Configures and builds one checkout's bench/e2e; False on failure."""
    out = build_dir(checkout)
    generator = []
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        generator = ["-G", "Ninja"]
    steps = [["cmake", "-S", os.path.join(checkout, "bench", "e2e"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", out, "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_one(checkout, workload, seed, seconds, out):
    """Runs one untraced repetition; returns (ok, summary line)."""
    command = [os.path.join(build_dir(checkout), "librisk_e2e"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", "--out", out]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"no result within {RUN_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return False, f"exit {done.returncode}, no JSON result"
    rate = result.get("metrics", {}).get("jobs_per_s", {}).get("value")
    summary = (f"correct={result.get('correct')} failed={result.get('failed')}"
               f" jobs_per_s={rate}")
    return done.returncode == 0, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--out", required=True, help="results root (new or empty)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    workloads = args.workload
    if not workloads:
        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    seeds = parse_seeds(args.seeds)
    outs = {side: os.path.join(os.path.abspath(args.out), side) for side in SIDES}
    for out in outs.values():
        # compare.py pairs every result it finds, so an earlier set would mix in.
        if os.path.isdir(out) and os.listdir(out):
            print(f"ab_e2e.py: {out} is not empty", file=sys.stderr)
            return 2
        os.makedirs(out, exist_ok=True)

    for side in SIDES:
        if not build(checkouts[side]):
            print(f"ab_e2e.py: building the {side} failed", file=sys.stderr)
            return 1

    failures = 0
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                ok, summary = run_one(checkouts[side], workload, seed,
                                      args.seconds, outs[side])
                failures += 0 if ok else 1
                print(f"{workload} seed {seed} {side}: {summary}", file=sys.stderr)
    if failures:
        print(f"ab_e2e.py: {failures} run(s) failed", file=sys.stderr)

    compare = os.path.join(checkouts["change"], "bench", "e2e", "compare.py")
    return subprocess.run([sys.executable, compare, outs["parent"], outs["change"],
                           "--benchmark",
                           os.path.join(checkouts["change"], "BENCHMARK.json")]).returncode


if __name__ == "__main__":
    sys.exit(main())
