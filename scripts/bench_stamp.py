#!/usr/bin/env python3
"""Merge google-benchmark JSON runs into one BENCH_*.json with provenance.

Usage:
    bench_stamp.py --build build --out BENCH_kernel.json --note TEXT \
                   micro_kernel=kernel.json micro_eventqueue=eventqueue.json
    bench_stamp.py --build build --stamp BENCH_gateway.json

Each NAME=FILE argument is a `--benchmark_format=json` run; its benchmark
rows land under the key NAME (the layout scripts/bench_diff.py reads), and
the first run's google-benchmark context is kept as "context". --stamp
instead adds the provenance block to an existing JSON object in place, for
BENCH files a bench binary writes in its own layout (throughput_gateway);
every other key is kept, and --note, if given, replaces "note". The
"provenance" block records what the numbers were measured on: the git SHA
(and whether the tree had uncommitted changes), the build type, compiler
and flags from --build's CMakeCache.txt, nproc, the CPUs this process may
use, and the load average. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def command_output(args: list[str]) -> str:
    try:
        return subprocess.run(args, capture_output=True, text=True,
                              check=False).stdout.strip()
    except OSError:
        return ""


def cmake_cache(build_dir: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def provenance(build_dir: str) -> dict:
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if f)
    version = command_output([compiler, "--version"]).splitlines()
    dirty = command_output(["git", "status", "--porcelain",
                            "--untracked-files=no"])
    return {
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "git_dirty": bool(dirty),
        "build_type": build_type,
        "compiler": f"{compiler} ({version[0]})" if version else compiler,
        "cxx_flags": flags,
        "nproc": os.cpu_count(),
        "usable_cpus": (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def stamp(path: str, note: str, build_dir: str) -> None:
    """Adds (or refreshes) the provenance block of an existing JSON object."""
    with open(path) as f:
        old = json.load(f)
    if not isinstance(old, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    doc: dict = {"note": note or old.get("note", "")}
    doc["provenance"] = provenance(build_dir)
    doc.update((k, v) for k, v in old.items() if k not in doc)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"stamped {path} at {doc['provenance']['git_sha'][:12]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="CMake build directory the binaries came from")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", help="BENCH_*.json to write from RUNS")
    target.add_argument("--stamp", metavar="FILE",
                        help="existing JSON object to stamp in place")
    parser.add_argument("--note", default="", help="free-text note")
    parser.add_argument("runs", nargs="*", metavar="NAME=FILE",
                        help="google-benchmark JSON run, stored under NAME")
    args = parser.parse_args()

    if args.stamp:
        if args.runs:
            parser.error("--stamp takes no NAME=FILE runs")
        stamp(args.stamp, args.note, args.build)
        return 0
    if not args.runs:
        parser.error("--out needs at least one NAME=FILE run")
    doc: dict = {"note": args.note, "provenance": provenance(args.build)}
    for run in args.runs:
        name, sep, path = run.partition("=")
        if not sep:
            parser.error(f"expected NAME=FILE, got '{run}'")
        with open(path) as f:
            result = json.load(f)
        doc.setdefault("context", result.get("context", {}))
        doc[name] = result.get("benchmarks", [])
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}: " + ", ".join(
        f"{k} ({len(v)} rows)" for k, v in doc.items() if isinstance(v, list)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
