#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a checked-in baseline.

Usage:
    bench_diff.py --baseline BENCH_admission.json --fresh fresh.json \
                  [--threshold 25] [--metric real_time]
    bench_diff.py --exact --baseline tests/data/e2e_smoke_counters.json \
                  --fresh smoke_trace.txt [--record]

Matches benchmarks by name. A benchmark regresses when its fresh time
exceeds the baseline by more than --threshold percent; any regression makes
the script exit 1 with a per-benchmark report. Benchmarks present on only
one side are reported but never fail the run (renames and new benchmarks
are routine; deleting a baseline entry is a review decision, not a CI one).

Baselines are the repo's BENCH_*.json files. Those store either a plain
google-benchmark run or an aggregates-only run (repetitions with
*_mean/_median/_stddev rows); for aggregate baselines the _median row is
compared, since the median is the stable statistic across noisy CI hosts.

Exact mode (--exact) gates the deterministic work counters of the
end-to-end benchmark at 0% instead: --fresh is the standard output of
`librisk_e2e --smoke --trace 1`, whose last line per workload is a JSON
summary. Every counter matching EXACT_COUNTERS must equal the baseline's
value bit for bit; a counter or workload missing from the fresh run fails
too, while counters new to the fresh run are only reported. --record
writes the fresh counters to --baseline instead of comparing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# The counters bench/e2e derives from deterministic work: scan and kernel
# effort, events, peak live jobs and the gateway's certificate sheds.
EXACT_COUNTERS = re.compile(
    r"^(core\.scan\..*|cluster\..*|sim\.events_per_job|"
    r"core\.engine\.peak_live_jobs|core\.gate\.shed_pct)$")


def load_benchmarks(path: str, metric: str) -> dict[str, float]:
    """Benchmark name -> metric value, preferring _median aggregate rows."""
    with open(path) as f:
        doc = json.load(f)
    # The checked-in baselines keep benchmark arrays under varying top-level
    # keys ("benchmarks" for a raw google-benchmark dump; "micro_admission",
    # "micro_admission_endtoend", "results", ... for the curated merges), so
    # accept every top-level list whose entries look like benchmark rows.
    rows = []
    for value in doc.values():
        if isinstance(value, list):
            rows.extend(r for r in value
                        if isinstance(r, dict) and "name" in r)
    values: dict[str, float] = {}
    medians: dict[str, float] = {}
    for row in rows:
        name = row.get("name", "")
        if metric not in row:
            continue
        value = float(row[metric])
        if row.get("aggregate_name") == "median" or name.endswith("_median"):
            medians[name.removesuffix("_median")] = value
        elif "aggregate_name" not in row and not name.endswith(
            ("_mean", "_median", "_stddev", "_cv")
        ):
            values[name] = value
    # Median aggregates shadow raw rows of the same name: an aggregates-only
    # baseline compares against a plain fresh run (and vice versa).
    values.update(medians)
    return values


def load_smoke_counters(path: str) -> dict[str, dict[str, float]]:
    """Workload -> exact counters, from `librisk_e2e --smoke --trace 1` output.

    Each workload prints `# <workload> seed <n> digest ...` before its JSON
    summary line, which names no workload itself.
    """
    counters: dict[str, dict[str, float]] = {}
    workload = None
    with open(path) as f:
        for line in f:
            if line.startswith("# ") and " seed " in line:
                workload = line.split()[1]
            elif line.startswith("{") and workload is not None:
                summary = json.loads(line)
                if not summary.get("correct", False):
                    raise ValueError(f"{workload}: the smoke run was not correct")
                counters[workload] = {
                    name: float(metric["value"])
                    for name, metric in summary["metrics"].items()
                    if EXACT_COUNTERS.match(name)}
                workload = None
    return counters


def exact_main(args: argparse.Namespace) -> int:
    try:
        fresh = load_smoke_counters(args.fresh)
    except ValueError as e:
        print(f"error: {e}")
        return 2
    if not fresh:
        print(f"error: no workload summaries in {args.fresh}")
        return 2
    if args.record:
        doc = {"source": "librisk_e2e --smoke --trace 1 (seed 1)",
               "workloads": fresh}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {sum(map(len, fresh.values()))} counters of "
              f"{len(fresh)} workloads to {args.baseline}")
        return 0
    with open(args.baseline) as f:
        baseline = json.load(f)["workloads"]

    mismatches = []
    compared = 0
    for workload in sorted(baseline):
        if workload not in fresh:
            mismatches.append(f"{workload}: missing from the fresh run")
            continue
        for name, base in sorted(baseline[workload].items()):
            now = fresh[workload].get(name)
            if now is None:
                mismatches.append(f"{workload} {name}: missing from the fresh run")
                continue
            compared += 1
            if now != base:
                mismatches.append(f"{workload} {name}: {base!r} -> {now!r}")
        for name in sorted(set(fresh[workload]) - set(baseline[workload])):
            print(f"  fresh-only (not gated): {workload} {name}")
    if mismatches:
        print(f"{len(mismatches)} exact counters differ from {args.baseline}:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print(f"all {compared} exact counters of {len(baseline)} workloads "
          f"match {args.baseline}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="allowed regression in percent (default 25)")
    parser.add_argument("--metric", default="real_time",
                        help="benchmark field to compare (default real_time)")
    parser.add_argument("--exact", action="store_true",
                        help="gate bench/e2e smoke counters at 0%% "
                             "(--fresh is librisk_e2e --smoke --trace 1 output)")
    parser.add_argument("--record", action="store_true",
                        help="with --exact: write --fresh's counters to "
                             "--baseline")
    args = parser.parse_args()
    if args.exact:
        return exact_main(args)
    if args.record:
        parser.error("--record needs --exact")

    baseline = load_benchmarks(args.baseline, args.metric)
    fresh = load_benchmarks(args.fresh, args.metric)
    if not baseline:
        print(f"error: no '{args.metric}' benchmarks in {args.baseline}")
        return 2
    if not fresh:
        print(f"error: no '{args.metric}' benchmarks in {args.fresh}")
        return 2

    regressions = []
    compared = 0
    for name in sorted(baseline):
        if name not in fresh:
            print(f"  baseline-only (skipped): {name}")
            continue
        compared += 1
        base, now = baseline[name], fresh[name]
        delta_pct = 100.0 * (now - base) / base if base > 0 else 0.0
        flag = " REGRESSION" if delta_pct > args.threshold else ""
        print(f"  {name}: {base:.1f} -> {now:.1f} {args.metric} "
              f"({delta_pct:+.1f}%){flag}")
        if delta_pct > args.threshold:
            regressions.append((name, delta_pct))
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  fresh-only (skipped): {name}")

    if compared == 0:
        print("error: no benchmark names in common — wrong baseline file?")
        return 2
    if regressions:
        print(f"\n{len(regressions)} of {compared} benchmarks regressed "
              f"more than {args.threshold:.0f}%:")
        for name, delta_pct in regressions:
            print(f"  {name}: {delta_pct:+.1f}%")
        return 1
    print(f"\nall {compared} compared benchmarks within "
          f"{args.threshold:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
