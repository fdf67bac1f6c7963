#!/usr/bin/env python3
"""Compares two sets of librisk_e2e results: parent against change.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by librisk_e2e (--out), or
directories searched recursively for them. Only untraced, non-smoke results
count. Runs pair up in time order per workload: the i-th parent run with the
i-th change run, so alternate the two sides when taking them. At least 10
pairs per workload are required.

For every workload and end-to-end metric in BENCHMARK.json it prints both
medians and quartiles, the change's win fraction over the pairs, and a
verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's quartile spread
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the metric's bound
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

Any run with failed operations or a wrong digest is reported as FAILED.
Exit status: 0 clean, 1 a regression or failure, 2 too few pairs.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path):
    """Untraced, non-smoke result dicts under `path`, grouped by workload."""
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in names if n.endswith(".json")]
    else:
        files.append(path)
    by_workload = {}
    for name in files:
        with open(name) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(doc, dict) or "workload" not in doc or "provenance" not in doc:
            continue
        if doc.get("trace") != 0 or doc.get("smoke"):
            continue
        doc["_file"] = name
        by_workload.setdefault(doc["workload"], []).append(doc)
    for runs in by_workload.values():
        runs.sort(key=lambda d: (d["provenance"].get("date", ""), d["_file"]))
    return by_workload


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    p_iqr = p_q[2] - p_q[0]
    worse_by = (c_med - p_med) / p_med if direction == "lower" else (p_med - c_med) / p_med
    if wins >= 0.9 * len(pairs) and better(c_med, p_med, direction) and abs(c_med - p_med) > p_iqr:
        return "improved", wins
    if p_iqr / abs(p_med) > bound:
        all_better = all(better(c, p, direction) for c in change for p in parent)
        if not all_better:
            return "unresolved", wins
    if worse_by > bound:
        return "regressed", wins
    return "unchanged", wins


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_results(args.parent), load_results(args.change)

    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = [r for r in runs if not r.get("correct") or r.get("failed", 0) > 0]
            failed = sum(r.get("failed", 0) for r in runs)
            attempted = sum(r.get("attempted", 0) for r in runs)
            pct = 100.0 * failed / attempted if attempted else 0.0
            line = f"   {side} failed_pct {pct:.6g} ({failed}/{attempted})"
            if bad:
                line += f"  FAILED in {len(bad)} run(s): " + ", ".join(r["_file"] for r in bad)
                status = max(status, 1)
            print(line)
        if n < MIN_PAIRS:
            print(f"   need at least {MIN_PAIRS} pairs, have {n}")
            status = 2
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        print(f"   {'metric':16s} {'parent median [q1, q3]':36s} {'change median [q1, q3]':36s}"
              f" {'wins':>6s}  verdict")
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if len(p) < MIN_PAIRS or len(c) < MIN_PAIRS:
                print(f"   {name:16s} missing in some runs")
                status = max(status, 1)
                continue
            v, wins = verdict(p, c, m["better"], m["bound"])
            if v == "regressed":
                status = max(status, 1)
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            ps = f"{fmt(statistics.median(p))} [{fmt(pq[0])}, {fmt(pq[2])}]"
            cs = f"{fmt(statistics.median(c))} [{fmt(cq[0])}, {fmt(cq[2])}]"
            print(f"   {name:16s} {ps:36s} {cs:36s} {wins:>2d}/{len(p):<3d}  {v}"
                  f" ({m['unit']}, {m['better']} is better, bound {m['bound']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
