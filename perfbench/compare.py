"""Compare two result sets, or report the spread of one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

A result set is the JSONL file that run.py --results (or collect.py)
appends to. For every workload and end-to-end metric the comparison prints
each side's median and quartiles and a verdict against the bound in
BENCHMARK.json:

  improved    the change wins at least 9 of 10 runs paired by seed, and
              the medians differ by more than the parent's quartile spread
  worse       the change's median is worse by more than the bound
  unresolved  a side's quartile spread is wider than the bound, unless
              every run of the change reads better than every parent run
  unchanged   otherwise

Per-layer metrics of traced runs are listed with their medians, without a
verdict. Artifact digests are compared for runs of the same workload and seed.
Exits 1 if any verdict is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path):
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                fp = record["fingerprint"]
                runs[(fp["workload"], fp["trace"])].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def seeded_values(records, metric):
    """[(seed, value)] in file order, for the runs that report the metric."""
    return [(r["fingerprint"]["seed"], r["result"]["metrics"][metric]["value"])
            for r in records if metric in r["result"]["metrics"]]


def pair_up(parent, change):
    """Pairs of runs by seed when both sides ran the same distinct seeds,
    else by position."""
    p, c = dict(parent), dict(change)
    if len(p) == len(parent) and len(c) == len(change) and set(p) == set(c):
        return [(p[s], c[s]) for s in sorted(p)]
    return [(pv, cv) for (_, pv), (_, cv) in zip(parent, change)]


def verdict(parent, change, bound, lower_is_better, pairs):
    """parent, change: lists of values; pairs: list of (parent, change)."""
    sign = 1.0 if lower_is_better else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_by = sign * (cmed - pmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and -sign * (cmed - pmed) > (pq3 - pq1):
        return "improved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def spread_report(runs, spec) -> None:
    print(f"{'workload':<18} {'metric':<22} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}  status")
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            continue
        for m in spec["end_to_end"]:
            values = [v for _, v in seeded_values(records, m["name"])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            status = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] == "setup_s":
                status += " (not gated)"
            print(f"{workload:<18} {m['name']:<22} {len(values):>3} {med:>12.6g} {q1:>12.6g}"
                  f" {q3:>12.6g} {spread:>8.2%} {m['bound']:>6.2f}  {status}")
        failed = sum(r["result"]["failed"] for r in records)
        correct = all(r["result"]["correct"] for r in records)
        print(f"{workload:<18} correct in all {len(records)} runs: {correct}, failed ops {failed}")


def compare(parent_runs, change_runs, spec) -> int:
    worst = 0
    print(f"{'workload':<18} {'metric':<22} {'parent median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            p = seeded_values(parent_runs[key], m["name"])
            c = seeded_values(change_runs[key], m["name"])
            if not p or not c:
                continue
            pv, cv = [v for _, v in p], [v for _, v in c]
            pairs = pair_up(p, c)
            pq = quartiles(pv)
            cq = quartiles(cv)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            if trace:
                result = "-"
            else:
                result = verdict(pv, cv, m["bound"], m["better"] == "lower", pairs)
                worst = max(worst, result == "worse")
            print(f"{workload:<18} {m['name']:<22} "
                  f"{pq[1]:>12.6g} [{pq[0]:>10.6g}, {pq[2]:>10.6g}] "
                  f"{cq[1]:>12.6g} [{cq[0]:>10.6g}, {cq[2]:>10.6g}] "
                  f"{delta:>+8.2%} {m.get('bound', float('nan')):>6.2f}  {result}")
        artifacts = []
        for side in (parent_runs[key], change_runs[key]):
            artifacts.append({r["fingerprint"]["seed"]: r["fingerprint"]["artifact_sha256"]
                              for r in side})
        common = sorted(set(artifacts[0]) & set(artifacts[1]))
        same = sum(artifacts[0][s] == artifacts[1][s] for s in common)
        if common and not trace:
            print(f"{workload:<18} artifacts identical for {same} of {len(common)} common seeds")
    return worst


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    if len(argv) == 1:
        spread_report(load(argv[0]), spec)
        return 0
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
