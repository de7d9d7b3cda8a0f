"""Run the benchmark over several workloads and seeds into one result set.

    python3 perfbench/collect.py --out results.jsonl --seeds 1-10
    python3 perfbench/collect.py --out traced.jsonl --seeds 1-3 --trace 1

Runs one run.py process at a time, seed by seed through every workload, and
appends each result to --out; then prints the spread of each end-to-end
metric (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads(compare.BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    status = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                status = 1
                print(proc.stderr[-2000:], file=sys.stderr)
    compare.spread_report(compare.load(args.out), spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
