"""The dpmn benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload bilstm-t30 --seed 1 --seconds 50 --trace 0

Run from the root of a source tree; dpmn is imported from its src/. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones (see BENCHMARK.json and perfbench/README.md). The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import blas
from compare import quartiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="append the result and fingerprint to this JSONL file")
    return p.parse_args(argv)


def import_program():
    """Import dpmn from this tree's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import dpmn
    except ImportError as e:
        raise SystemExit(f"error: cannot import dpmn from {SRC}: {e}") from None
    location = Path(dpmn.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"error: dpmn was imported from {location}, not from {SRC}")


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dpmn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run(args):
    import numpy as np

    from session import MIN_TIMED_ROUNDS, Samples, Session
    from tracing import Tracer
    from workloads import GRADCHECK_SEED, WORKLOADS

    spec_metrics = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(workload, args.seed, str(workdir))
        untraced, traced = Samples(), Samples()
        if not args.trace:
            session.measure_setup(untraced)
        with session.recording_widths():
            session.run_round(Samples())  # warm-up: checked, not timed
        tracer = Tracer() if args.trace else None
        layer_rounds = []
        rounds = 0
        started = perf_counter()
        while rounds < MIN_TIMED_ROUNDS or perf_counter() - started < args.seconds:
            rounds += 1
            if tracer is not None and rounds % 2 == 0:
                first = len(session.clock.factors)
                with tracer.installed(rounds):
                    session.run_round(traced, tracer)
                factor = statistics.mean(session.clock.factors[first:])
                layer_rounds.append(tracer.round_metrics(rounds, factor))
            else:
                session.run_round(untraced)
        measured_s = perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = session.ops
    correct = ops.failed == 0
    if tracer is None:
        samples = dict(untraced.norm)
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        samples["ok_ops_frac"] = [(ops.attempted - ops.failed) / ops.attempted]
    else:
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        samples = {name: [r[name] for r in layer_rounds] for name in layer_rounds[0]}
        samples["checkpoint.bytes"] = [session.ckpt_size]
        if traced.norm["train_s"] and untraced.norm["train_s"]:
            samples["trace.train_slowdown"] = [statistics.median(traced.norm["train_s"])
                                               / statistics.median(untraced.norm["train_s"])]

    metrics = {}
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        values = samples.get(name) or []
        if not values:
            correct = False
            print(f"no samples for metric {name}", file=sys.stderr)
            values = [0.0]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        raw = untraced.raw.get(name)
        as_measured = f" as measured {statistics.median(raw):.6g}" if raw and not args.trace else ""
        print(f"{name:<38} {med:>14.6g} {unit:<12} n={len(values):<4} "
              f"q1={q1:.6g} q3={q3:.6g}{as_measured}")

    fingerprint = {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.info(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "gradcheck_seed": GRADCHECK_SEED,
        "batch_widths": {str(k): v for k, v in sorted(session.widths.items())},
        "artifact_sha256": session.artifact_digests(),
        "seconds": args.seconds,
        "measured_s": measured_s,
        "timed_rounds": rounds,
        "slowdown_quartiles": quartiles(session.clock.factors),
        "trace": args.trace,
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    if args.results:
        with open(args.results, "a", encoding="utf-8") as f:
            f.write(json.dumps({"result": result, "fingerprint": fingerprint,
                                "samples": samples, "raw": untraced.raw}) + "\n")
    return result


def pin_cpu() -> None:
    """Keep this process and its children on one CPU: the reference kernel
    and the operations it brackets then run on the same core, and the run
    does not migrate between cores that other tenants load differently."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    blas.pin()
    pin_cpu()
    import_program()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
