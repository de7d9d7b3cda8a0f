"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at minimal length, untraced and traced, and checks
   the result line: its keys, correct, no failed operation, and every metric
   of BENCHMARK.json present with its unit and a finite, non-zero value.
2. Feeds the correctness gate broken outputs, one check at a time and
   through a real round with a sabotaged library, and checks that each is
   caught and counted.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when every check holds, else 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import blas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_TIMEOUT_S = 300
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run_benchmark(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_result_lines(spec) -> None:
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace={trace}"
            proc = run_benchmark(ROOT, w["name"], trace)
            expect(proc.returncode == 0, f"{label}: exit code 0")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{label}: last line is JSON")
                sys.stderr.write(proc.stderr[-3000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            expect(set(got) == set(want), f"{label}: exactly the {len(want)} {kind} metrics")
            bad = [n for n, m in got.items()
                   if m.get("unit") != want.get(n) or not isinstance(m.get("value"), (int, float))
                   or not math.isfinite(m["value"]) or m["value"] == 0]
            expect(not bad, f"{label}: units match, values finite and non-zero {bad}")


def check_gate() -> None:
    blas.pin()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from dpmn import checkpoint, trainer
    from dpmn.errors import IntegrityError
    from dpmn.gradcheck import GradcheckReport

    import session
    from session import GateError, Ops, Samples, Session
    from workloads import WORKLOADS

    def caught(what, fn, *args, errors=(GateError,)):
        try:
            fn(*args)
        except errors:
            expect(True, f"gate catches {what}")
        else:
            expect(False, f"gate catches {what}")

    caught("a non-finite loss part", session.check_losses, [(1.0, 0.5, 0.2, 0.3), (math.nan, 1, 1, 1)])
    caught("changed artifact bytes", session.check_same_bytes, "model.ckpt", b"ab", b"ac")
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    blob = checkpoint.checkpoint_bytes("header\n", arrays)
    changed = {"w": np.nextafter(arrays["w"], np.inf)}  # one ulp off
    caught("a checkpoint that does not round-trip", session.check_roundtrip, "header\n", changed, blob)
    corrupt = blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:]
    caught("a corrupted checkpoint", session.check_roundtrip, "header\n", arrays, corrupt,
           errors=(IntegrityError,))

    class Report:
        def __init__(self, f1):
            self.f1, self.confusion = f1, {"a": np.eye(2)}
    caught("a loaded model that scores differently", session.check_same_eval,
           Report({"a": 0.5}), Report({"a": 0.75}))
    caught("a failed network gradient check", session.check_gradcheck,
           GradcheckReport({"add": 1e-9}, {"head_a": 2e-4}, probes=1))
    caught("a per-op error above the gate's own tolerance", session.check_gradcheck,
           GradcheckReport({"add": 2e-6}, {"head_a": 1e-6}, probes=1))

    ops = Ops()
    with contextlib.redirect_stderr(io.StringIO()):
        ops.run("boom", lambda: 1 / 0)
    expect(ops.attempted == 1 and ops.failed == 1, "a raising operation is counted as failed")

    # A real round, then the same round against sabotaged library code.
    tiny = replace(WORKLOADS["bilstm-t30"], epochs=1, n_train=8, n_dev=4, n_test=4,
                   gradcheck_probes=2, ckpt_reps=1)
    workdir = WORK / f"selftest-gate-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = Session(tiny, 3, str(workdir))
        s.run_round(Samples())
        expect(s.ops.failed == 0, f"a clean round passes ({s.ops.attempted} operations)")
        sabotage = [
            ("a checkpoint writer that flips a value byte", checkpoint, "checkpoint_bytes",
             lambda real: lambda h, a: (lambda b: b[:-20] + bytes([b[-20] ^ 1]) + b[-19:])(real(h, a))),
            ("training that is not reproducible", trainer, "train",
             lambda real: lambda cfg, tr, dv, **kw: real(replace(cfg, rng_seed=cfg.rng_seed + 1),
                                                         tr, dv, **kw)),
        ]
        for what, owner, attr, make in sabotage:
            real = getattr(owner, attr)
            setattr(owner, attr, make(real))
            before = s.ops.failed
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    s.run_round(Samples())
            finally:
                setattr(owner, attr, real)
            expect(s.ops.failed > before, f"a round catches {what}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_program(spec) -> None:
    bare = WORK / f"selftest-bare-p{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark(bare, spec["workloads"][0]["name"], 0)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not any(line.startswith("{") for line in printed),
               f"without the program: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    check_gate()
    check_fails_without_program(spec)
    check_result_lines(spec)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
