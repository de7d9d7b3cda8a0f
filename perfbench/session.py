"""One workload run: seeded inputs, timed rounds, and the correctness gate.

A round is one user session on the workload's corpora: parse them, train
for a fixed number of epochs, evaluate on held-out data, save and load the
checkpoint, and run the gradient check. Every round checks its outputs;
each failed operation or check is counted and none is skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from dpmn import checkpoint, data, gradcheck, trainer

from calibrate import Clock
from tracing import TRAIN, Tracer
from workloads import GRADCHECK_SEED, Workload

# Tolerances of the gradient check, held here so that a change to the
# library's own constants cannot loosen the gate.
OP_TOLERANCE = 1e-6
NETWORK_TOLERANCE = 1e-4
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
MIN_TIMED_ROUNDS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


class GateError(Exception):
    """An output of the program failed the correctness gate."""


class Ops:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, fn, *args):
        """Run one operation; a failure is logged and counted, and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation must not end the run unreported
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            print(f"FAILED operation {name}", file=sys.stderr)
            return None

    def missed(self, name: str, reason: str) -> None:
        """An operation that could not run because one it needs failed."""
        self.attempted += 1
        self.failed += 1
        print(f"FAILED operation {name}: {reason}", file=sys.stderr)


# ---- the correctness gate ---------------------------------------------------

def check_losses(step_losses) -> None:
    for step, parts in enumerate(step_losses, start=1):
        if not all(math.isfinite(v) for v in parts):
            raise GateError(f"non-finite loss parts {parts} at step {step}")


def digest(blob: bytes) -> str:
    # Not CRC32: a checkpoint ends in the CRC32 of its body, so the CRC32 of
    # the whole file is the same constant for every checkpoint.
    return hashlib.sha256(blob).hexdigest()[:16]


def check_same_bytes(what: str, got: bytes, want: bytes) -> None:
    if got != want:
        raise GateError(f"{what} differs from the first round's: sha256 "
                        f"{digest(got)} != {digest(want)}")


def check_roundtrip(header: str, arrays: dict, blob: bytes) -> None:
    """parse_checkpoint(checkpoint_bytes(x)) must equal x exactly."""
    got_header, got = checkpoint.parse_checkpoint(blob)
    if got_header != header:
        raise GateError("checkpoint header does not round-trip")
    if list(got) != list(arrays):
        raise GateError("checkpoint parameter names or order do not round-trip")
    for name, want in arrays.items():
        have = got[name]
        if (have.dtype != want.dtype or have.shape != want.shape
                or have.tobytes() != want.tobytes()):
            raise GateError(f"checkpoint values of {name!r} do not round-trip")


def check_same_eval(loaded, in_memory) -> None:
    if loaded.f1 != in_memory.f1 or any(
            not np.array_equal(loaded.confusion[t], in_memory.confusion[t])
            for t in in_memory.confusion):
        raise GateError(f"loaded model scores {loaded.f1}, in-memory model {in_memory.f1}")


def check_gradcheck(report) -> None:
    worst_op = max(report.op_errors.values())
    worst_net = max(report.network_errors.values())
    if not (report.passed and worst_op < OP_TOLERANCE and worst_net < NETWORK_TOLERANCE):
        raise GateError(f"gradient check failed: op {worst_op:.3e} (< {OP_TOLERANCE}), "
                        f"network {worst_net:.3e} (< {NETWORK_TOLERANCE})")


# ---- the run ----------------------------------------------------------------

class Samples:
    """Per metric, the samples as measured and normalised by the Clock."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.norm: dict[str, list[float]] = defaultdict(list)

    def duration(self, name: str, seconds: float, factor: float, scale: float = 1.0) -> None:
        self.raw[name].append(scale * seconds)
        self.norm[name].append(scale * seconds / factor)

    def rate(self, name: str, count: int, seconds: float, factor: float) -> None:
        self.raw[name].append(count / seconds)
        self.norm[name].append(count * factor / seconds)


class Session:
    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "run")
        self.cfg = workload.config(seed, self.out_dir)
        self.paths = {k: os.path.join(workdir, f"{k}.tsv") for k in ("train", "dev", "test")}
        for name, examples in workload.corpora(seed).items():
            data.write_tsv(self.paths[name], examples)
        self.ops = Ops()
        self.clock = Clock()
        self.reference: dict[str, bytes] = {}
        self.widths: dict[int, int] = {}
        self.ckpt_size = 0

    # -- set-up time, measured in fresh processes -----------------------------

    def measure_setup(self, samples: Samples) -> None:
        for _ in range(SETUP_PROBES):
            timed = self.ops.run("setup", self.clock.measure, self._setup_probe)
            if timed is not None:
                elapsed, _, factor = timed
                samples.duration("setup_s", elapsed, factor)

    def _setup_probe(self) -> float:
        """Seconds from spawning the probe to its "ready" line."""
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.w.name,
               str(self.seed), *(self.paths[k] for k in ("train", "dev", "test"))]
        started = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - started
                proc.stdout.read()
                code = proc.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise GateError(f"set-up probe exited {code} after {line.strip()!r}")
        return elapsed

    # -- rounds -----------------------------------------------------------------

    def run_round(self, samples: Samples, tracer: Tracer | None = None) -> None:
        ops = self.ops
        span = tracer.span if tracer is not None else _no_span

        corpora = ops.run("parse", lambda: {k: data.parse_tsv(p) for k, p in self.paths.items()})
        result = None
        if corpora is None:
            for name in ("train", *_AFTER_TRAIN):
                ops.missed(name, "corpora failed to parse")
        else:
            with span(TRAIN):
                result = ops.run("train", self._train, corpora, samples)
            if result is None:
                for name in _AFTER_TRAIN:
                    ops.missed(name, "training failed")
            else:
                with span("bench.after_train"):
                    self._after_train(result, corpora["test"], samples)
        with span("bench.gradcheck"):
            ops.run("gradcheck", self._gradcheck, samples)
        if corpora is not None and result is not None:
            # A second checkpoint group at another point of the round: the
            # save and load times drift with the machine's state, and more
            # spread-out groups give a steadier median.
            with span("bench.checkpoint"):
                if ops.run("ckpt_save", self._save, result, samples):
                    ops.run("ckpt_load", self._load, samples)
                else:
                    ops.missed("ckpt_load", "checkpoint save failed")

    def _train(self, corpora, samples: Samples):
        result, elapsed, factor = self.clock.measure(
            trainer.train, self.cfg, corpora["train"], corpora["dev"])
        check_losses(result.runlog.step_losses)
        for name in (trainer.RUNLOG_NAME, trainer.CHECKPOINT_NAME):
            with open(os.path.join(self.out_dir, name), "rb") as f:
                artifact = f.read()
            self.reference.setdefault(name, artifact)
            check_same_bytes(name, artifact, self.reference[name])
        samples.duration("train_s", elapsed, factor)
        samples.rate("train_examples_per_s", self.w.n_train * self.w.epochs, elapsed, factor)
        return result

    def _after_train(self, result, test_examples, samples: Samples) -> None:
        ops, cfg = self.ops, self.cfg
        cap = cfg.max_seq_len - result.model.bank.prompt_len
        batches = data.make_batches(test_examples, result.vocab, cfg.batch_size, cap)

        def evaluate(model):
            report, elapsed, factor = self.clock.measure(trainer.evaluate_model, model, batches)
            samples.rate("eval_examples_per_s", len(test_examples), elapsed, factor)
            return report

        in_memory = ops.run("eval", evaluate, result.model)
        saved = ops.run("ckpt_save", self._save, result, samples)
        loaded = ops.run("ckpt_load", self._load, samples) if saved else None
        if loaded is None or in_memory is None:
            ops.missed("eval_loaded", "evaluation or checkpoint load failed")
        else:
            ops.run("eval_loaded", lambda: check_same_eval(evaluate(loaded), in_memory))

    def _repeat(self, fn):
        """fn run ckpt_reps times under one Clock bracket: (last result,
        seconds of each call, slowdown factor)."""
        def repeated():
            times = []
            for _ in range(self.w.ckpt_reps):
                started = perf_counter()
                out = fn()
                times.append(perf_counter() - started)
            return out, times
        (out, times), _, factor = self.clock.measure(repeated)
        return out, times, factor

    def _save(self, result, samples: Samples) -> str:
        path = os.path.join(self.workdir, "saved.ckpt")
        arrays = result.model.state_arrays()

        def save():
            blob = checkpoint.checkpoint_bytes(result.header_text, arrays)
            with open(path, "wb") as f:
                f.write(blob)
            return blob

        blob, times, factor = self._repeat(save)
        for t in times:
            samples.duration("ckpt_save_ms", t, factor, scale=1e3)
        check_same_bytes("saved checkpoint", blob, self.reference[trainer.CHECKPOINT_NAME])
        check_roundtrip(result.header_text, arrays, blob)
        self.ckpt_size = len(blob)
        return path

    def _load(self, samples: Samples):
        path = os.path.join(self.out_dir, trainer.CHECKPOINT_NAME)
        (loaded, _, _), times, factor = self._repeat(lambda: trainer.load_model(path))
        for t in times:
            samples.duration("ckpt_load_ms", t, factor, scale=1e3)
        return loaded

    def _gradcheck(self, samples: Samples) -> None:
        report, elapsed, factor = self.clock.measure(
            gradcheck.run_gradcheck, self.w.gradcheck_probes, GRADCHECK_SEED)
        samples.duration("gradcheck_s", elapsed, factor)
        check_gradcheck(report)

    @contextlib.contextmanager
    def recording_widths(self):
        """Record the widths T of the training batches (the shuffled ones)."""
        original = trainer.make_batches

        def recorder(*args, **kwargs):
            batches = original(*args, **kwargs)
            if kwargs.get("shuffle_seed") is not None:
                for b in batches:
                    width = b.token_ids.shape[1]
                    self.widths[width] = self.widths.get(width, 0) + 1
            return batches

        trainer.make_batches = recorder
        try:
            yield
        finally:
            trainer.make_batches = original

    def artifact_digests(self) -> dict[str, str]:
        return {k: digest(v) for k, v in self.reference.items()}


# The operations of a round that need a trained model.
_AFTER_TRAIN = ("eval", "ckpt_save", "ckpt_load", "eval_loaded", "ckpt_save", "ckpt_load")


@contextlib.contextmanager
def _no_span(name):
    yield

