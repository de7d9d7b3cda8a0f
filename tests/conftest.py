"""Shared test helpers: an independent finite-difference gradient oracle,
a parameter store for building model parts on their own, a scripted dev
metric, hand-made checkpoint blobs and records that do not fit their model."""

import struct
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from dpmn import trainer
from dpmn.checkpoint import checkpoint_bytes
from dpmn.tensor import ParameterStore

FD_STEP = 1e-5
# Coordinates whose gradient magnitude sits below this floor are judged by
# absolute error (the floor caps the denominator); everything else is a
# plain relative comparison.
REL_FLOOR = 1e-4


def numeric_gradient(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the scalar function f with respect to x.

    f takes no arguments and must read x by reference; x is perturbed in
    place one coordinate at a time and restored afterwards.
    """
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        kept = flat[i]
        flat[i] = kept + step
        up = f()
        flat[i] = kept - step
        down = f()
        flat[i] = kept
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor: float = REL_FLOOR) -> float:
    a, n = np.asarray(analytic, dtype=float), np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def make_store(seed: int = 0) -> ParameterStore:
    """An empty parameter store drawing weights from a generator seeded with `seed`."""
    return ParameterStore(np.random.Generator(np.random.PCG64(seed)))


def encoder_parameters(model) -> dict:
    """The encoder's parameters (embeddings and transformer layers) of a DpmnModel."""
    return {n: p for n, p in model.parameters().items() if n.startswith(("embedding.", "layer"))}


def head_parameters(model, task: str) -> dict:
    return {n: p for n, p in model.parameters().items() if n.startswith(f"head_{task}.")}


@contextmanager
def scripted_dev_metric(values):
    """Within the block, epoch i of train() monitors values[i - 1] as its
    task-A dev macro F1; tasks B and C keep their real scores."""
    real = trainer.evaluate_model
    script = iter(values)

    def evaluate(model, batches):
        report = real(model, batches)
        report.f1["a"] = float(next(script))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "evaluate_model", evaluate)
        yield


def reseal(body: bytes) -> bytes:
    """A checkpoint body followed by its CRC32, so parsing passes the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def with_a_repeated_record(header_text: str, arrays: dict, name: str) -> bytes:
    """A resealed checkpoint holding `arrays` and, last, a second record
    named `name` whose values are the first's plus one: a file the writer,
    given a dict, cannot produce. The record is written under a stand-in
    name of the same length, which is then renamed in the bytes."""
    stand_in = name[:-1] + ("y" if name.endswith("x") else "x")
    body = checkpoint_bytes(header_text, {**arrays, stand_in: arrays[name] + 1.0})[:-4]
    prefix = struct.pack("<I", len(name.encode("utf-8")))
    assert body.count(prefix + stand_in.encode("utf-8")) == 1
    return reseal(body.replace(prefix + stand_in.encode("utf-8"), prefix + name.encode("utf-8")))


def one_record_checkpoint(*extents: int) -> bytes:
    """A resealed checkpoint whose one record claims `extents` and holds no values."""
    body = checkpoint_bytes("k = v\n", {"w": np.zeros(0)})[:-4]
    return reseal(body[:-8] + struct.pack(f"<{len(extents) + 1}I", len(extents), *extents))


# Ways a checkpoint's records can disagree with the model its header
# describes: each maps the records to altered ones and the parameter the
# error must name.
MISMATCHED_RECORDS = {
    "missing": lambda arrays: ({k: v for k, v in arrays.items() if k != "layer0.ffn.w1"},
                               "layer0.ffn.w1"),
    "extra": lambda arrays: ({**arrays, "layer9.ffn.w1": np.zeros((2, 2))}, "layer9.ffn.w1"),
    "shape": lambda arrays: ({**arrays, "layer0.ffn.w1": arrays["layer0.ffn.w1"][:, :-1]},
                             "layer0.ffn.w1"),
}


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
