"""The library names the benchmark harness (perfbench/) reaches into.

perfbench/tracing.py wraps entry points by replacing `owner.__dict__[attr]`
for each of its targets, so a refactor that moves one of those names to
another class or module breaks the benchmark. This test fails first.
"""

import importlib
import os
import sys
from dataclasses import replace

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_every_traced_entry_point_is_where_the_benchmark_wraps_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    tracing = importlib.import_module("tracing")
    targets = tracing.Tracer()._targets()
    assert targets
    missing = [(owner.__name__, attr)
               for owner, attr, *_ in targets if attr not in owner.__dict__]
    assert missing == []


def test_a_bilstm_forward_records_a_span_for_every_head_layer(monkeypatch):
    """The per-layer head metrics read these spans: each task's head, the one
    joint Bi-LSTM scan and each head's FFN, each recording tape entries."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    from dpmn.gradcheck import build_probe_setup
    from dpmn.tensor import Tape

    model, batch, _ = build_probe_setup()
    tracer = tracing.Tracer()
    with tracer.installed(0), Tape():
        model.forward(batch)
    taped = {}
    for span in tracer.spans:
        taped.setdefault(span[tracing.NAME], []).append(span[tracing.COUNT])
    assert taped["heads.bilstm"] == [1]
    assert taped["heads.ffn"] == [1, 1, 1]
    for task in "abc":
        assert taped[f"heads.head_{task}"] == [2]  # its block of the scan, then its FFN


@pytest.mark.parametrize("head_kind, last_layer", [("bilstm-ffn", 6), ("linear", 7)])
def test_an_encoder_forward_records_one_span_per_layer(monkeypatch, head_kind, last_layer):
    """The per-layer encoder metrics read these spans: one `encoder.layer<i>`
    per layer, inside the one `encoder.encode`, each with its six tape
    entries (QKV, attention, output projection, add_norm, FFN, add_norm);
    a linear-head model's last layer records one more, the slice of the
    positions its heads read. A layer's two blocks add no span."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    from dpmn import gradcheck
    from dpmn.tensor import Tape

    monkeypatch.setattr(gradcheck, "TINY_CONFIG",
                        replace(gradcheck.TINY_CONFIG, head_kind=head_kind))
    model, batch, _ = gradcheck.build_probe_setup()
    tracer = tracing.Tracer()
    with tracer.installed(0), Tape():
        model.forward(batch)
    encode = [i for i, span in enumerate(tracer.spans) if span[tracing.NAME] == "encoder.encode"]
    layers = [(span[tracing.NAME], span[tracing.PARENT], span[tracing.COUNT])
              for span in tracer.spans if span[tracing.NAME].startswith("encoder.layer")]
    assert len(encode) == 1
    assert layers == [("encoder.layer0", encode[0], 6), ("encoder.layer1", encode[0], last_layer)]
