"""The library names the benchmark harness (perfbench/) reaches into.

perfbench/tracing.py wraps entry points by replacing `owner.__dict__[attr]`
for each of its targets, so a refactor that moves one of those names to
another class or module breaks the benchmark. This test fails first.
"""

import importlib
import os
import sys

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
