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
