"""One tiny benchmark round per workload finishes without a failed operation,
untraced and traced.

perfbench/session.py reads fields of the library's results: the run log's
step losses, the evaluation report's F1 scores and confusion matrices, and
the training result's checkpoint header text. perfbench/tracing.py names
its spans from library attributes, such as each transformer layer's
`wq.name`. The surface test checks only the entry points the benchmark
wraps; this one fails first when a refactor renames or reshapes one of
those fields or attributes.
"""

import importlib
import os
import sys
from dataclasses import replace

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
WORKLOADS = ["bilstm-t30", "linear-l4d64-t30"]


@pytest.mark.parametrize("name,traced", [
    *[pytest.param(name, False, id=name) for name in WORKLOADS],
    *[pytest.param(name, True, id=f"{name}-traced") for name in WORKLOADS],
])
def test_one_round_of_each_workload_has_no_failed_operation(name, traced, tmp_path,
                                                            monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    session = importlib.import_module("session")
    workloads = importlib.import_module("workloads")
    tiny = replace(workloads.WORKLOADS[name], epochs=1, n_train=8, n_dev=4, n_test=4,
                   gradcheck_probes=2, ckpt_reps=1)
    run = session.Session(tiny, seed=1, workdir=str(tmp_path))
    if traced:
        tracer = importlib.import_module("tracing").Tracer()
        with tracer.installed(1):
            run.run_round(session.Samples(), tracer)
        assert tracer.round_metrics(1, 1.0)["tensor.tape_entries"] > 0
    else:
        run.run_round(session.Samples())
    assert run.ops.attempted > 0
    assert run.ops.failed == 0
