"""One tiny benchmark round per workload finishes without a failed operation.

perfbench/session.py reads fields of the library's results: the run log's
step losses, the evaluation report's F1 scores and confusion matrices, and
the training result's checkpoint header text. The surface test checks only
the entry points the benchmark wraps; this one fails first when a refactor
renames or reshapes one of those fields.
"""

import importlib
import os
import sys
from dataclasses import replace

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.mark.parametrize("name", ["bilstm-t30", "linear-l4d64-t30"])
def test_one_round_of_each_workload_has_no_failed_operation(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    session = importlib.import_module("session")
    workloads = importlib.import_module("workloads")
    tiny = replace(workloads.WORKLOADS[name], epochs=1, n_train=8, n_dev=4, n_test=4,
                   gradcheck_probes=2, ckpt_reps=1)
    run = session.Session(tiny, seed=1, workdir=str(tmp_path))
    run.run_round(session.Samples())
    assert run.ops.attempted > 0
    assert run.ops.failed == 0
