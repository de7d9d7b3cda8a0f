"""The CI workflow (.github/workflows/tests.yml), read as text: it runs every
gate, and every script under ci/ that it names exists."""

import os
import re

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _commands() -> str:
    """The workflow's lines less its comments and step names: what it runs."""
    with open(os.path.join(_ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as f:
        lines = [line.strip() for line in f]
    return "\n".join(line for line in lines
                     if not line.startswith(("#", "name:", "- name:")))


def test_the_workflow_runs_every_gate():
    commands = _commands()
    for gate in ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
                 "--continue-on-collection-errors",
                 "python3 perfbench/selftest.py",
                 "dpmn gradcheck --probes 50 --seed 0",
                 "python3 ci/gradcheck_reference.py",
                 "python3 ci/bits_vs_parent.py --parent-tree"):
        assert gate in commands, gate


def test_every_ci_script_the_workflow_names_exists_and_each_one_runs():
    named = set(re.findall(r"\bci/[\w.-]+\.py\b", _commands()))
    on_disk = {f"ci/{name}" for name in os.listdir(os.path.join(_ROOT, "ci"))
               if name.endswith(".py")}
    assert named <= on_disk, named - on_disk  # a script it names is missing
    assert on_disk <= named, on_disk - named  # a script it never runs
