"""The byte-identity check (ci/bits_vs_parent.py): its config matrix, the
inputs it writes, its rule for which differing artifacts a change has
declared, its rule that a difference between this tree's own two runs
fails whatever is declared, and its re-save check of each checkpoint."""

import importlib.util
import os
import re

import numpy as np
import pytest

from dpmn.checkpoint import save_checkpoint
from dpmn.data import parse_tsv
from dpmn.runconfig import TrainConfig, parse_config

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "ci", "bits_vs_parent.py")
_SPEC = importlib.util.spec_from_file_location("bits_vs_parent", _PATH)
bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bits)


@pytest.mark.parametrize("name", list(bits.VARIANTS))
def test_each_variant_is_a_valid_config_one_change_from_the_worked_example(name):
    """Every variant parses, and differs from the worked example in exactly
    the keys it names (the no-prompt variant needs the light form too)."""
    worked = parse_config(bits.WORKED)
    cfg = parse_config(bits.variant_config(bits.VARIANTS[name]))
    assert isinstance(cfg, TrainConfig)
    assert (cfg == worked) == (name == "worked")
    assert bits.variant_config({}) == bits.WORKED


def test_only_backquoted_globs_on_added_bits_lines_declare_an_artifact():
    differing = ["worked/model.ckpt", "light/runlog.csv", "gradcheck.txt"]
    added = ["- a change that mentions `gradcheck.txt` outside a BITS line",
             "BITS: `*/model.ckpt` (a retrained checkpoint)",
             "  BITS: `light/runlog.csv` indented, so not a BITS line"]
    assert bits.undeclared(differing, added) == ["light/runlog.csv", "gradcheck.txt"]
    assert bits.undeclared(differing, added + ["BITS: `light/*` and `gradcheck.txt`"]) == []
    assert bits.undeclared([], []) == []


def test_a_difference_between_this_tree_s_two_runs_fails_even_where_declared():
    """A BITS line excuses a difference from the parent's artifact, never one
    between this tree's one- and two-thread runs: that artifact fails, and is
    named once, even where it also differs from the parent's."""
    declared = ["BITS: `*/model.ckpt` and `gradcheck.txt`"]
    assert bits.failing([], ["worked/model.ckpt"], declared) == ["worked/model.ckpt"]
    assert bits.failing(["worked/model.ckpt", "gradcheck.txt"], ["worked/model.ckpt"],
                        declared) == ["worked/model.ckpt"]
    assert bits.failing(["worked/model.ckpt", "light/eval.txt"], ["gradcheck.txt"],
                        declared) == ["gradcheck.txt", "light/eval.txt"]
    assert bits.failing(["worked/model.ckpt", "gradcheck.txt"], [], declared) == []


def test_a_checkpoint_that_re_saves_to_other_bytes_is_named(tmp_path, monkeypatch):
    for name in bits.VARIANTS:
        (tmp_path / name).mkdir()
        save_checkpoint(tmp_path / name / "model.ckpt", f"variant = {name}\n",
                        {"w": np.arange(3.0)})
    assert bits.resaved_differently(str(tmp_path)) == []
    resave = bits.checkpoint_bytes
    monkeypatch.setattr(bits, "checkpoint_bytes",
                        lambda header, arrays: resave(header.replace("light", "lite"), arrays))
    assert bits.resaved_differently(str(tmp_path)) == ["light/model.ckpt"]


def test_the_artifacts_are_each_variants_three_the_ablation_table_the_sweep_and_gradcheck():
    names = bits.artifact_names()
    assert len(names) == 3 * len(bits.VARIANTS) + 3 == 27 == len(set(names))
    assert names[-3:] == ["ablate/ablation.csv", "sweep/sweep.csv", "gradcheck.txt"]


def test_the_worked_example_is_the_readme_s():
    """The README's worked example, `run.cfg`, is the config the step runs."""
    with open(os.path.join(os.path.dirname(_PATH), os.pardir, "README.md"),
              encoding="utf-8") as f:
        readme = f.read()
    assert re.findall(r"cat > run\.cfg <<'EOF'\n(.*?)EOF\n", readme, re.S) == [bits.WORKED]


def test_inputs_are_the_two_corpora_and_one_config_per_variant(tmp_path):
    bits.write_inputs(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["train.tsv", "dev.tsv"] + [f"{name}.cfg" for name in bits.VARIANTS])
    assert [len(parse_tsv(tmp_path / n)) for n in ("train.tsv", "dev.tsv")] == [64, 32]
    for name, changes in bits.VARIANTS.items():
        assert (tmp_path / f"{name}.cfg").read_text(encoding="utf-8") == \
            bits.variant_config(changes)
