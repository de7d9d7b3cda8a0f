"""Compare the artifacts of this tree with those of its parent commit, and
with this tree's own second run, byte for byte.

Run it with the parent commit checked out in a second directory:

    git worktree add --detach ../parent HEAD^1
    python3 ci/bits_vs_parent.py --parent-tree ../parent

Any earlier commit serves as the parent: CI checks out a push's
before-commit, so a push of several commits is compared as one change.

Each tree runs, with its own `src` first on PYTHONPATH and one BLAS thread,
the README worked example and seven one-change variants of it (`dpmn train`,
then `dpmn eval` on the dev corpus), `dpmn ablate` and a token-init
`dpmn sweep` (`--lengths 0,2 --forms deep,light --inits random,token`) on
the worked example, and `dpmn gradcheck --probes 58`, on one pair of
corpora written once. The artifacts are each variant's `runlog.csv`,
`model.ckpt` and eval stdout (`eval.txt`), `ablate/ablation.csv`,
`sweep/sweep.csv` and the gradcheck stdout (`gradcheck.txt`), 27 in all.
This tree then runs a second time under two BLAS threads. The script prints,
for every artifact, whether it differs from the parent's and from the
repeat's, and checks that each variant's `model.ckpt` re-saves to its own
bytes through this tree's `load_checkpoint` and `checkpoint_bytes`.

A change may alter bits on purpose: it declares so on a line of its own
that it adds to CHANGES.md (relative to the parent tree's commit), starting
`BITS:`. Each backquoted span on such a line is a glob (fnmatch) over
artifact names, such as `gradcheck.txt` or `*/model.ckpt`. No such line
excuses an artifact that differs between this tree's two runs, or a
checkpoint that does not re-save to its own bytes. The script exits 0 when
every artifact is the same in both runs of this tree, every checkpoint
re-saves to its own bytes and every artifact that differs from the
parent's matches a declared glob, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import re
import subprocess
import sys
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this tree
sys.path.insert(0, os.path.join(ROOT, "src"))

from dpmn import generate_synthetic_corpus, write_tsv  # noqa: E402
from dpmn.checkpoint import checkpoint_bytes, load_checkpoint  # noqa: E402

WORKED = """\
learning_rate = 0.001
max_epochs = 40
early_stop_patience = 40
num_layers = 2
hidden_size = 32
num_heads = 2
ffn_size = 64
max_seq_len = 32
dropout = 0.0
prompt_length = 2
prompt_form = deep
"""

# the worked example and one change each; a key given here replaces the
# worked example's line or is added after it
VARIANTS = {
    "worked": {},
    "dropout": {"dropout": "0.1"},
    "linear-dropout": {"head_kind": "linear", "dropout": "0.1"},
    "token-init": {"prompt_init": "token"},
    "light": {"prompt_form": "light"},
    "no-prompt": {"prompt_length": "0", "prompt_form": "light"},
    "fixed-lm": {"tuning_strategy": "fixed-lm"},
    "main-only": {"loss_weight_main": "1.0", "loss_weight_auxi1": "0.0",
                  "loss_weight_auxi2": "0.0"},
}


def variant_config(changes: dict[str, str]) -> str:
    lines = WORKED.splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    for key, value in changes.items():
        if key in keys:
            lines[keys.index(key)] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def artifact_names() -> list[str]:
    names = [f"{v}/{a}" for v in VARIANTS for a in ("runlog.csv", "model.ckpt", "eval.txt")]
    return names + ["ablate/ablation.csv", "sweep/sweep.csv", "gradcheck.txt"]


def tree_env(tree: str, threads: int) -> dict[str, str]:
    """The environment that runs `tree`'s source, on `threads` BLAS threads."""
    path = os.pathsep.join(filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)


def run_tree(tree: str, out: str, inputs: str, threads: int) -> None:
    """Every artifact of `tree` under `out`, run on the corpora and configs in
    `inputs` on `threads` BLAS threads."""
    env = tree_env(tree, threads)

    def dpmn(*args: str, stdout=subprocess.DEVNULL) -> None:
        """One `dpmn` command; a failure stops the comparison."""
        done = subprocess.run([sys.executable, "-m", "dpmn.cli", *args], cwd=out, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"dpmn {' '.join(args)} exited {done.returncode} on {tree}:\n{done.stderr}")

    # an installed dpmn must not stand in for the tree's own
    found = subprocess.run([sys.executable, "-c", "import dpmn; print(dpmn.__file__)"],
                           env=env, capture_output=True, text=True, check=True)
    if not found.stdout.startswith(os.path.join(tree, "src", "")):
        sys.exit(f"{tree} imports dpmn from {found.stdout.strip()}, not from its own src")
    os.makedirs(out)
    data = ["--train", os.path.join(inputs, "train.tsv"), "--dev", os.path.join(inputs, "dev.tsv")]
    for name in VARIANTS:
        dpmn("train", "--config", os.path.join(inputs, f"{name}.cfg"), *data, "--out", name)
        with open(os.path.join(out, name, "eval.txt"), "w", encoding="utf-8") as f:
            dpmn("eval", "--checkpoint", os.path.join(name, "model.ckpt"), "--data", data[3],
                 stdout=f)
    worked = os.path.join(inputs, "worked.cfg")
    dpmn("ablate", "--config", worked, *data, "--out", "ablate")
    dpmn("sweep", "--config", worked, "--lengths", "0,2", "--forms", "deep,light",
         "--inits", "random,token", *data, "--out", "sweep")
    with open(os.path.join(out, "gradcheck.txt"), "w", encoding="utf-8") as f:
        dpmn("gradcheck", "--probes", "58", stdout=f)


def declared_globs(added_lines: list[str]) -> list[str]:
    """The backquoted globs of the added lines that start `BITS:`."""
    return [glob for line in added_lines if line.startswith("BITS:")
            for glob in re.findall(r"`([^`]+)`", line)]


def undeclared(differing: list[str], added_lines: list[str]) -> list[str]:
    globs = declared_globs(added_lines)
    return [name for name in differing if not any(fnmatchcase(name, g) for g in globs)]


def failing(vs_parent: list[str], vs_repeat: list[str], added_lines: list[str]) -> list[str]:
    """The artifacts that fail: each that differs between this tree's two
    runs, which no `BITS:` line excuses, then each other one that differs
    from the parent's and that no added `BITS:` line names."""
    return vs_repeat + [name for name in undeclared(vs_parent, added_lines)
                        if name not in vs_repeat]


def resaved_differently(out: str) -> list[str]:
    """The variants' checkpoints under `out` that do not re-save to their
    own bytes through this tree's `load_checkpoint` and `checkpoint_bytes`."""
    paths = {f"{v}/model.ckpt": Path(out, v, "model.ckpt") for v in VARIANTS}
    return [name for name, path in paths.items()
            if checkpoint_bytes(*load_checkpoint(path)) != path.read_bytes()]


def write_inputs(directory: str) -> None:
    """The two corpora and each variant's config, `<variant>.cfg`, in `directory`."""
    os.makedirs(directory, exist_ok=True)
    write_tsv(os.path.join(directory, "train.tsv"), generate_synthetic_corpus(64, seed=7))
    write_tsv(os.path.join(directory, "dev.tsv"), generate_synthetic_corpus(32, seed=8))
    for name, changes in VARIANTS.items():
        with open(os.path.join(directory, f"{name}.cfg"), "w", encoding="utf-8") as f:
            f.write(variant_config(changes))


def added_changes_lines(parent_tree: str) -> list[str]:
    """The lines CHANGES.md gains from the commit checked out in
    `parent_tree` to this working tree."""
    found = subprocess.run(["git", "-C", parent_tree, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
    if found.returncode != 0:
        sys.exit(f"{parent_tree} is not a git checkout: {found.stderr.strip()}")
    base = found.stdout.strip()
    diff = subprocess.run(["git", "diff", "--unified=0", base, "--", "CHANGES.md"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    return [line[1:] for line in diff.splitlines()
            if line.startswith("+") and not line.startswith("+++")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-tree", required=True, help="checkout of the parent commit")
    parser.add_argument("--work", default="bits-work", help="directory for the runs' output")
    args = parser.parse_args(argv)
    if os.path.exists(args.work):
        sys.exit(f"{args.work} exists; give a new --work directory")
    parent = os.path.abspath(args.parent_tree)
    added = added_changes_lines(parent)  # a tree that is no checkout fails first
    work = os.path.abspath(args.work)
    write_inputs(work)
    runs = {"parent": (parent, 1), "change": (ROOT, 1), "repeat": (ROOT, 2)}
    for run, (tree, threads) in runs.items():
        run_tree(tree, os.path.join(work, run), work, threads)

    def differing(other: str) -> list[str]:
        return [name for name in artifact_names()
                if not filecmp.cmp(os.path.join(work, "change", name),
                                   os.path.join(work, other, name), shallow=False)]

    vs_parent, vs_repeat = differing("parent"), differing("repeat")
    print("parent   repeat   artifact")
    for name in artifact_names():
        print("".join("differs  " if name in d else "same     " for d in (vs_parent, vs_repeat))
              + name)
    failed = (failing(vs_parent, vs_repeat, added)
              + [f"{name} (re-saved)" for name in resaved_differently(os.path.join(work, "change"))])
    if failed:
        print("failed: " + ", ".join(failed) + "; an artifact fails when it differs between this "
              "tree's two runs, or from the parent's with no added `BITS:` line of CHANGES.md "
              "naming it, and a checkpoint when it re-saves to other bytes")
        return 1
    print("every artifact is the same in this tree's two runs, every checkpoint re-saves to its "
          "own bytes, and " + (f"the {len(vs_parent)} of {len(artifact_names())} artifacts that "
                               "differ from the parent's are each named on an added BITS: line"
                               if vs_parent else "every artifact is the same as the parent's"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
