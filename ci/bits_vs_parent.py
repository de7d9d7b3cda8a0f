"""Compare the artifacts of this tree with those of its parent commit, byte for byte.

Run it with the parent commit checked out in a second directory:

    git worktree add --detach ../parent HEAD^1
    python3 ci/bits_vs_parent.py --parent-tree ../parent

Each tree runs, with its own `src` first on PYTHONPATH and one BLAS thread,
the README worked example and six one-change variants of it (`dpmn train`,
then `dpmn eval` on the dev corpus), `dpmn ablate` on the worked example
and `dpmn gradcheck --probes 58`, on one pair of corpora written once. The
artifacts are each variant's `runlog.csv`, `model.ckpt` and eval stdout
(`eval.txt`), `ablate/ablation.csv` and the gradcheck stdout
(`gradcheck.txt`). The script prints every artifact that differs.

A change may alter bits on purpose: it declares so on a line of its own
that it adds to CHANGES.md (relative to the parent tree's commit), starting
`BITS:`. Each
backquoted span on such a line is a glob (fnmatch) over artifact names, such
as `gradcheck.txt` or `*/model.ckpt`. The script exits 0 when every
differing artifact matches a declared glob, and 1 otherwise.

`--inputs DIR` only writes the corpora (`train.tsv`, `dev.tsv`) and each
variant's config (`<variant>.cfg`) into DIR, so other checks run the same
worked example.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import re
import subprocess
import sys
from fnmatch import fnmatchcase

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this tree

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
    return names + ["ablate/ablation.csv", "gradcheck.txt"]


def tree_env(tree: str) -> dict[str, str]:
    """The environment that runs `tree`'s source, on one BLAS thread."""
    path = os.pathsep.join(filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)


def dpmn(tree: str, cwd: str, *args: str, stdout=subprocess.DEVNULL) -> None:
    """One `dpmn` command on `tree`'s source; a failure stops the comparison."""
    done = subprocess.run([sys.executable, "-m", "dpmn.cli", *args], cwd=cwd,
                          env=tree_env(tree), stdout=stdout, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"dpmn {' '.join(args)} exited {done.returncode} on {tree}:\n{done.stderr}")


def run_tree(tree: str, out: str, inputs: str) -> None:
    """Every artifact of `tree` under `out`, run on the corpora and configs in `inputs`."""
    # an installed dpmn must not stand in for the tree's own
    found = subprocess.run([sys.executable, "-c", "import dpmn; print(dpmn.__file__)"],
                           env=tree_env(tree), capture_output=True, text=True, check=True)
    if not found.stdout.startswith(os.path.join(tree, "src", "")):
        sys.exit(f"{tree} imports dpmn from {found.stdout.strip()}, not from its own src")
    os.makedirs(out)
    data = [os.path.join(inputs, name) for name in ("train.tsv", "dev.tsv")]
    for name in VARIANTS:
        dpmn(tree, out, "train", "--config", os.path.join(inputs, f"{name}.cfg"),
             "--train", data[0], "--dev", data[1], "--out", name)
        with open(os.path.join(out, name, "eval.txt"), "w", encoding="utf-8") as f:
            dpmn(tree, out, "eval", "--checkpoint", os.path.join(name, "model.ckpt"),
                 "--data", data[1], stdout=f)
    dpmn(tree, out, "ablate", "--config", os.path.join(inputs, "worked.cfg"),
         "--train", data[0], "--dev", data[1], "--out", "ablate")
    with open(os.path.join(out, "gradcheck.txt"), "w", encoding="utf-8") as f:
        dpmn(tree, out, "gradcheck", "--probes", "58", stdout=f)


def declared_globs(added_lines: list[str]) -> list[str]:
    """The backquoted globs of the added lines that start `BITS:`."""
    return [glob for line in added_lines if line.startswith("BITS:")
            for glob in re.findall(r"`([^`]+)`", line)]


def undeclared(differing: list[str], added_lines: list[str]) -> list[str]:
    globs = declared_globs(added_lines)
    return [name for name in differing if not any(fnmatchcase(name, g) for g in globs)]


def write_inputs(directory: str) -> None:
    """The two corpora and each variant's config, `<variant>.cfg`, in `directory`."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dpmn import generate_synthetic_corpus, write_tsv
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
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent-tree", help="checkout of the parent commit")
    which.add_argument("--inputs", metavar="DIR",
                       help="only write the corpora and the variants' configs into DIR")
    parser.add_argument("--work", default="bits-work", help="directory for the runs' output")
    args = parser.parse_args(argv)
    if args.inputs:
        write_inputs(args.inputs)
        return 0
    if os.path.exists(args.work):
        sys.exit(f"{args.work} exists; give a new --work directory")
    sides = {"parent": os.path.abspath(args.parent_tree), "change": ROOT}
    added = added_changes_lines(sides["parent"])  # a tree that is no checkout fails first
    work = os.path.abspath(args.work)
    write_inputs(work)
    for side, tree in sides.items():
        run_tree(tree, os.path.join(work, side), work)
    differing = [name for name in artifact_names()
                 if not filecmp.cmp(*(os.path.join(work, side, name) for side in sides),
                                    shallow=False)]
    for name in artifact_names():
        print(f"{'differs' if name in differing else 'same   '}  {name}")
    missing = undeclared(differing, added)
    if missing:
        print("differing artifacts that no added `BITS:` line of CHANGES.md names: "
              + ", ".join(missing))
        return 1
    print(f"{len(differing)} of {len(artifact_names())} artifacts differ from the parent's, "
          "each named on an added BITS: line" if differing else
          "every artifact is byte-identical to the parent's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
