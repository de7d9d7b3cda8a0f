"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (NaN loss, non-finite evaluation logit or failed gradient check).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .data import TASKS, parse_tsv
from .errors import ConfigError, DataError, NumericError
from .gradcheck import run_gradcheck
from .prompt import sweep_configs
from .runconfig import TrainConfig, load_config_file
from .trainer import ablate, evaluate_checkpoint, run_grid, train


def _load_config(args) -> TrainConfig:
    cfg = load_config_file(args.config) if args.config else TrainConfig()
    return cfg if args.out is None else replace(cfg, out_dir=args.out)


@contextmanager
def _file_errors(action: str, path):
    """Report a file that cannot be opened, created or written, is not
    UTF-8 text, is not a well-formed corpus or fails its checksum as a
    DataError naming it: the file the OSError names, if any, else `path`."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot {action} {e.filename or path}: {e.strerror}") from None
    except (UnicodeDecodeError, DataError) as e:
        raise DataError(f"cannot {action} {path}: {e}") from None


def _read_corpus(path):
    with _file_errors("read corpus", path):
        examples = parse_tsv(path)
    if not examples:
        raise DataError(f"corpus has no examples: {path}")
    return examples


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    train_set, dev_set = _read_corpus(args.train), _read_corpus(args.dev)
    with _file_errors("write", cfg.out_dir):
        result = train(cfg, train_set, dev_set, log=print)
    print(f"best epoch {result.best_epoch}: dev macro F1 (task A) {result.best_metric:.4f}")
    if result.checkpoint_path:
        print(f"checkpoint written to {result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    examples = _read_corpus(args.data)
    with _file_errors("read checkpoint", args.checkpoint):
        report = evaluate_checkpoint(args.checkpoint, examples)
    for task in TASKS:
        print(f"task {task}: macro_f1 {report.f1[task]:.4f} over {report.counts[task]} examples")
        if report.counts[task]:
            print("confusion (gold rows x predicted columns):")
            for row in report.confusion[task]:
                print("  " + " ".join(f"{v:6d}" for v in row))
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    train_set, dev_set = _read_corpus(args.train), _read_corpus(args.dev)
    with _file_errors("write", cfg.out_dir):
        result = ablate(cfg, train_set, dev_set, log=print)
        print(result.to_markdown(), end="")
        if cfg.out_dir:
            for name, text in (("ablation.md", result.to_markdown()),
                               ("ablation.csv", result.to_csv())):
                with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as f:
                    f.write(text)
            print(f"tables written to {cfg.out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = run_gradcheck(n_probes=args.probes, seed=args.seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        raise NumericError("gradient check failed")
    return 0


def _parse_csv_list(raw: str, converter, flag: str):
    try:
        return [converter(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"bad value for {flag}: {raw!r}") from None


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    train_set, dev_set = _read_corpus(args.train), _read_corpus(args.dev)
    lengths = _parse_csv_list(args.lengths, int, "--lengths")
    forms = _parse_csv_list(args.forms, str, "--forms")
    inits = _parse_csv_list(args.inits, str, "--inits")
    configs = sweep_configs(lengths, forms, inits, tuning=cfg.prompt.tuning)
    with _file_errors("write", cfg.out_dir):
        results = run_grid([(p, replace(cfg, prompt=p)) for p in configs], train_set, dev_set)
        lines = ["length,form,init,tuning,dev_macro_f1_a,best_epoch"]
        print(lines[0])
        for p, result in results:
            lines.append(f"{p.length},{p.form},{p.init},{p.tuning},"
                         f"{result.best_metric!r},{result.best_epoch}")
            print(lines[-1])
        if cfg.out_dir:
            with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmn",
        description="Train and probe the deep-prompt multi-task abuse-language classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--train", required=True, help="training corpus TSV")
    run.add_argument("--dev", required=True, help="validation corpus TSV")
    run.add_argument("--out", help="directory for the run's output files")

    p_train = sub.add_parser("train", parents=[run],
                             help="train a model and keep the best-dev checkpoint")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.set_defaults(fn=_cmd_eval)

    p_ablate = sub.add_parser("ablate", parents=[run],
                              help="train all six architecture variants")
    p_ablate.set_defaults(fn=_cmd_ablate)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic gradients to complex-step derivatives")
    p_grad.add_argument("--probes", type=int, default=200)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", parents=[run],
                             help="train across prompt length/form/init combinations")
    p_sweep.add_argument("--lengths", required=True, help="comma-separated prompt lengths")
    p_sweep.add_argument("--forms", required=True, help="comma-separated: deep,light")
    p_sweep.add_argument("--inits", required=True, help="comma-separated: random,token")
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite value is reported once, as a NumericError naming where
        # it appeared, not first as numpy warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
