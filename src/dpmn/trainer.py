"""Training loop with early stopping, evaluation, and the ablation runner.

Everything is deterministic given the config seed: parameter init, batch
shuffling, and dropout all derive from rng_seed, and the persisted run log
and checkpoint are byte-stable across runs. Wall-clock time is reported on
the console only, never written into artifacts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

# checkpoint_bytes is unused here: perfbench/tracing.py wraps trainer.checkpoint_bytes
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .data import (
    TASK_CLASSES,
    TASKS,
    Batch,
    Vocab,
    build_vocab,
    make_batches,
)
from .errors import ConfigError, ContractError, IntegrityError, NumericError
from .losses import LossWeights, cross_entropy, total_loss
from .metrics import confusion_matrix, macro_f1
from .model import DpmnModel
from .optim import Adam
from .prompt import PromptConfig
from .runconfig import TrainConfig, format_checkpoint_header, parse_checkpoint_header
from .tensor import Tape, backward

CHECKPOINT_NAME = "model.ckpt"
RUNLOG_NAME = "runlog.csv"
RUNLOG_HEADER = ",".join(["epoch", "train_loss_total", *(f"train_loss_{t}" for t in TASKS),
                          *(f"dev_macro_f1_{t}" for t in TASKS), "best"])


@dataclass
class EpochRow:
    epoch: int
    losses: tuple[float, ...]  # mean training loss: the total, then one per task
    f1: dict[str, float]       # dev macro F1 per task; task A's is the monitored metric
    wall_time: float  # console diagnostics only; kept out of the CSV


@dataclass
class RunLog:
    rows: list[EpochRow] = field(default_factory=list)
    step_losses: list[tuple[float, ...]] = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self) -> str:
        lines = [RUNLOG_HEADER]
        for r in self.rows:
            best = 1 if r.epoch == self.best_epoch else 0
            values = (*r.losses, *(r.f1[t] for t in TASKS))
            lines.append(",".join([str(r.epoch), *map(repr, values), str(best)]))
        return "\n".join(lines) + "\n"


@dataclass
class EvalReport:
    f1: dict[str, float]
    confusion: dict[str, np.ndarray]

    @property
    def counts(self) -> dict[str, int]:
        """Examples scored per task: those whose label for it is present."""
        return {task: int(m.sum()) for task, m in self.confusion.items()}


@dataclass
class TrainResult:
    model: DpmnModel
    runlog: RunLog
    vocab: Vocab
    best_metric: float
    header_text: str
    checkpoint_path: str | None = None

    @property
    def best_epoch(self) -> int:
        return self.runlog.best_epoch


def build_model(cfg: TrainConfig, vocab: Vocab,
                arrays: dict[str, np.ndarray] | None = None) -> DpmnModel:
    """The model `cfg` describes over `vocab`: drawn afresh, or built on a
    checkpoint's `arrays`. A config the model cannot take, a size numpy
    cannot allocate included, is a ConfigError."""
    try:
        return DpmnModel(cfg.encoder_config(vocab.size), cfg.prompt, head_kind=cfg.head_kind,
                         rng_seed=cfg.rng_seed, lstm_hidden=cfg.lstm_hidden,
                         head_ffn_size=cfg.head_ffn_size, arrays=arrays)
    except MemoryError as e:  # numpy names the allocation it refused
        raise ConfigError(f"the model does not fit in memory: {e}") from None


def _require_finite(arrays: dict[str, np.ndarray | None], what: str, step: int) -> None:
    """Raise NumericError naming the first parameter whose array holds a
    NaN or an infinity; a parameter without a gradient has nothing to check."""
    for name, values in arrays.items():
        if values is not None and not np.isfinite(values).all():
            raise NumericError(f"non-finite {what} of {name} at training step {step}")


def evaluate_model(model: DpmnModel, batches: list[Batch]) -> EvalReport:
    """Macro F1 and confusion matrix per task, over examples whose label is
    present for that task: each batch adds its present rows into the task's
    one matrix. Forward passes run without a tape (no dropout). A logit
    that is NaN or infinite, which argmax would score, is a NumericError."""
    confusion = {t: np.zeros((c, c), dtype=np.int64) for t, c in TASK_CLASSES.items()}
    for batch in batches:
        logits = model.forward(batch)
        for task, counts in confusion.items():
            scores = logits[task].data
            if not np.isfinite(scores).all():
                raise NumericError(f"non-finite logit for task {task} in evaluation")
            present = batch.labels[task] >= 0
            counts += confusion_matrix(batch.labels[task][present],
                                       np.argmax(scores[present], axis=1), len(counts))
    return EvalReport({t: macro_f1(m) for t, m in confusion.items()}, confusion)


def train(cfg: TrainConfig, train_examples, dev_examples, *, log=None) -> TrainResult:
    """Run the full training loop and keep the best-dev-epoch weights."""
    vocab = build_vocab(train_examples, cfg.min_freq)
    model = build_model(cfg, vocab)
    trainable = model.trainable_parameters(cfg.prompt.tuning)
    # backward reaches the frozen parameters too, though nothing reads their gradients
    frozen = [p for name, p in model.parameters().items() if name not in trainable]
    optimizer = Adam(trainable, cfg.learning_rate)
    dropout_rng = np.random.Generator(np.random.PCG64(cfg.rng_seed + 2))
    weights = cfg.loss_weights
    cap = model.text_budget
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)  # fail before training, not after it

    dev_batches = make_batches(dev_examples, vocab, cfg.batch_size, cap)
    runlog = RunLog()
    best_metric = -1.0
    best_state: dict[str, np.ndarray] | None = None
    stale_epochs = 0
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.monotonic()
        batches = make_batches(train_examples, vocab, cfg.batch_size, cap,
                               shuffle_seed=cfg.rng_seed * 1_000_003 + epoch)
        epoch_losses = np.zeros(1 + len(TASKS))
        for batch in batches:
            step += 1
            with Tape() as tape:
                logits = model.forward(batch, dropout_rng)
                task_losses = [cross_entropy(logits[t], batch.labels[t]) for t in TASKS]
                loss = total_loss(*task_losses, weights)
            parts = (loss.item(), *(part.item() for part in task_losses))
            if not all(np.isfinite(parts)):
                raise NumericError(f"non-finite loss at training step {step}")
            runlog.step_losses.append(parts)
            epoch_losses += parts
            optimizer.zero_grad()
            for p in frozen:
                p.grad = None
            backward(tape, loss)
            _require_finite({name: p.grad for name, p in trainable.items()}, "gradient", step)
            optimizer.step()
            _require_finite({name: p.data for name, p in trainable.items()}, "value", step)

        report = evaluate_model(model, dev_batches)
        monitored = report.f1["a"]
        if not np.isfinite(monitored):
            raise NumericError(f"non-finite dev metric at epoch {epoch}")
        row = EpochRow(epoch, tuple(float(v) for v in epoch_losses / len(batches)),
                       report.f1, wall_time=time.monotonic() - started)
        runlog.rows.append(row)

        if monitored > best_metric:
            best_metric = monitored
            runlog.best_epoch = epoch
            best_state = model.state_arrays()
            stale_epochs = 0
        else:
            stale_epochs += 1
        if log is not None:
            log(f"epoch {epoch}: loss {row.losses[0]:.6f} dev_f1_a {monitored:.4f} "
                f"({row.wall_time:.2f}s)")
        if stale_epochs >= cfg.early_stop_patience:
            break

    model.load_state(best_state)
    header = format_checkpoint_header(cfg, vocab)
    result = TrainResult(model=model, runlog=runlog, vocab=vocab,
                         best_metric=best_metric, header_text=header)
    if cfg.out_dir is not None:
        path = os.path.join(cfg.out_dir, CHECKPOINT_NAME)
        save_checkpoint(path, header, model.state_arrays())
        with open(os.path.join(cfg.out_dir, RUNLOG_NAME), "w", encoding="utf-8") as f:
            f.write(runlog.to_csv())
        result.checkpoint_path = path
    return result


def load_model(checkpoint_path) -> tuple[DpmnModel, TrainConfig, Vocab]:
    """The model a checkpoint describes, built on its records: no weight is
    drawn and no record copied again."""
    header_text, arrays = load_checkpoint(checkpoint_path)
    try:
        cfg, vocab = parse_checkpoint_header(header_text)
        model = build_model(cfg, vocab, arrays)
    except (ConfigError, ContractError) as e:
        raise IntegrityError(f"checkpoint does not describe a valid model: {e}") from None
    return model, cfg, vocab


def evaluate_checkpoint(checkpoint_path, examples) -> EvalReport:
    """Score a checkpoint on `examples`. A record that holds a NaN or an
    infinity is an IntegrityError naming it, raised before any scoring."""
    model, cfg, vocab = load_model(checkpoint_path)
    for name, p in model.parameters().items():
        if not np.isfinite(p.data).all():
            raise IntegrityError(f"record {name!r} holds a value that is not finite")
    return evaluate_model(model, make_batches(examples, vocab, cfg.batch_size,
                                              model.text_budget))


# The six architecture variants the ablation runner compares:
# (name, head kind, multi-task on, prompt on)
ABLATION_VARIANTS = (
    ("linear-head", "linear", False, False),
    ("bilstm-head", "bilstm-ffn", False, False),
    ("bilstm-mtl", "bilstm-ffn", True, False),
    ("bilstm-prompt", "bilstm-ffn", False, True),
    ("linear-mtl-prompt", "linear", True, True),
    ("full", "bilstm-ffn", True, True),
)


@dataclass
class AblationRow:
    name: str
    architecture: str
    dev_f1_a: float
    best_epoch: int
    prefix_values: int


@dataclass
class AblationResult:
    rows: list[AblationRow]

    def to_markdown(self) -> str:
        lines = ["| model | architecture | dev macro F1 (task A) |",
                 "|---|---|---|"]
        for r in self.rows:
            lines.append(f"| {r.name} | {r.architecture} | {r.dev_f1_a:.4f} |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["model,architecture,dev_macro_f1_a,best_epoch,prefix_values"]
        for r in self.rows:
            lines.append(
                f"{r.name},{r.architecture},{r.dev_f1_a!r},{r.best_epoch},{r.prefix_values}"
            )
        return "\n".join(lines) + "\n"


def _variant_config(base: TrainConfig, head: str, mtl: bool, prompt: bool) -> TrainConfig:
    weights = base.loss_weights if mtl else LossWeights(1.0, 0.0, 0.0)
    prompt_cfg = base.prompt if prompt else PromptConfig(
        length=0, form="light", init="random", tuning=base.prompt.tuning
    )
    return replace(base, head_kind=head, loss_weights=weights, prompt=prompt_cfg)


def _describe(head: str, mtl: bool, prompt: bool) -> str:
    parts = ["encoder", f"{head} head"]
    if mtl:
        parts.append("multi-task")
    if prompt:
        parts.append("prompt")
    return " + ".join(parts)


def run_grid(runs, train_examples, dev_examples, *, log=None):
    """Train each (label, config) run in turn on the same data; returns an
    iterator of (label, result) as each run finishes. log, when given,
    receives each label before its run starts.

    At the call, every run's model is built on the training vocabulary, so
    a grid point that cannot run fails before any output; then the out_dir
    the runs' configs name is created. The runs themselves write nothing."""
    runs = list(runs)
    for _, cfg in runs:
        build_model(cfg, build_vocab(train_examples, cfg.min_freq))
    for out_dir in dict.fromkeys(cfg.out_dir for _, cfg in runs if cfg.out_dir is not None):
        os.makedirs(out_dir, exist_ok=True)

    def results():
        for label, cfg in runs:
            if log is not None:
                log(label)
            yield label, train(replace(cfg, out_dir=None), train_examples, dev_examples)

    return results()


def ablate(base: TrainConfig, train_examples, dev_examples, *,
           log=None) -> AblationResult:
    """Train every architecture variant with identical seed and data.

    Multi-task off means loss weights (1, 0, 0); the auxiliary heads still
    exist but receive zero gradient. Prompt off means a zero-length prompt,
    so no prefix parameters exist at all.
    """
    variants = [(name, _describe(head, mtl, prompt), _variant_config(base, head, mtl, prompt))
                for name, head, mtl, prompt in ABLATION_VARIANTS]
    runs = [(f"ablation variant {name}: {architecture}", cfg)
            for name, architecture, cfg in variants]
    results = run_grid(runs, train_examples, dev_examples, log=log)
    return AblationResult([
        AblationRow(name, architecture, result.best_metric, result.best_epoch,
                    result.model.bank.value_count())
        for (name, architecture, _), (_, result) in zip(variants, results)
    ])
