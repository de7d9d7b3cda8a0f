"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or on
failure). Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from dpmn.checkpoint import checkpoint_bytes, load_checkpoint
from dpmn.data import build_vocab, generate_synthetic_corpus
from dpmn.encoder import EncoderConfig
from dpmn.errors import ConfigError
from dpmn.gradcheck import (
    NETWORK_TOLERANCE,
    OP_TOLERANCE,
    TINY_CONFIG,
    build_probe_setup,
    run_gradcheck,
)
from dpmn.losses import LossWeights, cross_entropy, total_loss
from dpmn.metrics import confusion_matrix, macro_f1
from dpmn.prompt import PromptConfig, init_prompt
from dpmn.runconfig import TrainConfig, parse_config
from dpmn.tensor import Tape, backward
from dpmn.trainer import ablate, build_model, evaluate_checkpoint, train

from conftest import encoder_parameters, head_parameters, make_store, scripted_dev_metric
from test_metrics import brute_force_macro_f1


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {name}{suffix}"


SMALL = dict(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32, max_seq_len=24,
             dropout=0.0, batch_size=16, learning_rate=1e-3)


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    report = run_gradcheck(n_probes=200, seed=0)
    elapsed = time.monotonic() - started
    assert TINY_CONFIG.num_layers == 2
    assert TINY_CONFIG.hidden_size == 16
    assert TINY_CONFIG.prompt.length == 2
    worst_op = max(report.op_errors.values())
    worst_net = max(report.network_errors.values())
    ok = (worst_op < OP_TOLERANCE and worst_net < NETWORK_TOLERANCE
          and report.probes >= 200 and elapsed < 120.0)
    _report(1, "gradient correctness",
            ok, f"op {worst_op:.2e} < 1e-6, net {worst_net:.2e} < 1e-4, "
                f"{report.probes} probes, {elapsed:.1f}s")


def test_criterion_2_prompt_parameter_count_identities():
    ok = True
    details = []
    for layers, p_n, d in ((2, 1, 16), (4, 2, 64)):
        cfg = EncoderConfig(vocab_size=9, num_layers=layers, hidden_size=d,
                            num_heads=2, ffn_size=2 * d, max_seq_len=16, dropout=0.0)
        table = np.zeros((9, d))
        deep = init_prompt(PromptConfig(length=p_n, form="deep"), cfg, table, make_store(), 0)
        light = init_prompt(PromptConfig(length=p_n, form="light"), cfg, table, make_store(), 0)
        ok &= deep.value_count() == layers * p_n * d
        ok &= light.value_count() == p_n * d
        details.append(f"L={layers},p={p_n},d={d}: deep {deep.value_count()}, "
                       f"light {light.value_count()}")
    _report(2, "prompt parameter-count identities", ok, "; ".join(details))


def _encoder_bytes(model) -> bytes:
    return b"".join(p.data.tobytes() for p in encoder_parameters(model).values())


def test_criterion_3_tuning_strategy_freezing():
    corpus = generate_synthetic_corpus(32, seed=4)  # batch 16 -> 2 steps/epoch
    outcomes = {}
    for strategy in ("fixed-lm", "lm-plus-prompt"):
        cfg = TrainConfig(**SMALL, max_epochs=5, early_stop_patience=10,
                          prompt=PromptConfig(length=1, form="deep", tuning=strategy))
        pristine = build_model(cfg, build_vocab(corpus, cfg.min_freq))
        before = _encoder_bytes(pristine)
        result = train(cfg, corpus, corpus)
        assert len(result.runlog.step_losses) == 10
        outcomes[strategy] = before == _encoder_bytes(result.model)
    ok = outcomes["fixed-lm"] and not outcomes["lm-plus-prompt"]
    _report(3, "tuning-strategy freezing", ok,
            f"fixed-lm unchanged {outcomes['fixed-lm']}, "
            f"lm-plus-prompt unchanged {outcomes['lm-plus-prompt']}")


def test_criterion_4_loss_algebra():
    corpus = generate_synthetic_corpus(32, seed=4)
    weights = LossWeights(0.4, 0.3, 0.3)
    result = train(TrainConfig(**SMALL, max_epochs=3, loss_weights=weights),
                   corpus, corpus)
    worst = max(abs(total - (0.4 * la + 0.3 * lb + 0.3 * lc))
                for total, la, lb, lc in result.runlog.step_losses)

    single = train(TrainConfig(**SMALL, max_epochs=2,
                               loss_weights=LossWeights(1.0, 0.0, 0.0)),
                   corpus, corpus)
    exact = all(total == la for total, la, _, _ in single.runlog.step_losses)

    try:
        parse_config("loss_weight_main = 0.5\nloss_weight_auxi1 = 0.3\n"
                     "loss_weight_auxi2 = 0.3\n")
        rejected = False
    except ConfigError:
        rejected = True

    ok = worst <= 1e-10 and exact and rejected
    _report(4, "loss algebra", ok,
            f"max recomposition error {worst:.1e}, single-task exact {exact}, "
            f"bad weights rejected {rejected}")


def test_criterion_5_metric_oracle():
    rng = np.random.Generator(np.random.PCG64(99))
    worst = 0.0
    for _ in range(1000):
        c = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 120))
        gold = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        worst = max(worst, abs(macro_f1(confusion_matrix(gold, pred, c))
                               - brute_force_macro_f1(pred.tolist(), gold.tolist(), c)))
    _report(5, "metric oracle", worst <= 1e-12,
            f"max |fast - brute force| = {worst:.1e} over 1000 pairs")


def test_criterion_6_hierarchy_masking():
    # a corpus with no B/C labels at all: auxiliary losses and gradients vanish
    model, batch, _ = build_probe_setup()
    absent = np.full(len(batch), -1, dtype=np.int64)
    with Tape() as tape:
        logits = model.forward(batch)
        loss_b = cross_entropy(logits["b"], absent)
        loss_c = cross_entropy(logits["c"], absent)
        combined = total_loss(cross_entropy(logits["a"], batch.labels["a"]),
                              loss_b, loss_c, LossWeights(0.4, 0.3, 0.3))
    backward(tape, combined)
    zero_losses = loss_b.item() == 0.0 and loss_c.item() == 0.0
    zero_grads = all(
        p.grad is not None and not p.grad.any()
        for task in ("b", "c") for p in head_parameters(model, task).values()
    )

    # removing B/C labels leaves the task-A loss bitwise identical at step 1
    corpus = generate_synthetic_corpus(32, seed=4)
    stripped = [type(e)(e.id, e.text, e.label_a) for e in corpus]
    cfg = TrainConfig(**SMALL, max_epochs=1)
    full_la = train(cfg, corpus, corpus).runlog.step_losses[0][1]
    bare = train(cfg, stripped, stripped)
    bare_la = bare.runlog.step_losses[0][1]
    aux_zero = all(lb == 0.0 and lc == 0.0 for _, _, lb, lc in bare.runlog.step_losses)

    ok = zero_losses and zero_grads and bare_la == full_la and aux_zero
    _report(6, "hierarchy masking", ok,
            f"aux losses zero {zero_losses and aux_zero}, aux grads zero {zero_grads}, "
            f"task-A loss bitwise equal {bare_la == full_la}")


def test_criterion_7_learnability_smoke_test():
    corpus = generate_synthetic_corpus(64, seed=7)
    cfg = TrainConfig(
        learning_rate=1e-3, batch_size=32, max_epochs=200, early_stop_patience=200,
        num_layers=2, hidden_size=32, num_heads=2, ffn_size=64, max_seq_len=32,
        dropout=0.0, rng_seed=1,
        prompt=PromptConfig(length=2, form="deep", init="random",
                            tuning="lm-plus-prompt"),
    )
    started = time.monotonic()
    result = train(cfg, corpus, corpus)
    elapsed = time.monotonic() - started
    ok = result.best_metric >= 0.99 and elapsed < 300.0
    _report(7, "learnability smoke test", ok,
            f"train macro F1 {result.best_metric:.3f} at epoch {result.best_epoch}, "
            f"{elapsed:.1f}s")


def test_criterion_8_early_stopping_and_checkpointing(tmp_path):
    corpus = generate_synthetic_corpus(32, seed=4)
    injected = [0.3, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3]
    cfg = TrainConfig(**SMALL, max_epochs=8, early_stop_patience=4)
    with scripted_dev_metric(injected):
        result = train(cfg, corpus, corpus)
    stop_ok = len(result.runlog.rows) == 6 and result.best_epoch == 2

    out = tmp_path / "run"
    cfg2 = TrainConfig(**SMALL, max_epochs=5, early_stop_patience=4,
                       out_dir=str(out))
    trained = train(cfg2, corpus, corpus)
    blob = (out / "model.ckpt").read_bytes()
    header, arrays = load_checkpoint(out / "model.ckpt")
    roundtrip_ok = checkpoint_bytes(header, arrays) == blob
    best_logged = max(r.f1["a"] for r in trained.runlog.rows)
    persisted = evaluate_checkpoint(out / "model.ckpt", corpus).f1["a"]
    best_ok = persisted == best_logged

    ok = stop_ok and roundtrip_ok and best_ok
    _report(8, "early stopping and checkpointing", ok,
            f"stopped at epoch {len(result.runlog.rows)} with best 2, "
            f"save/load/save identical {roundtrip_ok}, "
            f"persisted dev F1 {persisted:.3f} == best logged {best_logged:.3f}")


def test_criterion_9_determinism():
    corpus = generate_synthetic_corpus(32, seed=4)
    dev = generate_synthetic_corpus(16, seed=5)
    cfg = TrainConfig(**{**SMALL, "dropout": 0.1}, max_epochs=3, rng_seed=13)
    a = train(cfg, corpus, dev)
    b = train(cfg, corpus, dev)
    logs_equal = a.runlog.to_csv() == b.runlog.to_csv()
    blob_a, blob_b = (checkpoint_bytes(r.header_text, r.model.state_arrays()) for r in (a, b))
    ckpt_equal = blob_a == blob_b
    _report(9, "determinism", logs_equal and ckpt_equal,
            f"runlogs identical {logs_equal}, checkpoints identical {ckpt_equal}")


def test_criterion_10_ablation_harness():
    corpus = generate_synthetic_corpus(24, seed=6)
    base = TrainConfig(**SMALL, max_epochs=2,
                       prompt=PromptConfig(length=1, form="deep"))
    first = ablate(base, corpus, corpus)
    second = ablate(base, corpus, corpus)
    six = len(first.rows) == 6
    deterministic = first.to_csv() == second.to_csv()
    by_name = {r.name: r for r in first.rows}
    prompt_off = {"linear-head", "bilstm-head", "bilstm-mtl"}
    zero_prefix = all(by_name[n].prefix_values == 0 for n in prompt_off)
    prompt_on = all(by_name[n].prefix_values > 0
                    for n in ("bilstm-prompt", "linear-mtl-prompt", "full"))
    ok = six and deterministic and zero_prefix and prompt_on
    _report(10, "ablation harness", ok,
            f"variants {len(first.rows)}, deterministic {deterministic}, "
            f"prompt-off prefix values all zero {zero_prefix}")
