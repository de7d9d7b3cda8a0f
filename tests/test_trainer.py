"""Training loop: early stopping, freezing, determinism, evaluation, ablation."""

import hashlib
import importlib
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn import model as model_module, trainer
from dpmn.checkpoint import checkpoint_bytes, load_checkpoint, parse_checkpoint, save_checkpoint
from dpmn.data import (
    ABSENT,
    TASK_CLASSES,
    TASKS,
    Batch,
    build_vocab,
    generate_synthetic_corpus,
    make_batches,
)
from dpmn.encoder import EncoderConfig, TransformerLayer
from dpmn.errors import IntegrityError, NumericError
from dpmn.heads import BiLstmFfnHead
from dpmn.losses import LossWeights, cross_entropy, total_loss
from dpmn.prompt import PromptConfig
from dpmn.runconfig import TrainConfig
from dpmn.tensor import Tape, Tensor, attention, backward, linear
from dpmn.trainer import (
    ABLATION_VARIANTS,
    ablate,
    build_model,
    evaluate_checkpoint,
    evaluate_model,
    load_model,
    train,
)

from conftest import (
    MISMATCHED_RECORDS,
    encoder_parameters,
    head_parameters,
    make_store,
    scripted_dev_metric,
)
from reference_ops import unfused_add_norm, unfused_ffn
from test_metrics import brute_force_macro_f1

TINY = dict(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32, max_seq_len=24,
            dropout=0.0, batch_size=16)


def _cfg(**overrides):
    merged = {**TINY, **overrides}
    return TrainConfig(**merged)


def _checksum(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(32, seed=4)


def test_patience_stops_four_epochs_after_the_peak(corpus):
    # dev metric peaks at epoch 2 then declines: training halts at epoch 6
    injected = [0.3, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3, 0.25, 0.2]
    cfg = _cfg(learning_rate=1e-4, max_epochs=10, early_stop_patience=4, rng_seed=0)
    with scripted_dev_metric(injected):
        result = train(cfg, corpus, corpus)
    assert len(result.runlog.rows) == 6
    assert result.best_epoch == 2
    assert result.best_metric == 0.8


def test_max_epochs_caps_training(corpus):
    rising = [0.1 * e for e in range(1, 10)]
    cfg = _cfg(learning_rate=1e-4, max_epochs=3, early_stop_patience=4)
    with scripted_dev_metric(rising):
        result = train(cfg, corpus, corpus)
    assert len(result.runlog.rows) == 3
    assert result.best_epoch == 3


def test_fixed_lm_keeps_encoder_weights_bitwise_frozen(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=5, min_freq=1,
               prompt=PromptConfig(length=1, form="deep", tuning="fixed-lm"))
    vocab = build_vocab(corpus, 1)
    reference = build_model(cfg, vocab)
    before = _checksum({k: v.data for k, v in encoder_parameters(reference).items()})
    result = train(cfg, corpus, corpus)
    assert len(result.runlog.step_losses) >= 10
    after = _checksum({k: v.data
                       for k, v in encoder_parameters(result.model).items()})
    assert before == after
    # the prompt did move
    bank_before = _checksum({m.name: m.data for m in reference.bank.matrices})
    bank_after = _checksum({m.name: m.data for m in result.model.bank.matrices})
    assert bank_before != bank_after


@pytest.mark.parametrize("tuning", ["fixed-lm", "lm-plus-prompt"])
def test_every_parameter_enters_each_backward_without_a_gradient(corpus, monkeypatch, tuning):
    """Backward reaches the frozen encoder under fixed-lm too: a gradient
    left set from one step would sum into the next, step after step."""
    cfg = _cfg(learning_rate=1e-3, max_epochs=2,
               prompt=PromptConfig(length=1, form="deep", tuning=tuning))
    built, held = [], []

    def build(*args):
        built.append(build_model(*args))
        return built[-1]

    def checked(tape, loss):
        held.append([name for name, p in built[0].parameters().items() if p.grad is not None])
        return backward(tape, loss)

    monkeypatch.setattr(trainer, "build_model", build)
    monkeypatch.setattr(trainer, "backward", checked)
    result = train(cfg, corpus, corpus)
    assert len(held) == len(result.runlog.step_losses) >= 2
    assert held == [[]] * len(held)


def test_lm_plus_prompt_updates_encoder_weights(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=5,
               prompt=PromptConfig(length=1, form="deep", tuning="lm-plus-prompt"))
    vocab = build_vocab(corpus, 1)
    before = _checksum({k: v.data
                        for k, v in encoder_parameters(build_model(cfg, vocab)).items()})
    result = train(cfg, corpus, corpus)
    after = _checksum({k: v.data
                       for k, v in encoder_parameters(result.model).items()})
    assert before != after


def test_two_runs_are_bitwise_identical(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=4, dropout=0.1, rng_seed=7)
    a = train(cfg, corpus, corpus)
    b = train(cfg, corpus, corpus)
    assert a.runlog.to_csv() == b.runlog.to_csv()
    assert (checkpoint_bytes(a.header_text, a.model.state_arrays())
            == checkpoint_bytes(b.header_text, b.model.state_arrays()))


def _reference_layer_forward(self, x, attn_bias, rng=None, queries=None):
    """TransformerLayer.forward with the unfused residual, dropout, layer
    norm and ReLU; each dropout mask is drawn from `rng` at the layer's
    rate, as unfused dropout drew it, and none without a generator or at
    rate 0."""
    def keep(y):
        return None if rng is None or self.dropout == 0.0 else rng.random(y.shape) >= self.dropout

    context = attention(linear(x, self.wq, self.bqkv), attn_bias, self.num_heads, queries)
    if queries is not None:
        x = x[:, :queries]
    y = linear(context, self.wo, self.bo)
    x = unfused_add_norm(x, y, self.attn_gain, self.attn_bias, self.dropout, keep(y))
    y = unfused_ffn(x, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2)
    return unfused_add_norm(x, y, self.ffn_gain, self.ffn_bias, self.dropout, keep(y))


@pytest.mark.parametrize("queries", [None, 1])
@pytest.mark.parametrize("rate, seeded", [(0.3, True), (0.3, False), (0.0, True)])
def test_layer_forward_draws_its_masks_as_the_unfused_reference(rate, seeded, queries):
    """A layer's forward gives the unfused reference's value, bit for bit,
    and leaves the generator where the reference leaves it: two masks drawn
    at rate 0.3, and nothing drawn at rate 0 or without a generator."""
    cfg = EncoderConfig(vocab_size=5, num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                        max_seq_len=8, dropout=rate)
    layer = TransformerLayer(0, cfg, make_store(0))
    x = Tensor(np.random.Generator(np.random.PCG64(1)).normal(size=(2, 5, 8)))
    bias = np.where(np.arange(5) < np.array([[5], [3]]), 0.0, -1e9)[:, None, None, :]
    results = []
    for forward in (TransformerLayer.forward, _reference_layer_forward):
        gen = np.random.Generator(np.random.PCG64(2)) if seeded else None
        out = forward(layer, x, bias, gen, queries).data
        results.append((out, gen and gen.bit_generator.state))
    (got, got_state), (want, want_state) = results
    assert np.array_equal(got, want)
    assert got_state == want_state
    if seeded:
        fresh = np.random.Generator(np.random.PCG64(2)).bit_generator.state
        assert (got_state == fresh) == (rate == 0.0)


def _reference_head_ffn(self, states):
    return unfused_ffn(states, self.w_f1, self.b_f1, self.w_f2, self.b_f2)


@pytest.mark.parametrize("head_kind", ["linear", "bilstm-ffn"])
def test_fused_sublayers_write_the_unfused_runs_bytes(corpus, tmp_path, monkeypatch, head_kind):
    """With dropout on, the fused add_norm and ffn train to the same
    runlog.csv and model.ckpt bytes as the unfused composition."""
    def run(name):
        cfg = _cfg(learning_rate=1e-3, max_epochs=2, dropout=0.1, rng_seed=5,
                   head_kind=head_kind, out_dir=str(tmp_path / name))
        train(cfg, corpus, corpus)
        return [(tmp_path / name / f).read_bytes()
                for f in (trainer.RUNLOG_NAME, trainer.CHECKPOINT_NAME)]

    fused = run("fused")
    calls = []
    for cls, attr, reference in ((TransformerLayer, "forward", _reference_layer_forward),
                                 (BiLstmFfnHead, "ffn", _reference_head_ffn)):
        def spy(*args, reference=reference, attr=attr):
            calls.append(attr)
            return reference(*args)
        monkeypatch.setattr(cls, attr, spy)
    assert run("unfused") == fused
    assert "forward" in calls and ("ffn" in calls) == (head_kind == "bilstm-ffn")


def test_linear_head_run_matches_the_unpruned_encoders(corpus, monkeypatch):
    """At dropout 0, four epochs with the last layer cut to the first
    position track the same run through the unpruned encoder to rounding."""
    cfg = _cfg(learning_rate=1e-3, max_epochs=4, head_kind="linear", rng_seed=3)
    pruned = train(cfg, corpus, corpus)
    original = model_module.encode
    monkeypatch.setattr(model_module, "encode",
                        lambda stack, emb, bank, lengths, rng=None, queries=None:
                        original(stack, emb, bank, lengths, rng, None))
    full = train(cfg, corpus, corpus)
    assert len(pruned.runlog.step_losses) == len(full.runlog.step_losses) > 4
    for got, want in zip(pruned.runlog.step_losses, full.runlog.step_losses):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert [r.f1 for r in pruned.runlog.rows] == [r.f1 for r in full.runlog.rows]
    (_, arrays), (_, full_arrays) = (
        parse_checkpoint(checkpoint_bytes(r.header_text, r.model.state_arrays()))
        for r in (pruned, full))
    assert arrays.keys() == full_arrays.keys()
    for name, values in arrays.items():
        np.testing.assert_allclose(values, full_arrays[name], rtol=0, atol=1e-9, err_msg=name)


def test_different_seed_changes_the_run(corpus):
    a = train(_cfg(learning_rate=1e-3, max_epochs=2, rng_seed=1), corpus, corpus)
    b = train(_cfg(learning_rate=1e-3, max_epochs=2, rng_seed=2), corpus, corpus)
    assert (checkpoint_bytes(a.header_text, a.model.state_arrays())
            != checkpoint_bytes(b.header_text, b.model.state_arrays()))


def test_logged_total_loss_decomposes_exactly(corpus):
    weights = LossWeights(0.4, 0.3, 0.3)
    cfg = _cfg(learning_rate=1e-3, max_epochs=3, loss_weights=weights)
    result = train(cfg, corpus, corpus)
    for total, la, lb, lc in result.runlog.step_losses:
        recomposed = 0.4 * la + 0.3 * lb + 0.3 * lc
        assert abs(total - recomposed) <= 1e-10


def test_single_task_weights_log_task_a_loss_exactly(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=2, loss_weights=LossWeights(1.0, 0.0, 0.0))
    result = train(cfg, corpus, corpus)
    for total, la, _, _ in result.runlog.step_losses:
        assert total == la


def test_absent_auxiliary_labels_keep_task_a_loss_bitwise(corpus):
    """Stripping B/C labels zeroes those losses and leaves task A untouched.

    Only the first step compares across corpora: from step 2 on, the
    full-corpus run's shared weights have moved under auxiliary gradients.
    """
    stripped = [type(e)(e.id, e.text, e.label_a) for e in corpus]
    cfg = _cfg(learning_rate=1e-3, max_epochs=2)
    full = train(cfg, corpus, corpus)
    bare = train(cfg, stripped, stripped)
    assert bare.runlog.step_losses[0][1] == full.runlog.step_losses[0][1]
    for total, la, lb, lc in bare.runlog.step_losses:
        assert lb == 0.0 and lc == 0.0
        assert total == 0.4 * la


def test_runlog_csv_shape(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=3)
    result = train(cfg, corpus, corpus)
    csv = result.runlog.to_csv()
    assert "np.float" not in csv  # plain decimal floats only
    lines = csv.splitlines()
    assert lines[0] == ("epoch,train_loss_total,train_loss_a,train_loss_b,train_loss_c,"
                        "dev_macro_f1_a,dev_macro_f1_b,dev_macro_f1_c,best")
    assert len(lines) == 1 + len(result.runlog.rows)
    assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1  # one best marker
    epochs = [int(line.split(",")[0]) for line in lines[1:]]
    assert epochs == sorted(epochs)


def test_artifacts_written_and_evaluate_matches_logged_best(tmp_path, corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=4, out_dir=str(tmp_path / "run"))
    result = train(cfg, corpus, corpus)
    assert result.checkpoint_path is not None
    report = evaluate_checkpoint(result.checkpoint_path, corpus)
    assert report.f1["a"] == result.best_metric
    best_row = result.runlog.rows[result.best_epoch - 1]
    assert best_row.f1["a"] == result.best_metric
    runlog_file = (tmp_path / "run" / "runlog.csv").read_text()
    assert runlog_file == result.runlog.to_csv()


def test_out_dir_naming_a_file_fails_before_the_first_epoch(tmp_path, corpus):
    taken = tmp_path / "taken"
    taken.write_text("")
    logged = []
    with pytest.raises(FileExistsError):
        train(_cfg(max_epochs=2, out_dir=str(taken)), corpus, corpus, log=logged.append)
    assert logged == []


def test_checkpoint_file_save_load_save_identical(tmp_path, corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=2, out_dir=str(tmp_path / "run"))
    result = train(cfg, corpus, corpus)
    blob = (tmp_path / "run" / "model.ckpt").read_bytes()
    header, arrays = load_checkpoint(result.checkpoint_path)
    assert checkpoint_bytes(header, arrays) == blob


def test_a_trained_model_and_its_checkpoint_records_are_float64(tmp_path, corpus):
    """Complex data lives only inside the gradient check: training leaves
    every parameter float64, and every record it saves loads as float64."""
    cfg = _cfg(learning_rate=1e-3, max_epochs=2, out_dir=str(tmp_path / "run"))
    result = train(cfg, corpus, corpus)
    params = result.model.parameters()
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}
    _, arrays = load_checkpoint(result.checkpoint_path)
    assert arrays.keys() == params.keys()
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}


def test_loaded_model_reproduces_predictions(tmp_path, corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=2, out_dir=str(tmp_path / "run"))
    result = train(cfg, corpus, corpus)
    model, loaded_cfg, vocab = load_model(result.checkpoint_path)
    cap = loaded_cfg.max_seq_len - model.bank.prompt_len
    batches = make_batches(corpus, vocab, loaded_cfg.batch_size, cap)
    direct = evaluate_model(result.model, batches)
    loaded = evaluate_model(model, batches)
    for task in ("a", "b", "c"):
        assert direct.f1[task] == loaded.f1[task]
        assert np.array_equal(direct.confusion[task], loaded.confusion[task])


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("saved")
    return train(_cfg(max_epochs=1, out_dir=str(out)), corpus, corpus).checkpoint_path


def test_loading_a_checkpoint_draws_from_no_generator(saved_checkpoint, monkeypatch):
    _, arrays = load_checkpoint(saved_checkpoint)

    class NoDraws:
        def __init__(self, *args, **kwargs):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"the load path used a generator's {name}")

    monkeypatch.setattr(np.random, "Generator", NoDraws)
    model, _, _ = load_model(saved_checkpoint)
    assert list(model.parameters()) == list(arrays)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, arrays[name])


@pytest.mark.parametrize("kind", sorted(MISMATCHED_RECORDS))
def test_records_that_do_not_fit_the_header_model_are_integrity_errors(saved_checkpoint,
                                                                       tmp_path, kind):
    header, arrays = load_checkpoint(saved_checkpoint)
    arrays, name = MISMATCHED_RECORDS[kind](arrays)
    path = tmp_path / "mismatched.ckpt"
    save_checkpoint(path, header, arrays)
    with pytest.raises(IntegrityError, match=re.escape(repr(name))):
        load_model(path)


def test_constant_predictor_scores_one_third_on_balanced_data():
    corpus = generate_synthetic_corpus(40, seed=11)
    balanced = ([e for e in corpus if e.label_a == "NOT"][:10]
                + [e for e in corpus if e.label_a == "OFF"][:10])
    cfg = _cfg(max_epochs=1)
    vocab = build_vocab(balanced, 1)
    model = build_model(cfg, vocab)
    head = model.heads["a"]
    for p in head_parameters(model, "a").values():
        p.data[:] = 0.0
    head.b_f2.data[:] = np.array([10.0, 0.0])  # always predict class 0 (NOT)
    batches = make_batches(balanced, vocab, 8, cfg.max_seq_len - 1)
    report = evaluate_model(model, batches)
    assert report.f1["a"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_evaluation_excludes_hierarchy_masked_examples(corpus):
    cfg = _cfg(learning_rate=1e-3, max_epochs=1)
    result = train(cfg, corpus, corpus)
    vocab = result.vocab
    batches = make_batches(corpus, vocab, cfg.batch_size,
                           cfg.max_seq_len - result.model.bank.prompt_len)
    report = evaluate_model(result.model, batches)
    n_off = sum(1 for e in corpus if e.label_a == "OFF")
    n_tin = sum(1 for e in corpus if e.label_b == "TIN")
    assert report.counts["a"] == len(corpus)
    assert report.counts["b"] == n_off
    assert report.counts["c"] == n_tin


class _DrawnLogits:
    """A model stub whose forward pass returns fixed logits per example; a
    batch's token ids are the indices of its examples."""

    def __init__(self, logits):
        self.logits = logits

    def forward(self, batch):
        return {task: Tensor(rows[batch.token_ids[:, 0]]) for task, rows in self.logits.items()}


def _batches_of(labels, order, cuts):
    return [Batch(order[part, None], np.ones(len(part), dtype=np.int64),
                  {task: column[order[part]] for task, column in labels.items()})
            for part in np.split(np.arange(len(order)), cuts)]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_evaluation_counts_each_present_row_once_however_examples_are_batched(data):
    n = data.draw(st.integers(1, 30))
    labels, logits = {}, {}
    for task, c in TASK_CLASSES.items():
        label = st.just(ABSENT) if data.draw(st.booleans()) else st.integers(ABSENT, c - 1)
        labels[task] = np.array(data.draw(st.lists(label, min_size=n, max_size=n)), dtype=np.int64)
        logits[task] = np.array(data.draw(st.lists(  # small integers: ties are frequent
            st.lists(st.integers(-2, 2), min_size=c, max_size=c), min_size=n, max_size=n)),
            dtype=np.float64)
    model = _DrawnLogits(logits)

    def evaluate(order):
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        return evaluate_model(model, _batches_of(labels, np.array(order), cuts))

    report = evaluate(range(n))
    for task, c in TASK_CLASSES.items():
        counted = np.zeros((c, c), dtype=np.int64)
        gold, predicted = [], []
        for label, row in zip(labels[task].tolist(), logits[task].tolist()):
            if label != ABSENT:
                choice = row.index(max(row))  # the first of tied maxima, as argmax picks
                counted[label, choice] += 1
                gold.append(label)
                predicted.append(choice)
        assert np.array_equal(report.confusion[task], counted), task
        assert abs(report.f1[task] - brute_force_macro_f1(predicted, gold, c)) <= 1e-12, task
        if not gold:
            assert report.f1[task] == 0.0
    rebatched = evaluate(data.draw(st.permutations(range(n))))
    for task in TASKS:
        assert np.array_equal(rebatched.confusion[task], report.confusion[task]), task
        assert rebatched.f1[task].hex() == report.f1[task].hex(), task


def test_non_finite_loss_aborts_with_step_number(corpus):
    cfg = _cfg(learning_rate=1e300, max_epochs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError, match="^non-finite loss at training step 2$"):
            train(cfg, corpus, corpus)


def test_non_finite_gradient_aborts_before_the_update(corpus, monkeypatch):
    """An inf in one gradient at step 2 is caught before optimizer.step()."""
    params, steps = {}, []
    adam, backward = trainer.Adam, trainer.backward

    def capture(trainable, lr):
        params.update(trainable)
        return adam(trainable, lr)

    def poisoned(tape, loss):
        backward(tape, loss)
        steps.append(len(steps) + 1)
        if steps[-1] == 2:
            params["head_b.ffn.b1"].grad[3] = np.inf

    monkeypatch.setattr(trainer, "Adam", capture)
    monkeypatch.setattr(trainer, "backward", poisoned)
    with pytest.raises(NumericError, match=r"gradient of head_b\.ffn\.b1 at training step 2$"):
        train(_cfg(learning_rate=1e-3, max_epochs=2), corpus, corpus)
    assert all(np.isfinite(p.data).all() for p in params.values())


@pytest.mark.parametrize("metrics,epoch", [([float("nan")], 1), ([0.5, float("nan")], 2)])
def test_non_finite_dev_metric_aborts_with_epoch(corpus, metrics, epoch):
    cfg = _cfg(learning_rate=1e-3, max_epochs=len(metrics), early_stop_patience=10)
    with scripted_dev_metric(metrics), pytest.raises(NumericError, match=f"epoch {epoch}"):
        train(cfg, corpus, corpus)


def test_ablation_runs_all_six_variants(corpus):
    base = _cfg(learning_rate=1e-3, max_epochs=2,
                prompt=PromptConfig(length=1, form="deep"))
    result = ablate(base, corpus, corpus)
    assert [r.name for r in result.rows] == [v[0] for v in ABLATION_VARIANTS]
    by_name = {r.name: r for r in result.rows}
    assert by_name["linear-head"].prefix_values == 0
    assert by_name["bilstm-mtl"].prefix_values == 0
    assert by_name["full"].prefix_values > 0
    table = result.to_markdown()
    assert table.count("\n") == 2 + 6
    csv = result.to_csv()
    assert len(csv.splitlines()) == 7


def test_ablation_is_deterministic(corpus):
    base = _cfg(learning_rate=1e-3, max_epochs=2)
    a = ablate(base, corpus, corpus)
    b = ablate(base, corpus, corpus)
    assert a.to_csv() == b.to_csv()


def test_full_variant_not_worse_than_linear_baseline():
    # hierarchy-informative corpus; direction only, ties allowed
    corpus = generate_synthetic_corpus(48, seed=21)
    base = _cfg(learning_rate=1e-3, max_epochs=8, rng_seed=3,
                prompt=PromptConfig(length=1, form="deep"))
    result = ablate(base, corpus, corpus)
    by_name = {r.name: r for r in result.rows}
    assert by_name["full"].dev_f1_a >= by_name["linear-head"].dev_f1_a


PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_a_training_step_holds_little_once_backward_returns(monkeypatch):
    """One step of the benchmark's README-default encoder (L=4, d=64, dropout
    on, linear heads) on a batch of 32 tweet-length texts: once backward
    returns, with the tape, the loss and the logits still referenced, what
    the step still holds (the leaf gradients) is under a tenth of what its
    forward pass held."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    workload = importlib.import_module("workloads").WORKLOADS["linear-l4d64-t30"]
    cfg = workload.config(1, None)
    examples = workload.corpora(1)["train"][:cfg.batch_size]
    vocab = build_vocab(examples, cfg.min_freq)
    model = build_model(cfg, vocab)
    (batch,) = make_batches(examples, vocab, cfg.batch_size, model.text_budget)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            logits = model.forward(batch, np.random.Generator(np.random.PCG64(0)))
            loss = total_loss(*(cross_entropy(logits[t], batch.labels[t]) for t in TASKS),
                              cfg.loss_weights)
        forward = tracemalloc.get_traced_memory()[0] - base
        backward(tape, loss)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < forward / 10, (held, forward)
