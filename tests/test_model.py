"""Composition of encoder, prompt bank, and heads into the full network."""

import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from dpmn import gradcheck, losses, model as model_module, tensor
from dpmn.data import TASKS, Batch
from dpmn.encoder import EncoderConfig
from dpmn.errors import ConfigError
from dpmn.gradcheck import (
    NETWORK_TOLERANCE,
    build_probe_setup,
    check_all_ops,
    check_network,
)
from dpmn.heads import LinearHead
from dpmn.losses import LossWeights, cross_entropy, total_loss
from dpmn.model import DpmnModel
from dpmn.prompt import PromptConfig
from dpmn.tensor import Tape, Tensor, _record, backward

from conftest import encoder_parameters, head_parameters, max_rel_error, numeric_gradient


def _tiny_model(head_kind="bilstm-ffn", p_n=1, form="deep", seed=0, arrays=None):
    enc = EncoderConfig(vocab_size=12, num_layers=2, hidden_size=8, num_heads=2,
                        ffn_size=16, max_seq_len=12, dropout=0.0)
    return DpmnModel(enc, PromptConfig(length=p_n, form=form),
                     head_kind=head_kind, rng_seed=seed, arrays=arrays)


def test_forward_emits_task_shaped_logits():
    model, batch, _ = build_probe_setup()
    logits = model.forward(batch)
    n = len(batch)
    assert logits["a"].shape == (n, 2)
    assert logits["b"].shape == (n, 2)
    assert logits["c"].shape == (n, 3)


def test_forward_is_deterministic_without_dropout():
    model, batch, _ = build_probe_setup()
    a = model.forward(batch)
    b = model.forward(batch)
    for task in ("a", "b", "c"):
        assert np.array_equal(a[task].data, b[task].data)


def test_full_network_gradients_match_finite_differences_two_examples():
    """Composite check on a 2-example batch: exhaustive over the prompt and
    one FFN tensor, sampled everywhere else via the probe harness."""
    model, batch, compute_loss = build_probe_setup()
    with Tape() as tape:
        loss = compute_loss()
    backward(tape, loss)

    def value():
        return compute_loss().item()

    for target in [*model.bank.matrices, model.heads["a"].w_f2]:
        assert max_rel_error(target.grad, numeric_gradient(value, target.data)) < 1e-4

    worst = check_network(n_probes=140, seed=3)
    assert max(worst.values()) < NETWORK_TOLERANCE


def _ffn_passing_every_gradient(x, w1, b1, w2, b2):
    """The head FFN's forward with a wrong backward: it ignores the ReLU mask."""
    hid = np.maximum(x.data @ w1.data + b1.data, 0.0)
    out = Tensor(hid @ w2.data + b2.data)

    def bw(g):
        d_hid = g @ w2.data.T
        return d_hid @ w1.data.T, x.data.T @ d_hid, d_hid.sum(axis=0), hid.T @ g, g.sum(axis=0)

    _record(out, (x, w1, b1, w2, b2), bw)
    return out


def test_wrong_backward_still_fails_where_a_kink_is_reprobed(monkeypatch):
    """Seed 8 probes head_b.ffn.b1[5], whose ReLU pre-activation lies
    within 1e-5 of its kink: a wrong head backward must still fail there."""
    monkeypatch.setattr("dpmn.heads.ffn", _ffn_passing_every_gradient)
    worst = check_network(n_probes=200, seed=8)
    assert worst["head_b"] >= NETWORK_TOLERANCE


def test_op_level_gradcheck_passes_packaged_harness():
    errors = check_all_ops(seed=1)
    assert max(errors.values()) < 1e-6


def test_op_catalog_covers_exactly_the_ops_of_the_tensor_module():
    """Every differentiable primitive, of the tensor module and of the loss
    module, has a catalog entry of its own name, and every entry is named
    after one, exactly or as `<op>_<variant>`."""
    ops = {name.rstrip("_") for module in (tensor, losses)
           for name, fn in inspect.getmembers(module, inspect.isfunction)
           if fn.__module__ == module.__name__ and not name.startswith("_")
           and name not in ("backward", "saved_array")}
    names = [entry[0] for entry in gradcheck.OP_CATALOG]
    assert ops <= set(names), ops - set(names)
    for name in names:
        assert any(name == op or name.startswith(op + "_") for op in ops), name


def test_op_errors_do_not_depend_on_the_rest_of_the_catalog(monkeypatch):
    """Each catalog entry draws from its own generator: dropping one entry and
    reshaping another leaves every other entry's error bitwise unchanged."""
    full = check_all_ops(seed=3)
    wider = (lambda rng: rng.uniform(-1.0, 1.0, size=(5, 4)),
             lambda rng: rng.uniform(-1.0, 1.0, size=(4, 2)))
    catalog = [entry if entry[0] != "linear_2d" else ("linear_2d", wider, *entry[2:])
               for entry in gradcheck.OP_CATALOG if entry[0] != "add"]
    monkeypatch.setattr(gradcheck, "OP_CATALOG", tuple(catalog))
    changed = check_all_ops(seed=3)
    assert "add" not in changed and changed["linear_2d"] != full["linear_2d"]
    for name, err in changed.items():
        if name != "linear_2d":
            assert err == full[name], name


def test_gradients_isolated_per_task_head():
    model, batch, _ = build_probe_setup()
    with Tape() as tape:
        logits = model.forward(batch)
        loss = cross_entropy(logits["a"], batch.labels["a"])
    backward(tape, loss)
    for name, p in head_parameters(model, "a").items():
        assert p.grad is not None, name
    # heads b and c are off the task-A path: their FFNs get no gradient, and
    # their Bi-LSTM directions, which run in head a's lstm_scan, an exact zero
    for task in ("b", "c"):
        for name, p in head_parameters(model, task).items():
            if ".lstm_" in name:
                assert np.array_equal(p.grad, np.zeros(p.shape)), name
            else:
                assert p.grad is None, name
    # shared parameters receive gradient from the task-A loss
    assert model.encoder.token_emb.grad is not None
    for m in model.bank.matrices:
        assert m.grad is not None


def test_trainable_parameters_strategies_include_heads():
    model = _tiny_model()
    head_names = set()
    for task in ("a", "b", "c"):
        head_names |= set(head_parameters(model, task))
    fixed = model.trainable_parameters("fixed-lm")
    assert head_names <= set(fixed)
    assert not any(k.startswith("layer") or k.startswith("embedding") for k in fixed)
    full = model.trainable_parameters("lm-plus-prompt")
    assert set(encoder_parameters(model)) <= set(full)


def test_trainable_parameters_by_strategy():
    model = _tiny_model(p_n=2)
    encoder = encoder_parameters(model)
    prompt = {m.name for m in model.bank.matrices}
    fixed = model.trainable_parameters("fixed-lm")
    assert prompt <= set(fixed)
    assert set(fixed) == set(model.parameters()) - set(encoder)
    full = model.trainable_parameters("lm-plus-prompt")
    assert list(full) == list(model.parameters())
    prompt_values = sum(full[k].size for k in prompt)
    assert prompt_values == model.encoder.config.num_layers * 2 * model.encoder.config.hidden_size
    with pytest.raises(ConfigError):
        model.trainable_parameters("frozen")


def test_load_state_checks_names_and_shapes():
    model = _tiny_model(seed=0)
    other = _tiny_model(seed=9)
    model.load_state(other.state_arrays())
    assert np.array_equal(model.encoder.token_emb.data, other.encoder.token_emb.data)
    with pytest.raises(ConfigError):
        model.load_state({**other.state_arrays(), "nope": np.zeros(3)})
    missing = other.state_arrays()
    del missing["embedding.token"]
    with pytest.raises(ConfigError):
        model.load_state(missing)
    with pytest.raises(ConfigError, match="shape"):
        model.load_state({**other.state_arrays(), "embedding.token": np.zeros((2, 2))})


def test_initial_weights_are_the_pinned_draws():
    """Every weight is drawn in the same order from the same generators as
    when this digest was taken."""
    digest = hashlib.sha256()
    for head_kind in ("bilstm-ffn", "linear"):
        for name, p in _tiny_model(head_kind).parameters().items():
            digest.update(name.encode())
            digest.update(p.data.astype("<f8").tobytes())
    assert digest.hexdigest()[:16] == "cf4684f8eedb6f74"


def test_model_built_on_arrays_adopts_them_and_checks_names_and_shapes():
    saved = _tiny_model(seed=9).state_arrays()
    model = _tiny_model(seed=0, arrays=saved)
    assert list(model.parameters()) == list(saved)
    assert all(p.data is saved[name] for name, p in model.parameters().items())
    missing = dict(saved)
    del missing["prompt.layer1"]
    for arrays, error in ((missing, "missing 'prompt.layer1'"),
                          ({**saved, "nope": np.zeros(3)}, r"unknown \['nope'\]"),
                          ({**saved, "head_c.ffn.b2": np.zeros(2)}, "shape mismatch for 'head_c")):
        with pytest.raises(ConfigError, match=error):
            _tiny_model(seed=0, arrays=arrays)


def test_state_round_trip():
    model = _tiny_model(seed=0)
    other = _tiny_model(seed=5)
    other.load_state(model.state_arrays())
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, other.parameters()[name].data)
    with pytest.raises(ConfigError):
        other.load_state({"bogus": np.zeros(1)})


def test_parameter_names_unique_and_stable():
    a = _tiny_model(seed=0)
    b = _tiny_model(seed=9)
    assert list(a.parameters()) == list(b.parameters())
    names = list(a.parameters())
    assert len(names) == len(set(names))


def test_prompt_positions_feed_the_heads():
    """Heads consume prompt slots too: lengths include p_n, and changing a
    prefix matrix changes the logits."""
    model, batch, _ = build_probe_setup()
    base = model.forward(batch)["a"].data.copy()
    model.bank.matrices[-1].data += 0.5
    assert not np.allclose(model.forward(batch)["a"].data, base)


def _encode_spy(monkeypatch, calls, force_all=False):
    """Record (queries, tape entries) of each encode call; with force_all,
    run the unpruned encoder whatever the model asks for."""
    original = model_module.encode

    def spy(stack, emb, bank, lengths, rng=None, queries=None):
        before = len(tensor._active_tape)
        out = original(stack, emb, bank, lengths, rng, None if force_all else queries)
        calls.append((queries, len(tensor._active_tape) - before))
        return out

    monkeypatch.setattr(model_module, "encode", spy)


def _one_step(model):
    """Logits and parameter gradients of one loss over a padded batch that
    has every task's labels."""
    batch = Batch(token_ids=np.array([[2, 5, 7, 3], [2, 9, 0, 0], [2, 4, 6, 0]]),
                  lengths=np.array([4, 2, 3]),
                  labels={"a": np.array([1, 0, 1]), "b": np.array([0, -1, 1]),
                          "c": np.array([2, -1, -1])})
    with Tape() as tape:
        logits = model.forward(batch)
        loss = total_loss(*(cross_entropy(logits[t], batch.labels[t]) for t in TASKS),
                          LossWeights(0.4, 0.3, 0.3))
    backward(tape, loss)
    grads = {name: p.grad for name, p in model.parameters().items()}
    return {task: v.data for task, v in logits.items()}, grads


@pytest.mark.parametrize("p_n,form", [(0, "light"), (1, "light"), (2, "light"), (1, "deep"),
                                      (2, "deep")])
def test_linear_heads_run_the_last_layer_for_the_first_position_only(monkeypatch, p_n, form):
    """At dropout 0 the pruned encoder gives the unpruned logits and
    parameter gradients within 1e-12 relative, for one more tape entry:
    the last layer's residual slice."""
    runs, calls = [], []
    for force_all in (False, True):
        with monkeypatch.context() as patch:
            _encode_spy(patch, calls, force_all)
            runs.append(_one_step(_tiny_model("linear", p_n, form)))
    (logits, grads), (full_logits, full_grads) = runs
    matrices = {"light": 1, "deep": 2}[form] if p_n else 0
    assert calls == [(1, 6 * 2 + matrices + 1), (1, 6 * 2 + matrices)]
    for task in TASKS:
        assert max_rel_error(logits[task], full_logits[task], floor=1e-300) <= 1e-12
    assert grads.keys() == full_grads.keys()
    for name, g in grads.items():
        assert (g is None) == (full_grads[name] is None), name
        if g is not None:
            scale = max(np.abs(full_grads[name]).max(), 1e-300)
            assert np.abs(g - full_grads[name]).max() / scale <= 1e-12, name


def test_bilstm_heads_run_every_position_of_the_last_layer(monkeypatch):
    """A head that reads every position leaves the encoder unpruned: six
    tape entries per layer and one per prefix matrix, no slice."""
    calls = []
    _encode_spy(monkeypatch, calls)
    _one_step(_tiny_model("bilstm-ffn", p_n=2, form="deep"))
    assert calls == [(None, 6 * 2 + 2)]


def test_network_gradients_of_linear_heads_pass(monkeypatch):
    """The composed network with linear heads, whose last encoder layer
    computes only the first position, passes the network gradient check."""
    monkeypatch.setattr(gradcheck, "TINY_CONFIG",
                        replace(gradcheck.TINY_CONFIG, head_kind="linear"))
    assert isinstance(build_probe_setup()[0].heads["a"], LinearHead)
    errors = check_network(60)
    assert {"embedding", "layer0", "layer1", "prompt", "head_a"} <= errors.keys()
    assert all(err < NETWORK_TOLERANCE for err in errors.values()), errors


def test_probe_network_is_built_from_the_whole_tiny_config(monkeypatch):
    """The probe network takes TINY_CONFIG's head sizes and token init."""
    monkeypatch.setattr(gradcheck, "TINY_CONFIG", replace(
        gradcheck.TINY_CONFIG, lstm_hidden=3, head_ffn_size=5,
        prompt=PromptConfig(length=2, form="deep", init="token")))
    model = build_probe_setup()[0]
    params = model.parameters()
    assert params["head_a.lstm_forward.w_h"].shape == (3, 12)
    assert params["head_a.ffn.w1"].shape == (6, 5)
    rows = model.encoder.token_emb.data[3:5]
    assert len(model.bank.matrices) == 2
    assert all(np.array_equal(m.data, rows) for m in model.bank.matrices)
