"""Composition of encoder, prompt bank, and heads into the full network."""

import numpy as np
import pytest

from dpmn import gradcheck
from dpmn.encoder import EncoderConfig
from dpmn.errors import ConfigError
from dpmn.gradcheck import (
    NETWORK_TOLERANCE,
    build_probe_setup,
    check_all_ops,
    check_network,
)
from dpmn.losses import cross_entropy
from dpmn.model import DpmnModel
from dpmn.prompt import PromptConfig
from dpmn.tensor import Tape, Tensor, _record, backward

from conftest import encoder_parameters, head_parameters, max_rel_error, numeric_gradient


def _tiny_model(head_kind="bilstm-ffn", p_n=1, form="deep", seed=0):
    enc = EncoderConfig(vocab_size=12, num_layers=2, hidden_size=8, num_heads=2,
                        ffn_size=16, max_seq_len=12, dropout=0.0)
    return DpmnModel(enc, PromptConfig(length=p_n, form=form),
                     head_kind=head_kind, rng_seed=seed)


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


def test_kink_reprobe_leaves_clean_probes_alone():
    reprobes = []
    check_network(n_probes=200, seed=0, reprobes=reprobes)
    assert reprobes == []


def _relu_passing_every_gradient(a):
    """ReLU forward with a wrong backward: it ignores the mask."""
    out = Tensor(np.maximum(a.data, 0.0))
    _record(out, (a,), lambda g: (g,))
    return out


def test_wrong_backward_still_fails_where_a_kink_is_reprobed(monkeypatch):
    """Seed 8 is a seed whose probe straddles a ReLU kink in head_b: the
    re-probe must not let a wrong head backward pass."""
    monkeypatch.setattr("dpmn.heads.relu", _relu_passing_every_gradient)
    worst = check_network(n_probes=200, seed=8, reprobes=[])
    assert worst["head_b"] >= NETWORK_TOLERANCE


def test_op_level_gradcheck_passes_packaged_harness():
    errors = check_all_ops(seed=1)
    assert max(errors.values()) < 1e-6


def test_op_errors_do_not_depend_on_the_rest_of_the_catalog(monkeypatch):
    """Each catalog entry draws from its own generator: dropping one entry and
    reshaping another leaves every other entry's error bitwise unchanged."""
    full = check_all_ops(seed=3)
    wider = (lambda rng: rng.uniform(-1.0, 1.0, size=(3, 5)),
             lambda rng: rng.uniform(-1.0, 1.0, size=(3, 1)))
    catalog = [entry if entry[0] != "mul" else ("mul", wider, entry[2])
               for entry in gradcheck.OP_CATALOG if entry[0] != "add"]
    monkeypatch.setattr(gradcheck, "OP_CATALOG", tuple(catalog))
    changed = check_all_ops(seed=3)
    assert "add" not in changed and changed["mul"] != full["mul"]
    for name, err in changed.items():
        if name != "mul":
            assert err == full[name], name


def test_gradients_isolated_per_task_head():
    model, batch, _ = build_probe_setup()
    with Tape() as tape:
        logits = model.forward(batch)
        loss = cross_entropy(logits["a"], batch.labels["a"])
    backward(tape, loss)
    for name, p in head_parameters(model, "a").items():
        assert p.grad is not None, name
    for task in ("b", "c"):
        for p in head_parameters(model, task).values():
            assert p.grad is None
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
