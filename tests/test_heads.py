"""Bi-LSTM + FFN head and the linear ablation head."""

import numpy as np
import pytest

from dpmn.errors import ConfigError, ContractError
from dpmn.heads import BiLstmFfnHead, LinearHead, make_head
from dpmn.model import head_forward
from dpmn.tensor import Tape, Tensor, backward

from conftest import make_store, max_rel_error, numeric_gradient

D, H, F = 6, 4, 5


def _head(n_classes=2, seed=0):
    return BiLstmFfnHead(D, H, F, n_classes, make_store(seed), "head_t")


def test_single_step_concatenates_both_directions(rng):
    head = _head()
    shared = Tensor(rng.normal(size=(2, 1, D)))
    states = head.bilstm(shared, np.array([1, 1]))
    assert states.shape == (2, 2 * H)
    # with one timestep the two directions see the same input
    fw, bw = states.data[:, :H], states.data[:, H:]
    assert np.abs(fw).max() > 0 and np.abs(bw).max() > 0


def test_appending_pad_positions_leaves_states_bitwise_unchanged(rng):
    head = _head()
    lengths = np.array([3, 5])
    shared = Tensor(rng.normal(size=(2, 5, D)))
    base = head.bilstm(shared, lengths)
    junk = rng.normal(size=(2, 2, D)) * 100.0
    extended = Tensor(np.concatenate([shared.data, junk], axis=1))
    padded = head.bilstm(extended, lengths)
    assert np.array_equal(base.data, padded.data)


def test_pad_invariance_holds_for_logits_bitwise(rng):
    head = _head()
    lengths = np.array([2, 4])
    shared = Tensor(rng.normal(size=(2, 4, D)))
    base = head.forward(shared, lengths)
    extended = Tensor(np.concatenate([shared.data, rng.normal(size=(2, 3, D))], axis=1))
    assert np.array_equal(base.data, head.forward(extended, lengths).data)


def test_all_zero_weights_give_zero_states(rng):
    store = make_store()
    head = BiLstmFfnHead(D, H, F, 2, store, "head_t")
    for p in store.tensors.values():
        p.data[:] = 0.0
    shared = Tensor(rng.normal(size=(3, 4, D)))
    states = head.bilstm(shared, np.array([4, 2, 1]))
    assert np.array_equal(states.data, np.zeros((3, 2 * H)))


def test_zero_length_sequence_rejected(rng):
    head = _head()
    with pytest.raises(ContractError):
        head.bilstm(Tensor(rng.normal(size=(1, 3, D))), np.array([0]))


def test_ffn_bias_passthrough(rng):
    head = _head(n_classes=3)
    head.w_f1.data[:] = 0.0
    head.b_f1.data[:] = 0.0
    head.b_f2.data[:] = np.array([0.5, -1.0, 2.0])
    out = head.ffn(Tensor(rng.normal(size=(4, 2 * H))))
    assert np.array_equal(out.data, np.tile([0.5, -1.0, 2.0], (4, 1)))


def test_relu_kills_negative_preactivations(rng):
    head = _head(n_classes=2)
    head.b_f1.data[:] = -100.0  # every pre-activation negative
    head.b_f2.data[:] = np.array([1.0, -2.0])
    out = head.ffn(Tensor(rng.normal(size=(3, 2 * H))))
    assert np.array_equal(out.data, np.tile([1.0, -2.0], (3, 1)))


def test_ffn_matches_hand_rolled_reference(rng):
    head = _head(n_classes=3)
    x = rng.normal(size=(4, 2 * H))
    reference = np.maximum(x @ head.w_f1.data + head.b_f1.data, 0.0) @ head.w_f2.data + head.b_f2.data
    out = head.ffn(Tensor(x))
    assert np.abs(out.data - reference).max() <= 1e-12


def test_ffn_gradients_match_finite_differences(rng):
    head = _head(n_classes=3)
    x = Tensor(rng.normal(size=(4, 2 * H)))
    params = [x, head.w_f1, head.b_f1, head.w_f2, head.b_f2]
    with Tape() as tape:
        out = head.ffn(x)
        proj = Tensor(rng.normal(size=out.shape))
        loss = (out * proj).sum()
    backward(tape, loss)

    def value():
        return float((head.ffn(Tensor(x.data)).data * proj.data).sum())

    for t in params:
        assert max_rel_error(t.grad, numeric_gradient(value, t.data)) < 1e-6


def test_bilstm_head_gradients_match_finite_differences(rng):
    store = make_store()
    head = BiLstmFfnHead(D, H, F, 2, store, "head_t")
    shared = Tensor(rng.normal(size=(2, 3, D)))
    lengths = np.array([3, 2])
    with Tape() as tape:
        out = head.forward(shared, lengths)
        proj = Tensor(rng.normal(size=out.shape))
        loss = (out * proj).sum()
    backward(tape, loss)

    def value():
        return float((head.forward(Tensor(shared.data), lengths).data * proj.data).sum())

    for t in [shared, *store.tensors.values()]:
        assert max_rel_error(
            np.zeros_like(t.data) if t.grad is None else t.grad,
            numeric_gradient(value, t.data),
        ) < 1e-6


def test_head_widths_per_task(rng):
    shared = Tensor(rng.normal(size=(2, 3, D)))
    lengths = np.array([3, 3])
    store = make_store(0)
    head_a = make_head("bilstm-ffn", D, H, F, 2, store, "head_a")
    head_c = make_head("bilstm-ffn", D, H, F, 3, store, "head_c")
    assert head_forward(head_a, shared, lengths, "a").shape == (2, 2)
    assert head_forward(head_c, shared, lengths, "c").shape == (2, 3)
    with pytest.raises(ConfigError, match="classes"):
        head_forward(head_a, shared, lengths, "c")


def test_forward_is_deterministic(rng):
    head = _head()
    shared = Tensor(rng.normal(size=(2, 4, D)))
    lengths = np.array([4, 3])
    a = head.forward(shared, lengths)
    b = head.forward(shared, lengths)
    assert np.array_equal(a.data, b.data)


def test_linear_and_bilstm_heads_differ(rng):
    store = make_store(3)
    linear = make_head("linear", D, H, F, 2, store, "head_l")
    bilstm = make_head("bilstm-ffn", D, H, F, 2, store, "head_b")
    shared = Tensor(rng.normal(size=(2, 4, D)))
    lengths = np.array([4, 4])
    assert not np.allclose(linear.forward(shared, lengths).data,
                           bilstm.forward(shared, lengths).data)


def test_linear_head_reads_first_position_only(rng):
    store = make_store(4)
    head = LinearHead(D, 2, store, "head_l")
    shared = rng.normal(size=(2, 4, D))
    altered = shared.copy()
    altered[:, 1:, :] = 0.0
    lengths = np.array([4, 4])
    assert np.array_equal(head.forward(Tensor(shared), lengths).data,
                          head.forward(Tensor(altered), lengths).data)


def test_unknown_head_kind_rejected():
    store = make_store(0)
    with pytest.raises(ConfigError):
        make_head("attention", D, H, F, 2, store, "head_x")
