"""Bi-LSTM + FFN head and the linear ablation head."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.data import build_vocab, generate_synthetic_corpus, make_batches
from dpmn.errors import ConfigError, ContractError, ShapeError
from dpmn.heads import BiLstmFfnHead, LinearHead, make_head
from dpmn.losses import cross_entropy, total_loss
from dpmn.model import DpmnModel, head_forward
from dpmn.prompt import PromptConfig
from dpmn.runconfig import TrainConfig
from dpmn.tensor import (Tape, Tensor, backward, linear, lstm_scan, mul, sigmoid,
                         sum_, tanh)

from conftest import make_store, max_rel_error, numeric_gradient

D, H, F = 6, 4, 5
# Fused and per-timestep scans sum in different orders; in float64 they
# agree far inside this bound, so any real disagreement stands out.
SCAN_REL_TOL = 1e-12


def _reference_scan(x, lengths, w_x, w_h, b, hidden, reverse):
    """One masked LSTM direction composed of per-timestep tape ops: the
    reference the fused lstm_scan primitive must reproduce."""
    batch, seq, _ = x.shape
    h = Tensor(np.zeros((batch, hidden)))
    c = Tensor(np.zeros((batch, hidden)))
    steps = range(seq - 1, -1, -1) if reverse else range(seq)
    for t in steps:
        gates = linear(x[:, t, :], w_x) + linear(h, w_h) + b
        i_gate = sigmoid(gates[:, :hidden])
        f_gate = sigmoid(gates[:, hidden:2 * hidden])
        o_gate = sigmoid(gates[:, 2 * hidden:3 * hidden])
        g_gate = tanh(gates[:, 3 * hidden:])
        c_new = f_gate * c + i_gate * g_gate
        h_new = o_gate * tanh(c_new)
        step_mask = Tensor((t < lengths).astype(np.float64)[:, None])
        keep = Tensor(1.0 - step_mask.data)
        h = mul(step_mask, h_new) + mul(keep, h)
        c = mul(step_mask, c_new) + mul(keep, c)
    return h


def _relative(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _scan_arrays(rng, batch, seq, d, hidden):
    return [rng.normal(size=(batch, seq, d)), rng.normal(0.0, 0.5, size=(d, 4 * hidden)),
            rng.normal(0.0, 0.5, size=(hidden, 4 * hidden)), rng.normal(0.0, 0.5, size=(4 * hidden,))]


def _fused(lengths, reverse):
    return lambda x, w_x, w_h, b: lstm_scan(x, lengths, w_x, w_h, b, reverse=reverse)


def _scan_with_grads(scan, arrays, proj):
    """Final state and the gradients of (state * proj).sum() for x, w_x, w_h, b."""
    inputs = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        out = scan(*inputs)
        loss = sum_(mul(out, Tensor(proj)))
    backward(tape, loss)
    return out.data, [t.grad for t in inputs]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 31), st.data())
def test_lstm_scan_matches_per_timestep_reference(batch, seq, d, hidden, reverse, seed, data):
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = _scan_arrays(rng, batch, seq, d, hidden)
    proj = rng.normal(size=(batch, hidden))

    fused, fused_grads = _scan_with_grads(_fused(lengths, reverse), arrays, proj)
    ref, ref_grads = _scan_with_grads(
        lambda x, w_x, w_h, b: _reference_scan(x, lengths, w_x, w_h, b, hidden, reverse),
        arrays, proj)
    assert _relative(fused, ref) <= SCAN_REL_TOL
    for name, got, want in zip(("x", "w_x", "w_h", "b"), fused_grads, ref_grads):
        assert _relative(got, want) <= SCAN_REL_TOL, name
    # the untaped path computes the same state bitwise
    x, w_x, w_h, b = (Tensor(a) for a in arrays)
    untaped = lstm_scan(x, lengths, w_x, w_h, b, reverse=reverse)
    assert np.array_equal(untaped.data, fused)


def _flip_within_lengths(a, lengths):
    """Each row of a [batch, seq, ...] reversed over its first lengths[r] positions."""
    out = a.copy()
    for r, n in enumerate(lengths):
        out[r, :n] = a[r, :n][::-1]
    return out


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2 ** 31),
       st.data())
def test_reverse_scan_is_the_forward_scan_of_reversed_rows(batch, seq, hidden, seed, data):
    """Reverse reads each row's positions in the order the forward scan reads
    the row reversed within its length: states and all four gradients agree
    bitwise, dx once flipped back."""
    lengths = np.array(data.draw(st.lists(st.integers(0, seq), min_size=batch, max_size=batch)))
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = _scan_arrays(rng, batch, seq, 3, hidden)
    proj = rng.normal(size=(batch, hidden))
    rev, rev_grads = _scan_with_grads(_fused(lengths, True), arrays, proj)
    fwd, fwd_grads = _scan_with_grads(
        _fused(lengths, False), [_flip_within_lengths(arrays[0], lengths)] + arrays[1:], proj)
    assert np.array_equal(rev, fwd)
    assert np.array_equal(_flip_within_lengths(rev_grads[0], lengths), fwd_grads[0])
    for name, got, want in zip(("w_x", "w_h", "b"), rev_grads[1:], fwd_grads[1:]):
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("reverse", [False, True])
def test_non_finite_padded_input_does_not_reach_any_gradient(rng, reverse):
    """A NaN where a row is padded gives the gradients of a 0 there, all finite."""
    lengths = np.array([4, 2])
    arrays = _scan_arrays(rng, 2, 4, 3, 2)
    proj = rng.normal(size=(2, 2))
    arrays[0][1, 3] = 0.0
    _, clean = _scan_with_grads(_fused(lengths, reverse), arrays, proj)
    arrays[0][1, 3] = np.nan
    _, poisoned = _scan_with_grads(_fused(lengths, reverse), arrays, proj)
    for name, got, want in zip(("x", "w_x", "w_h", "b"), poisoned, clean):
        assert np.isfinite(got).all() and np.array_equal(got, want), name


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_scan_commutes_with_row_permutation(rng, reverse):
    """Packing sorts rows by length; permuting the rows with their lengths
    (ties included) permutes the states and dx, and leaves the weight grads."""
    lengths = np.array([3, 5, 1, 3, 5, 2])
    arrays = _scan_arrays(rng, 6, 5, 3, 2)
    proj = rng.normal(size=(6, 2))
    perm = np.array([4, 0, 3, 5, 1, 2])
    base, base_grads = _scan_with_grads(_fused(lengths, reverse), arrays, proj)
    moved, moved_grads = _scan_with_grads(_fused(lengths[perm], reverse),
                                          [arrays[0][perm]] + arrays[1:], proj[perm])
    assert _relative(moved, base[perm]) <= SCAN_REL_TOL
    assert _relative(moved_grads[0], base_grads[0][perm]) <= SCAN_REL_TOL
    for name, got, want in zip(("w_x", "w_h", "b"), moved_grads[1:], base_grads[1:]):
        assert _relative(got, want) <= SCAN_REL_TOL, name


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_scan_rows_of_length_zero_stay_zero(rng, reverse):
    arrays = _scan_arrays(rng, 3, 4, 3, 2)
    proj = rng.normal(size=(3, 2))
    state, grads = _scan_with_grads(_fused(np.array([3, 0, 4]), reverse), arrays, proj)
    assert np.abs(state[[0, 2]]).min() > 0
    assert np.array_equal(state[1], np.zeros(2))
    assert np.array_equal(grads[0][1], np.zeros((4, 3)))
    # a batch with no live row: zero states and zero gradients everywhere
    state, grads = _scan_with_grads(_fused(np.array([0, 0, 0]), reverse), arrays, proj)
    assert np.array_equal(state, np.zeros((3, 2)))
    for got, a in zip(grads, arrays):
        assert np.array_equal(got, np.zeros_like(a))


def test_lstm_scan_records_one_tape_entry(rng):
    x = Tensor(rng.normal(size=(2, 5, 3)))
    w_x, w_h, b = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(2, 8))), Tensor(np.zeros(8))
    with Tape() as tape:
        lstm_scan(x, np.array([5, 2]), w_x, w_h, b, reverse=True)
    assert len(tape) == 1


def test_lstm_scan_rejects_bad_shapes_and_lengths(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w_x, w_h, b = Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
    with pytest.raises(ShapeError):
        lstm_scan(x, np.array([3, 3]), Tensor(np.zeros((3, 8))), w_h, b)
    with pytest.raises(ShapeError):
        lstm_scan(x, np.array([3]), w_x, w_h, b)
    with pytest.raises(ContractError, match="exceeds"):
        lstm_scan(x, np.array([3, 4]), w_x, w_h, b)
    with pytest.raises(ShapeError, match="integer lengths"):
        lstm_scan(x, np.array([3.0, 2.0]), w_x, w_h, b)


def test_bilstm_training_step_tape_is_short():
    """One taped step of the T=30 learnability model (L=2, d=32, deep prompt
    p=2, Bi-LSTM heads, B=32): the heads must not record per-timestep ops."""
    cfg = TrainConfig(batch_size=32, num_layers=2, hidden_size=32, num_heads=2, ffn_size=64,
                      max_seq_len=32, dropout=0.0, head_kind="bilstm-ffn",
                      prompt=PromptConfig(length=2, form="deep", init="random",
                                          tuning="lm-plus-prompt"))
    corpus = generate_synthetic_corpus(32, seed=3)
    vocab = build_vocab(corpus)
    model = DpmnModel(cfg.encoder_config(vocab.size), cfg.prompt, head_kind=cfg.head_kind)
    cap = cfg.max_seq_len - cfg.prompt.length
    padded = [replace(ex, text=" ".join([ex.text] + ["filler"] * cap)) for ex in corpus]
    batch = make_batches(padded, vocab, cfg.batch_size, cap)[0]
    assert batch.token_ids.shape == (32, 30)
    with Tape() as tape:
        logits = model.forward(batch)
        loss = total_loss(cross_entropy(logits["a"], batch.labels["a"]),
                          cross_entropy(logits["b"], batch.labels["b"]),
                          cross_entropy(logits["c"], batch.labels["c"]), cfg.loss_weights)
    backward(tape, loss)
    assert len(tape) < 200


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
