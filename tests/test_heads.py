"""Bi-LSTM + FFN head and the linear ablation head."""

import tracemalloc
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
from dpmn.tensor import Tape, Tensor, backward, linear, lstm_scan

from conftest import make_store, max_rel_error, numeric_gradient
from reference_ops import concat, mul, sigmoid, tanh

D, H, F = 6, 4, 5
# Fused and per-timestep scans sum in different orders. In float64 a state
# agrees far inside this bound relative to the largest state, and a gradient
# coordinate relative to the summed magnitudes of the terms it adds up, so
# any real disagreement stands out.
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
        c_new = mul(f_gate, c) + mul(i_gate, g_gate)
        h_new = mul(o_gate, tanh(c_new))
        step_mask = Tensor((t < lengths).astype(np.float64)[:, None])
        keep = Tensor(1.0 - step_mask.data)
        h = mul(step_mask, h_new) + mul(keep, h)
        c = mul(step_mask, c_new) + mul(keep, c)
    return h


def _term_scales(arrays, lengths, proj, hidden, reverse):
    """Per coordinate of dx, dw_x, dw_h and db, the magnitudes of the terms
    it sums: the scan and its backward pass with every sum's terms added as
    magnitudes (1 - s as 1 + s, a gate or cell value as the magnitudes its
    sum adds up). Round-off scales with these, not with the gradient, which
    cancellation can make far smaller."""
    x, w_x, w_h, b = (np.abs(a) for a in arrays)
    h, c = np.zeros((x.shape[0], hidden)), np.zeros((x.shape[0], hidden))
    states = []
    for t in range(x.shape[1] - 1, -1, -1) if reverse else range(x.shape[1]):
        gates = x[:, t] @ w_x + h @ w_h + b
        i, f, o = (1 / (1 + np.exp(-gates[:, k * hidden:(k + 1) * hidden])) for k in range(3))
        g = np.minimum(gates[:, 3 * hidden:], 1.0)  # bounds |tanh| of its sum
        c_new = f * c + i * g
        step = (t < lengths)[:, None]
        states.append((t, step, h, c, i, f, o, g, np.minimum(c_new, 1.0)))
        h, c = np.where(step, o * np.minimum(c_new, 1.0), h), np.where(step, c_new, c)
    dh, dc = np.abs(proj), np.zeros_like(c)
    dx, dw_x, dw_h, db = np.zeros_like(x), 0.0, 0.0, 0.0
    for t, step, h, c, i, f, o, g, tanh_c in reversed(states):
        dc_new = dc + dh * o * (1 + tanh_c ** 2)
        dgates = step * np.concatenate([dc_new * g * i * (1 + i), dc_new * c * f * (1 + f),
                                        dh * tanh_c * o * (1 + o), dc_new * i * (1 + g ** 2)],
                                       axis=1)
        dx[:, t] = dgates @ w_x.T
        dw_x = dw_x + x[:, t].T @ dgates
        dw_h = dw_h + h.T @ dgates
        db = db + dgates.sum(axis=0)
        dh, dc = np.where(step, dgates @ w_h.T, dh), np.where(step, dc_new * f, dc)
    return dx, dw_x, dw_h, db


def _relative(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _scan_arrays(rng, batch, seq, d, hidden):
    return [rng.normal(size=(batch, seq, d)), rng.normal(0.0, 0.5, size=(d, 4 * hidden)),
            rng.normal(0.0, 0.5, size=(hidden, 4 * hidden)), rng.normal(0.0, 0.5, size=(4 * hidden,))]


def _fused(lengths, reverse):
    return lambda x, w_x, w_h, b: lstm_scan(x, lengths, [(w_x, w_h, b, reverse)])


def _scan_with_grads(scan, arrays, proj):
    """Final state and the gradients of (state * proj).sum() for x, w_x, w_h, b."""
    inputs = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        out = scan(*inputs)
    backward(tape, out, proj)
    return out.data, [t.grad for t in inputs]


def _scan_and_reference(lengths, seq, d, hidden, reverse, seed):
    """The fused scan's state and gradients, the reference's, and the term
    scales of the gradients."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = _scan_arrays(rng, len(lengths), seq, d, hidden)
    proj = rng.normal(size=(len(lengths), hidden))
    fused, fused_grads = _scan_with_grads(_fused(lengths, reverse), arrays, proj)
    ref, ref_grads = _scan_with_grads(
        lambda x, w_x, w_h, b: _reference_scan(x, lengths, w_x, w_h, b, hidden, reverse),
        arrays, proj)
    # the untaped path computes the same state bitwise
    x, w_x, w_h, b = (Tensor(a) for a in arrays)
    assert np.array_equal(lstm_scan(x, lengths, [(w_x, w_h, b, reverse)]).data, fused)
    return (fused, fused_grads, ref, ref_grads,
            _term_scales(arrays, lengths, proj, hidden, reverse))


def _off_scale(got_grads, want_grads, scales):
    """Names of the gradients with a coordinate off by more than its bound."""
    return [name for name, got, want, scale in zip(("x", "w_x", "w_h", "b"), got_grads,
                                                   want_grads, scales)
            if not (np.abs(got - want) <= SCAN_REL_TOL * scale).all()]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 31), st.data())
def test_lstm_scan_matches_per_timestep_reference(batch, seq, d, hidden, reverse, seed, data):
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    fused, fused_grads, ref, ref_grads, scales = _scan_and_reference(lengths, seq, d, hidden,
                                                                     reverse, seed)
    assert _relative(fused, ref) <= SCAN_REL_TOL
    assert _off_scale(fused_grads, ref_grads, scales) == []


def test_lstm_scan_matches_the_reference_where_an_x_gradient_cancels():
    """dx sums eight terms into -2.4e-7, a millionth of its scale, 0.47: the
    two scans' summation orders differ by 2e-11 of dx but 1e-17 of its scale."""
    fused, fused_grads, ref, ref_grads, scales = _scan_and_reference(
        np.array([1]), seq=1, d=1, hidden=2, reverse=False, seed=330)
    assert _relative(fused, ref) <= SCAN_REL_TOL
    assert abs(ref_grads[0].item()) < 1e-5 * scales[0].item()
    assert _off_scale(fused_grads, ref_grads, scales) == []


def test_a_dx_coordinate_off_by_a_relative_1e_9_fails_the_scaled_bound():
    _, fused_grads, _, ref_grads, scales = _scan_and_reference(
        np.array([3, 3]), seq=3, d=2, hidden=2, reverse=False, seed=0)
    # the coordinate with the least cancellation: a 1e-9 change of it is
    # tens of times its bound
    k = np.unravel_index(np.argmax(np.abs(ref_grads[0]) / scales[0]), scales[0].shape)
    assert 1e-9 * abs(ref_grads[0][k]) > 10 * SCAN_REL_TOL * scales[0][k]
    assert _off_scale(fused_grads, ref_grads, scales) == []
    fused_grads[0][k] *= 1 + 1e-9
    assert _off_scale(fused_grads, ref_grads, scales) == ["x"]


def _bits(a):
    return a.shape, a.tobytes()


def _assert_lockstep_is_separate(seed, seq, d, hidden, lengths, reverses):
    """k directions in one lstm_scan give, bit for bit, the states of k
    one-direction scans side by side and their gradients, x's summed over
    the k scans as one tape sums it."""
    k, batch = len(reverses), len(lengths)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(batch, seq, d))
    weights = [_scan_arrays(rng, batch, seq, d, hidden)[1:] for _ in range(k)]
    proj = rng.normal(size=(batch, k * hidden))

    def run(scan):
        inputs = [Tensor(x.copy())] + [Tensor(w.copy()) for ws in weights for w in ws]
        directions = [(*inputs[1 + 3 * j:4 + 3 * j], r) for j, r in enumerate(reverses)]
        with Tape() as tape:
            out = scan(inputs[0], directions)
        backward(tape, out, proj)
        return [out.data] + [np.zeros_like(t.data) if t.grad is None else t.grad for t in inputs]

    joint = run(lambda x, directions: lstm_scan(x, lengths, directions))
    separate = run(lambda x, directions: concat(
        [lstm_scan(x, lengths, [direction]) for direction in directions], axis=1))
    assert [_bits(a) for a in joint] == [_bits(a) for a in separate]


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 6), st.integers(1, 8),
       st.integers(0, 12), st.integers(0, 2 ** 31), st.data())
def test_lockstep_scan_is_bitwise_the_separate_scans(k, batch, seq, d, hidden, seed, data):
    lengths = np.array(data.draw(st.lists(st.integers(0, seq), min_size=batch, max_size=batch)),
                       dtype=np.intp)
    reverses = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    _assert_lockstep_is_separate(seed, seq, d, hidden, lengths, reverses)


def test_lockstep_scan_of_hidden_size_one_is_bitwise_the_separate_scans():
    """With h = 1 a direction's state history is a single column; its w_h
    gradient must come from the GEMM a lone scan runs, on contiguous states."""
    _assert_lockstep_is_separate(0, 3, 1, 1, np.array([3, 3]), [False, False])


def test_lockstep_scan_is_bitwise_the_separate_scans_at_workload_scale():
    """The bilstm-t30 shapes: B=32, T=32, d=32, h=16, lengths 27-32 with ties,
    and six directions alternating forward and backward as the three heads
    pass them. Each orientation's input projection and w_x gradient is one
    GEMM over three directions here, against one per direction alone."""
    lengths = np.array([27, 32, 29, 32, 28, 30, 31, 27, 32, 30, 29, 28, 31, 32, 27, 30,
                        29, 31, 28, 32, 30, 27, 31, 29, 32, 28, 30, 31, 27, 29, 32, 28])
    _assert_lockstep_is_separate(21, 32, 32, 16, lengths, [False, True] * 3)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
       st.lists(st.booleans(), min_size=1, max_size=3), st.integers(0, 2 ** 31), st.data())
def test_a_row_with_company_at_every_live_step_gets_the_same_state_in_any_call(
        pool, seq, d, hidden, reverses, seed, data):
    """Two scans over rows drawn, with repeats, from one pool, each with a
    filler row as long as its longest: the maximum length is shared, so at
    each of a row's live steps another row is live in both calls, and every
    row's state is the same bits in both. (The gradient check stacks
    complex copies; see the complex property below.)"""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = rng.normal(size=(pool, seq, d))
    lengths = np.array(data.draw(st.lists(st.integers(0, seq), min_size=pool, max_size=pool)))
    directions = [(*(Tensor(w) for w in _scan_arrays(rng, 1, seq, d, hidden)[1:]), r)
                  for r in reverses]

    def states(rows):
        filler = data.draw(st.integers(0, len(rows)))
        x = np.insert(xs[rows], filler, rng.normal(size=(seq, d)), axis=0)
        lens = np.insert(lengths[rows], filler, lengths[rows].max())
        return np.delete(lstm_scan(Tensor(x), lens, directions).data, filler, axis=0)

    draw_rows = st.lists(st.integers(0, pool - 1), min_size=1, max_size=6)
    rows_a, rows_b = data.draw(draw_rows), data.draw(draw_rows)
    a, b = states(rows_a), states(rows_b)
    for i, r in enumerate(rows_a):
        for j in (j for j, s in enumerate(rows_b) if s == r):
            assert a[i].tobytes() == b[j].tobytes(), (r, lengths)


def _complex_copies_stacked_and_alone(seed, copies, lengths, seq, d, hidden, reverses):
    """The states of one complex scan over `copies` inputs stacked on the
    batch axis, lengths tiled, and of one lone scan per copy, as bytes."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    batch = len(lengths)
    xs = draw(copies, batch, seq, d)
    directions = [(Tensor(draw(d, 4 * hidden)), Tensor(draw(hidden, 4 * hidden)),
                   Tensor(draw(4 * hidden)), r) for r in reverses]
    stacked = lstm_scan(Tensor(xs.reshape(copies * batch, seq, d)), np.tile(lengths, copies),
                        directions).data
    alone = np.concatenate([lstm_scan(Tensor(x), lengths, directions).data for x in xs])
    return stacked.tobytes(), alone.tobytes()


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 8), st.lists(st.booleans(), min_size=1, max_size=3),
       st.integers(0, 2 ** 31), st.data())
def test_complex_copies_stacked_on_the_batch_axis_are_bitwise_lone_scans(
        copies, batch, seq, d, hidden, reverses, seed, data):
    """A complex scan over C copies stacked on the batch axis gives each copy
    its lone scan's states bit for bit when the longest length is shared,
    so no step has a single live row: the gradient check stacks its probe
    copies on this ground."""
    lengths = data.draw(st.lists(st.integers(0, seq), min_size=batch, max_size=batch))
    for i in data.draw(st.lists(st.integers(0, batch - 1), min_size=2, max_size=2,
                                unique=True)):
        lengths[i] = seq
    stacked, alone = _complex_copies_stacked_and_alone(seed, copies, np.array(lengths), seq, d,
                                                       hidden, reverses)
    assert stacked == alone


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
    for reverses in ([True], [False, True, True]):
        with Tape() as tape:
            out = lstm_scan(x, np.array([5, 2]), [(w_x, w_h, b, r) for r in reverses])
        assert len(tape) == 1 and out.shape == (2, 2 * len(reverses))


def test_lstm_scan_rejects_bad_shapes_and_lengths(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w_x, w_h, b = Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
    with pytest.raises(ShapeError):
        lstm_scan(x, np.array([3, 3]), [(Tensor(np.zeros((3, 8))), w_h, b, False)])
    with pytest.raises(ShapeError, match="hidden size 2"):  # every direction has one width
        lstm_scan(x, np.array([3, 3]), [(w_x, w_h, b, False),
                                        (Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 4))),
                                         Tensor(np.zeros(4)), True)])
    with pytest.raises(ShapeError, match="at least one direction"):
        lstm_scan(x, np.array([3, 3]), [])
    with pytest.raises(ShapeError, match="rank 3"):
        lstm_scan(Tensor(np.zeros((2, 3))), np.array([3, 3]), [(w_x, w_h, b, False)])
    with pytest.raises(ShapeError):
        lstm_scan(x, np.array([3]), [(w_x, w_h, b, False)])
    with pytest.raises(ContractError, match="exceeds"):
        lstm_scan(x, np.array([3, 4]), [(w_x, w_h, b, False)])
    with pytest.raises(ShapeError, match="integer lengths"):
        lstm_scan(x, np.array([3.0, 2.0]), [(w_x, w_h, b, False)])


def _scan_inputs(seed, batch, seq, d, hidden, reverses):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(batch, seq, d))
    weights = [w for _ in reverses for w in _scan_arrays(rng, batch, seq, d, hidden)[1:]]
    lengths = rng.integers(0, seq + 1, size=batch)
    return x, lengths, weights, rng.normal(size=(batch, len(reverses) * hidden))


def _run_scan(reverses, x, lengths, weights, proj):
    """States and gradients of one taped scan, its inputs wrapped as given."""
    inputs = [Tensor(x)] + [Tensor(w) for w in weights]
    directions = [(*inputs[1 + 3 * j:4 + 3 * j], r) for j, r in enumerate(reverses)]
    with Tape() as tape:
        out = lstm_scan(inputs[0], lengths, directions)
    backward(tape, out, proj)
    return [out.data] + [np.zeros_like(t.data) if t.grad is None else t.grad for t in inputs]


@pytest.mark.parametrize("reverses", [[False], [True, False, True, True, False, False]])
def test_lstm_scan_leaves_its_inputs_bitwise_unchanged(reverses):
    """The scan halves its weights on its own copies: x, lengths and every
    w_x, w_h and b keep their bytes through the forward and the backward."""
    x, lengths, weights, proj = _scan_inputs(5, 5, 6, 3, 2, reverses)
    kept = [_bits(a.copy()) for a in [x, lengths, *weights]]
    _run_scan(reverses, x, lengths, weights, proj)
    assert [_bits(a) for a in [x, lengths, *weights]] == kept


def test_a_scan_of_other_shapes_in_between_leaves_a_scan_unchanged():
    """A, then B of another hidden size, batch and direction count, then A
    again: both A results are bitwise equal, whatever the scan keeps between
    calls."""
    a_reverses, b_reverses = [False, True], [True, False, True, False, True, True]
    a_inputs = _scan_inputs(6, 4, 5, 3, 2, a_reverses)
    first = _run_scan(a_reverses, *a_inputs)
    _run_scan(b_reverses, *_scan_inputs(7, 7, 5, 3, 3, b_reverses))
    again = _run_scan(a_reverses, *a_inputs)
    assert [_bits(a) for a in again] == [_bits(a) for a in first]


# The T=30 learnability model (L=2, d=32, deep prompt p=2, Bi-LSTM heads)
LEARNABILITY = TrainConfig(batch_size=32, num_layers=2, hidden_size=32, num_heads=2, ffn_size=64,
                           max_seq_len=32, dropout=0.0, head_kind="bilstm-ffn",
                           prompt=PromptConfig(length=2, form="deep", init="random",
                                               tuning="lm-plus-prompt"))
# The README default encoder (L=4, d=64, deep prompt p=1) with linear heads
DEFAULT_LINEAR = TrainConfig(batch_size=32, num_layers=4, hidden_size=64, num_heads=4,
                             ffn_size=256, max_seq_len=64, dropout=0.1, head_kind="linear",
                             prompt=PromptConfig(length=1, form="deep", init="random",
                                                 tuning="lm-plus-prompt"))


def _recorded_step(cfg=LEARNABILITY):
    """A function that records the model of `cfg`'s forward and loss on one
    B=32 batch of T=30 texts."""
    corpus = generate_synthetic_corpus(32, seed=3)
    vocab = build_vocab(corpus)
    model = DpmnModel(cfg.encoder_config(vocab.size), cfg.prompt, head_kind=cfg.head_kind)
    padded = [replace(ex, text=" ".join([ex.text] + ["filler"] * 30)) for ex in corpus]
    batch = make_batches(padded, vocab, cfg.batch_size, 30)[0]
    assert batch.token_ids.shape == (32, 30)

    def record(tape):
        with tape:
            logits = model.forward(batch)
            return total_loss(cross_entropy(logits["a"], batch.labels["a"]),
                              cross_entropy(logits["b"], batch.labels["b"]),
                              cross_entropy(logits["c"], batch.labels["c"]), cfg.loss_weights)
    return record


def test_bilstm_training_step_tape_is_short():
    """The heads must not record per-timestep ops."""
    tape = Tape()
    backward(tape, _recorded_step()(tape))
    assert len(tape) < 200


def test_the_three_heads_run_one_scan_and_its_backward_stays_lean(monkeypatch):
    """One lstm_scan runs all six directions: a step records one scan entry,
    and 28 in all, of which the loss is four: one cross_entropy per task and
    one total_loss. Its backward forms the gate gradients step by step, on a
    gate-major copy of one step's gates, writes them over the saved
    activations and takes the weight gradients from there, so it adds at
    most a quarter to what the forward holds."""
    scans = []

    def counted(*args):
        scans.append(args)
        return lstm_scan(*args)

    monkeypatch.setattr("dpmn.heads.lstm_scan", counted)
    record = _recorded_step()
    tape = Tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = record(tape)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(tape, loss)
        added = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    assert len(scans) == 1 and len(scans[0][2]) == 6
    assert len(tape) == 28
    assert added <= 0.25 * held, (added, held)


def test_a_linear_head_step_records_42_tape_entries():
    """The README default encoder with linear heads: 38 entries up to the
    logits, then one cross_entropy per task and one total_loss."""
    tape = Tape()
    _recorded_step(DEFAULT_LINEAR)(tape)
    assert len(tape) == 42


def _alone(head, shared, lengths):
    """One head's logits, read on its own."""
    return head.classify(head.read([head], shared, lengths), 0)


def _head(n_classes=2, seed=0):
    return BiLstmFfnHead(D, H, F, n_classes, make_store(seed), "head_t")


def test_single_step_concatenates_both_directions(rng):
    head = _head()
    shared = Tensor(rng.normal(size=(2, 1, D)))
    states = BiLstmFfnHead.bilstm([head], shared, np.array([1, 1]))
    assert states.shape == (2, 2 * H)
    # with one timestep the two directions see the same input
    fw, bw = states.data[:, :H], states.data[:, H:]
    assert np.abs(fw).max() > 0 and np.abs(bw).max() > 0


def test_appending_pad_positions_leaves_states_bitwise_unchanged(rng):
    head = _head()
    lengths = np.array([3, 5])
    shared = Tensor(rng.normal(size=(2, 5, D)))
    base = BiLstmFfnHead.bilstm([head], shared, lengths)
    junk = rng.normal(size=(2, 2, D)) * 100.0
    extended = Tensor(np.concatenate([shared.data, junk], axis=1))
    padded = BiLstmFfnHead.bilstm([head], extended, lengths)
    assert np.array_equal(base.data, padded.data)


def test_pad_invariance_holds_for_logits_bitwise(rng):
    head = _head()
    lengths = np.array([2, 4])
    shared = Tensor(rng.normal(size=(2, 4, D)))
    base = _alone(head, shared, lengths)
    extended = Tensor(np.concatenate([shared.data, rng.normal(size=(2, 3, D))], axis=1))
    assert np.array_equal(base.data, _alone(head, extended, lengths).data)


def test_all_zero_weights_give_zero_states(rng):
    store = make_store()
    head = BiLstmFfnHead(D, H, F, 2, store, "head_t")
    for p in store.tensors.values():
        p.data[:] = 0.0
    shared = Tensor(rng.normal(size=(3, 4, D)))
    states = BiLstmFfnHead.bilstm([head], shared, np.array([4, 2, 1]))
    assert np.array_equal(states.data, np.zeros((3, 2 * H)))


def test_zero_length_sequence_rejected(rng):
    head = _head()
    with pytest.raises(ContractError):
        BiLstmFfnHead.bilstm([head], Tensor(rng.normal(size=(1, 3, D))), np.array([0]))


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
    proj = rng.normal(size=out.shape)
    backward(tape, out, proj)

    def value():
        return float((head.ffn(Tensor(x.data)).data * proj).sum())

    for t in params:
        assert max_rel_error(t.grad, numeric_gradient(value, t.data)) < 1e-6


def test_bilstm_head_gradients_match_finite_differences(rng):
    store = make_store()
    head = BiLstmFfnHead(D, H, F, 2, store, "head_t")
    shared = Tensor(rng.normal(size=(2, 3, D)))
    lengths = np.array([3, 2])
    with Tape() as tape:
        out = _alone(head, shared, lengths)
    proj = rng.normal(size=out.shape)
    backward(tape, out, proj)

    def value():
        return float((_alone(head, Tensor(shared.data), lengths).data * proj).sum())

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
    states = head_a.read([head_a, head_c], shared, lengths)
    assert states.shape == (2, 2 * 2 * H)
    assert head_forward(head_a, states, 0, "a").shape == (2, 2)
    assert head_forward(head_c, states, 1, "c").shape == (2, 3)
    # block j of the joint read is what head j reads alone
    assert np.array_equal(head_forward(head_c, states, 1, "c").data,
                          _alone(head_c, shared, lengths).data)


def test_directions_hold_exactly_the_heads_lstm_tensors_in_creation_order():
    store = make_store()
    head = BiLstmFfnHead(D, H, F, 2, store, "head_t")
    lstm = [p for name, p in store.tensors.items() if name.startswith("head_t.lstm_")]
    held = [t for *weights, _ in head.directions for t in weights]
    assert len(held) == len(lstm) == 6
    assert all(a is b for a, b in zip(held, lstm))
    assert [p.name for p in held] == [f"head_t.lstm_{side}.{w}" for side in ("forward", "backward")
                                      for w in ("w_x", "w_h", "b")]
    assert [reverse for *_, reverse in head.directions] == [False, True]


def test_forward_is_deterministic(rng):
    head = _head()
    shared = Tensor(rng.normal(size=(2, 4, D)))
    lengths = np.array([4, 3])
    a = _alone(head, shared, lengths)
    b = _alone(head, shared, lengths)
    assert np.array_equal(a.data, b.data)


def test_linear_and_bilstm_heads_differ(rng):
    store = make_store(3)
    linear = make_head("linear", D, H, F, 2, store, "head_l")
    bilstm = make_head("bilstm-ffn", D, H, F, 2, store, "head_b")
    shared = Tensor(rng.normal(size=(2, 4, D)))
    lengths = np.array([4, 4])
    assert not np.allclose(_alone(linear, shared, lengths).data,
                           _alone(bilstm, shared, lengths).data)


def test_linear_head_reads_first_position_only(rng):
    store = make_store(4)
    head = LinearHead(D, 2, store, "head_l")
    shared = rng.normal(size=(2, 4, D))
    altered = shared.copy()
    altered[:, 1:, :] = 0.0
    lengths = np.array([4, 4])
    assert np.array_equal(_alone(head, Tensor(shared), lengths).data,
                          _alone(head, Tensor(altered), lengths).data)


def test_unknown_head_kind_rejected():
    store = make_store(0)
    with pytest.raises(ConfigError):
        make_head("attention", D, H, F, 2, store, "head_x")
