"""Op semantics and gradient correctness of the autodiff core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.encoder import MASK_BIAS
from dpmn.errors import ContractError, EmbeddingIndexError, ShapeError
from dpmn.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat,
    dropout,
    embedding_lookup,
    layer_norm,
    linear,
    log_softmax,
    mul,
    prefix,
    relu,
    reshape,
    sigmoid,
    slice_,
    softmax,
    sum_,
    tanh,
)

from conftest import max_rel_error, numeric_gradient


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(linear(eye, m).data, m.data)


def test_matmul_zero():
    out = linear(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]))
    assert np.array_equal(out.data, [[0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])


def test_softmax_large_values_stable():
    out = softmax(Tensor([1000.0, 0.0]), axis=0).data
    assert np.isfinite(out).all()
    assert out[0] > 1 - 1e-12 and out[1] < 1e-12


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8), st.integers(0, 2 ** 31))
def test_softmax_rows_sum_to_one(row, seed):
    rows = np.random.Generator(np.random.PCG64(seed)).normal(size=(3, len(row)))
    x = Tensor(np.vstack([rows, [row]]))
    sums = softmax(x, axis=1).data.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_relu_values():
    assert relu(Tensor([-1.0])).data[0] == 0.0
    assert relu(Tensor([2.0])).data[0] == 2.0


def test_layer_norm_constant_row_is_zero():
    # zero variance is absorbed by eps instead of dividing 0/0
    d = 6
    out = layer_norm(Tensor(np.zeros((2, d))), Tensor(np.ones(d)), Tensor(np.zeros(d)))
    assert np.array_equal(out.data, np.zeros((2, d)))
    out = layer_norm(Tensor(np.full((2, d), 3.7)), Tensor(np.ones(d)), Tensor(np.zeros(d)))
    assert np.isfinite(out.data).all()
    assert np.abs(out.data).max() < 1e-9


def test_layer_norm_row_mean_near_zero(rng):
    x = Tensor(rng.normal(size=(4, 9)))
    out = layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


def test_concat_shape_arithmetic(rng):
    out = concat([Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 5)))], axis=1)
    assert out.shape == (2, 8)


def test_concat_mismatched_shapes():
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


def test_embedding_lookup_range_error_carries_id():
    table = Tensor(np.ones((4, 2)))
    with pytest.raises(EmbeddingIndexError) as exc:
        embedding_lookup(table, np.array([[1, 9]]))
    assert exc.value.index == 9


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    with Tape() as tape:
        loss = sum_(x)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_accumulates_across_reuses(rng):
    x = Tensor(rng.normal(size=(5,)))
    with Tape() as tape:
        loss = sum_(add(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, 2.0 * np.ones(5))


def test_backward_rejects_non_scalar(rng):
    x = Tensor(rng.normal(size=(3,)))
    with Tape() as tape:
        y = relu(x)
    with pytest.raises(ContractError, match="scalar"):
        backward(tape, y)


def test_backward_rejects_loss_off_tape(rng):
    x = Tensor(rng.normal(size=(3,)))
    with Tape() as tape:
        relu(x)
    stray = Tensor(1.0)
    with pytest.raises(ContractError, match="tape"):
        backward(tape, stray)


def test_backward_is_deterministic(rng):
    x_values = rng.normal(size=(4, 4))
    w_values = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        x, w = Tensor(x_values.copy()), Tensor(w_values.copy())
        with Tape() as tape:
            loss = sum_(tanh(linear(x, w)))
        backward(tape, loss)
        grads.append((x.grad.copy(), w.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_gradient_accumulates_across_tapes(rng):
    x = Tensor(rng.normal(size=(3,)))
    for expected in (1.0, 2.0):
        with Tape() as tape:
            loss = sum_(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, expected * np.ones(3))


def _fd_check(forward, inputs, rng, tol=1e-6):
    """Backward grads of a random scalar projection vs the FD oracle."""
    for t in inputs:
        t.grad = None  # explicit zeroing; grads accumulate across tapes
    with Tape() as tape:
        out = forward()
        proj = Tensor(rng.normal(size=out.shape))
        loss = sum_(mul(out, proj))
    backward(tape, loss)

    def value():
        return float((forward().data * proj.data).sum())

    for t in inputs:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        assert max_rel_error(analytic, numeric_gradient(value, t.data)) < tol


def test_matmul_gradients_match_finite_differences(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    _fd_check(lambda: linear(a, b), [a, b], rng)


def test_batched_matmul_gradients(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)))
    b = Tensor(rng.normal(size=(4, 3)))
    _fd_check(lambda: linear(a, b), [a, b], rng)


def test_softmax_gradients_match_finite_differences(rng):
    x = Tensor(rng.uniform(-2, 2, size=5))
    _fd_check(lambda: softmax(x, axis=0), [x], rng)


def test_log_softmax_gradients(rng):
    x = Tensor(rng.uniform(-2, 2, size=(3, 5)))
    _fd_check(lambda: log_softmax(x, axis=1), [x], rng)


def test_elementwise_gradients(rng):
    x = Tensor(rng.uniform(0.1, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4)))
    _fd_check(lambda: relu(x), [x], rng)
    y = Tensor(rng.uniform(-2, 2, size=(3, 4)))
    _fd_check(lambda: sigmoid(y), [y], rng)
    _fd_check(lambda: tanh(y), [y], rng)


def test_broadcast_add_mul_gradients(rng):
    a = Tensor(rng.normal(size=(2, 5)))
    b = Tensor(rng.normal(size=(5,)))
    _fd_check(lambda: add(a, b), [a, b], rng)
    c = Tensor(rng.normal(size=(2, 1)))
    _fd_check(lambda: mul(a, c), [a, c], rng)


def test_layer_norm_gradients(rng):
    x = Tensor(rng.normal(size=(3, 6)))
    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = Tensor(rng.normal(size=6))
    _fd_check(lambda: layer_norm(x, gain, bias), [x, gain, bias], rng)


def test_embedding_lookup_gradients_scatter_add(rng):
    table = Tensor(rng.normal(size=(6, 3)))
    ids = np.array([[0, 2, 2], [5, 0, 1]])  # repeated ids must accumulate
    _fd_check(lambda: embedding_lookup(table, ids), [table], rng)


def test_concat_slice_sum_gradients(rng):
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 4)))
    _fd_check(lambda: concat([a, b], axis=1), [a, b], rng)
    x = Tensor(rng.normal(size=(4, 5, 6)))
    _fd_check(lambda: slice_(x, (slice(None), 2, slice(1, 4))), [x], rng)
    _fd_check(lambda: sum_(x, axis=1), [x], rng)


def test_reshape_broadcast_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    _fd_check(lambda: reshape(x, (6, 4)), [x], rng)
    y = Tensor(rng.normal(size=(1, 4)))
    _fd_check(lambda: add(y, Tensor(np.zeros((3, 4)))), [y], rng)


def test_dropout_zero_rate_is_identity(rng):
    x = Tensor(rng.normal(size=(3, 3)))
    assert dropout(x, 0.0, rng) is x
    assert dropout(x, 0.3, None) is x  # no generator: evaluation, nothing dropped


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones((100, 10)))
    outs = []
    for _ in range(2):
        gen = np.random.Generator(np.random.PCG64(9))
        outs.append(dropout(x, 0.3, gen).data)
    assert np.array_equal(outs[0], outs[1])
    kept = outs[0] != 0
    assert np.allclose(outs[0][kept], 1.0 / 0.7)


def test_ops_produce_finite_values(rng):
    # stability-forcing inputs flow through without NaN/Inf
    x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
    assert np.isfinite(softmax(x, axis=1).data).all()
    assert np.isfinite(log_softmax(x, axis=1).data).all()
    assert np.isfinite(layer_norm(
        Tensor(np.zeros((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
    ).data).all()


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(ContractError):
            with Tape():
                pass


# The fused primitives and their references sum in different orders; in
# float64 they agree far inside this bound.
FUSED_REL_TOL = 1e-12


def _reference_linear(x, w, b):
    """x @ w (+ b) composed of a broadcast multiply and a sum."""
    out = sum_(mul(reshape(x, x.shape + (1,)), w), axis=-2)
    return out if b is None else add(out, b)


def _reference_attention(qkv, bias, heads):
    """Masked multi-head attention composed of elementwise tape ops, laid
    out as [batch, query, key, head] so no transpose op is needed."""
    batch, seq, width = qkv.shape
    d = width // 3
    size = d // heads

    def part(i, shape):
        return reshape(qkv[:, :, i * d:(i + 1) * d], shape)

    q = part(0, (batch, seq, 1, heads, size))
    k = part(1, (batch, 1, seq, heads, size))
    v = part(2, (batch, 1, seq, heads, size))
    key_bias = np.moveaxis(np.broadcast_to(bias, (batch, heads, seq, seq)), 1, -1)
    scores = add(mul(sum_(mul(q, k), axis=-1), size ** -0.5), Tensor(key_bias))
    weights = softmax(scores, axis=2)
    context = sum_(mul(reshape(weights, (batch, seq, seq, heads, 1)), v), axis=2)
    return reshape(context, (batch, seq, d))


def _relative(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _value_and_grads(fn, arrays, proj):
    """fn's output and the gradients of (output * proj).sum() for each array."""
    inputs = [None if a is None else Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        out = fn(*inputs)
        loss = sum_(mul(out, Tensor(proj)))
    backward(tape, loss)
    return out.data, [t.grad for t in inputs if t is not None]


def _assert_matches_reference(fused, reference, arrays, proj):
    got, got_grads = _value_and_grads(fused, arrays, proj)
    want, want_grads = _value_and_grads(reference, arrays, proj)
    assert _relative(got, want) <= FUSED_REL_TOL
    for g, w in zip(got_grads, want_grads, strict=True):
        assert _relative(g, w) <= FUSED_REL_TOL
    # without a tape the primitive computes the same values bitwise
    assert np.array_equal(fused(*(None if a is None else Tensor(a) for a in arrays)).data, got)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=2), st.integers(1, 5),
       st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 31))
def test_linear_matches_composed_reference(lead, k, n, with_bias, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [rng.normal(size=(*lead, k)), rng.normal(size=(k, n)),
              rng.normal(size=n) if with_bias else None]
    _assert_matches_reference(linear, _reference_linear, arrays,
                              rng.normal(size=(*lead, n)))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 31), st.data())
def test_attention_matches_composed_reference(batch, seq, heads, size, seed, data):
    """Padded keys (every row keeps at least one real key) carry MASK_BIAS."""
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    bias = np.where(np.arange(seq) < lengths[:, None], 0.0, MASK_BIAS)[:, None, None, :]
    rng = np.random.Generator(np.random.PCG64(seed))
    d = heads * size
    _assert_matches_reference(
        lambda qkv: attention(qkv, bias, heads),
        lambda qkv: _reference_attention(qkv, bias, heads),
        [rng.normal(size=(batch, seq, 3 * d))], rng.normal(size=(batch, seq, d)))


def _reference_prefix(m, x, skip):
    """The prompt tiled over the batch by a broadcast multiply, then
    concatenated ahead of the slots of x kept from `skip` on."""
    tiled = mul(m, Tensor(np.ones((x.shape[0],) + m.shape)))
    return concat([tiled, x[:, skip:]], axis=1)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 31))
def test_prefix_matches_composed_reference(batch, p, text, d, overwrite, seed):
    """skip 0 puts the prompt ahead of the text; skip p overwrites an earlier one."""
    rng = np.random.Generator(np.random.PCG64(seed))
    skip = p if overwrite else 0
    arrays = [rng.normal(size=(p, d)), rng.normal(size=(batch, skip + text, d))]
    proj = rng.normal(size=(batch, p + text, d))
    got, got_grads = _value_and_grads(lambda m, x: prefix(m, x, skip), arrays, proj)
    want, want_grads = _value_and_grads(lambda m, x: _reference_prefix(m, x, skip), arrays, proj)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert _relative(g, w) <= FUSED_REL_TOL


def test_fused_primitives_record_one_tape_entry(rng):
    x, w, b = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 6))), Tensor(np.zeros(6))
    with Tape() as tape:
        attention(linear(x, w, b), np.zeros((2, 1, 1, 3)), num_heads=2)
    assert len(tape) == 2


def test_fused_primitives_reject_bad_shapes(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 6\)"):
        linear(x, Tensor(np.zeros((5, 6))))
    with pytest.raises(ShapeError, match="bias"):
        linear(x, Tensor(np.zeros((4, 6))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError, match="heads"):
        attention(Tensor(np.zeros((2, 3, 12))), np.zeros((2, 1, 1, 3)), num_heads=3)
    with pytest.raises(ShapeError, match="bias"):
        attention(Tensor(np.zeros((2, 3, 12))), np.zeros((2, 1, 1, 4)), num_heads=2)
    m, x = Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5, 4)))
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(3, 5, 4\)"):
        prefix(Tensor(np.zeros((2, 3))), x, 0)
    with pytest.raises(ShapeError, match=r"\(2, 4\) and \(5, 4\)"):
        prefix(m, Tensor(np.zeros((5, 4))), 0)
    for skip in (-1, 6):
        with pytest.raises(ShapeError, match=f"skip {skip}"):
            prefix(m, x, skip)
