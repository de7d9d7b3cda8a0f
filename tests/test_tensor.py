"""Op semantics and gradient correctness of the autodiff core."""

import weakref

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
    add_norm,
    attention,
    backward,
    embedding_lookup,
    ffn,
    linear,
    mul,
    prefix,
    slice_,
    sum_,
)

from conftest import max_rel_error, numeric_gradient
from reference_ops import (concat, dropout, layer_norm, log_softmax, relu, reshape, sigmoid,
                           softmax, tanh, unfused_add_norm, unfused_ffn)


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


@pytest.mark.parametrize("ids", [np.array([True, False, True]), np.array([0.0, 2.0]),
                                 np.array([[1.5]]), np.array([], dtype=np.float64)])
def test_embedding_lookup_rejects_ids_that_are_not_integers(ids):
    """A boolean array would select rows as a mask and a float one would
    raise numpy's own IndexError; both are refused as lstm_scan refuses
    lengths that are not integers."""
    with pytest.raises(ShapeError, match="integer ids"):
        embedding_lookup(Tensor(np.ones((4, 2))), ids)


@pytest.mark.parametrize("idx", [np.array([0, 0, 1]), [0, 0, 1], True, np.array([True, False]),
                                 (slice(None), np.array([1, 1])), (0, [1])])
def test_slice_rejects_an_index_that_is_not_basic(idx):
    """An array index can select an element twice, whose gradient the
    scatter would count once (a[[0, 0, 1]] summed would give grad
    [1, 1, 0, 0], not [2, 1, 0, 0])."""
    a = Tensor(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ShapeError, match="basic indexing"):
        slice_(a, idx)
    with pytest.raises(ShapeError, match="basic indexing"):
        a[idx]


def test_slice_takes_ints_slices_none_and_ellipsis(rng):
    a = Tensor(rng.normal(size=(4, 3, 2)))
    for idx in (1, np.int64(-1), slice(1, 3), (Ellipsis, 0), (None, 2, slice(None, None, 2))):
        with Tape() as tape:
            loss = sum_(slice_(a, idx))
        backward(tape, loss)
        want = np.zeros(a.shape)
        want[idx] = 1.0
        assert np.array_equal(a.grad, want), idx
        a.grad = None


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


def test_backward_consumes_the_tape(rng):
    """A second backward over one tape raises and leaves the leaf gradients
    as the first pass left them; len() still counts the recorded entries."""
    x, w = Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(4, 1)))
    with Tape() as tape:
        loss = linear(x, w)
    assert len(tape) == 1
    backward(tape, loss)
    assert len(tape) == 1
    assert np.array_equal(w.grad, x.data.T)
    with pytest.raises(ContractError, match="consumed"):
        backward(tape, loss)
    assert np.array_equal(w.grad, x.data.T)


def test_backward_rejects_a_tape_still_recording(rng):
    x = Tensor(rng.normal(size=(3,)))
    with Tape() as tape:
        loss = sum_(x)
        with pytest.raises(ContractError, match="closed tape"):
            backward(tape, loss)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_releases_what_the_ops_saved(rng):
    """With the tape and the loss still referenced, the softmax weights that
    attention saved for its backward are freed once backward returns."""
    x, w = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 12)))
    with Tape() as tape:
        loss = sum_(attention(linear(x, w), np.zeros((2, 1, 1, 3)), num_heads=2))
    attention_bw = tape._entries[1][2]
    saved = dict(zip(attention_bw.__code__.co_freevars,
                     (cell.cell_contents for cell in attention_bw.__closure__)))
    weights = weakref.ref(saved["weights"])
    del saved, attention_bw
    backward(tape, loss)
    assert weights() is None
    assert x.grad is not None and w.grad is not None


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([add, mul]), st.integers(0, 2 ** 16),
                          st.integers(0, 2 ** 16)), min_size=1, max_size=8),
       st.integers(0, 2 ** 31))
def test_backward_on_any_graph_keeps_leaf_gradients_only(steps, seed):
    """Each step combines two earlier nodes, leaves or op outputs, so nodes
    are reused and some lie off the path to the loss. After backward only
    the leaves hold a gradient, len(tape) is unchanged, and the tape cannot
    be replayed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    leaves = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
    nodes = list(leaves)
    with Tape() as tape:
        for op, i, j in steps:
            nodes.append(op(nodes[i % len(nodes)], nodes[j % len(nodes)]))
        loss = sum_(nodes[-1])
    recorded = len(tape)
    backward(tape, loss)
    assert len(tape) == recorded == len(steps) + 1
    assert all(t.grad is None for t in nodes[len(leaves):] + [loss])
    assert any(t.grad is not None for t in leaves)
    with pytest.raises(ContractError, match="consumed"):
        backward(tape, loss)


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
    scores = add(mul(sum_(mul(q, k), axis=-1), Tensor(size ** -0.5)), Tensor(key_bias))
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


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 2), st.integers(1, 3),
       st.integers(0, 2 ** 31), st.data())
def test_attention_over_leading_queries_matches_the_full_op(batch, seq, heads, size, seed, data):
    """For every `queries` in 1..seq the value is the full op's first rows,
    and the gradient is the full op's under a projection that is zero past
    them: K and V at every row, Q exactly zero at the rows not computed."""
    lengths = np.array(data.draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch)))
    bias = np.where(np.arange(seq) < lengths[:, None], 0.0, MASK_BIAS)[:, None, None, :]
    rng = np.random.Generator(np.random.PCG64(seed))
    d = heads * size
    qkv, proj = rng.normal(size=(batch, seq, 3 * d)), rng.normal(size=(batch, seq, d))
    for queries in range(1, seq + 1):
        cut = proj.copy()
        cut[:, queries:] = 0.0
        got, (got_grad,) = _value_and_grads(lambda t: attention(t, bias, heads, queries),
                                            [qkv], proj[:, :queries])
        want, (want_grad,) = _value_and_grads(lambda t: attention(t, bias, heads), [qkv], cut)
        assert got.shape == (batch, queries, d)
        assert _relative(got, want[:, :queries]) <= 1e-13
        assert _relative(got_grad, want_grad) <= 1e-13
        assert (got_grad[:, queries:, :d] == 0.0).all()
    for queries in (0, seq + 1):
        with pytest.raises(ShapeError, match=f"queries {queries}"):
            attention(Tensor(qkv), bias, heads, queries)


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


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 7),
       st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5]), st.booleans(), st.integers(0, 2 ** 31))
def test_add_norm_matches_the_unfused_chain_bitwise(lead, d, rate, with_rng, seed):
    """Same value, same four gradients and the same generator state after:
    the mask is drawn as dropout drew it, and only when it is applied."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [rng.normal(size=(*lead, d)), rng.normal(size=(*lead, d)),
              rng.uniform(0.5, 1.5, size=d), rng.normal(size=d)]
    proj = rng.normal(size=(*lead, d))
    results = []
    for op in (add_norm, unfused_add_norm):
        gen = np.random.Generator(np.random.PCG64(seed + 1)) if with_rng else None
        out, grads = _value_and_grads(lambda *t: op(*t, rate, gen), arrays, proj)
        results.append((out, grads, None if gen is None else gen.random()))
    (got, got_grads, got_next), (want, want_grads, want_next) = results
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert np.array_equal(g, w)
    assert got_next == want_next


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 5),
       st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 31))
def test_ffn_matches_linear_relu_linear_bitwise(lead, k, f, n, seed):
    """On 2-D and 3-D inputs, with pre-activations of both signs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [rng.normal(size=(*lead, k)), rng.normal(size=(k, f)), rng.normal(size=f),
              rng.normal(size=(f, n)), rng.normal(size=n)]
    proj = rng.normal(size=(*lead, n))
    got, got_grads = _value_and_grads(ffn, arrays, proj)
    want, want_grads = _value_and_grads(unfused_ffn, arrays, proj)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert np.array_equal(g, w)


def _same_bits(a, b):
    """NaN at the same places and the same bits elsewhere, so 0.0 != -0.0."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def test_relu_of_a_pre_activation_is_positive_where_it_was():
    """ffn's backward reads the ReLU mask off its output: relu(pre) > 0
    exactly where pre > 0, for signed zeros, NaN, infinities and subnormals."""
    pre = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    assert np.array_equal(np.maximum(pre, 0.0) > 0, pre > 0)


def test_ffn_matches_linear_relu_linear_at_the_kink_and_on_nan(rng):
    """Hidden columns whose pre-activations are exactly 0.0, 0.0 + -0.0 or
    NaN (zero weight columns plus such biases) give the same value and
    gradients as the unfused chain, bit for bit."""
    w1 = rng.normal(size=(4, 6))
    w1[:, :3] = 0.0
    arrays = [rng.normal(size=(2, 3, 4)), w1, np.array([0.0, -0.0, np.nan, 0.5, -0.5, 1.0]),
              rng.normal(size=(6, 3)), rng.normal(size=3)]
    proj = rng.normal(size=(2, 3, 3))
    got, got_grads = _value_and_grads(ffn, arrays, proj)
    want, want_grads = _value_and_grads(unfused_ffn, arrays, proj)
    assert np.isnan(got).all()  # the NaN column reaches every output
    assert _same_bits(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert _same_bits(g, w)


def test_add_norm_dropout_matches_the_unfused_chain_on_zeros_and_nan(rng):
    """y holding 0.0, -0.0, NaN and infinities, kept or dropped: the same
    value and gradients as dropout then add then layer_norm, bit for bit."""
    y = rng.normal(size=(3, 4, 5))
    y[0, :, :4] = [0.0, -0.0, np.inf, -np.inf]
    y[1, 1, 2] = np.nan
    arrays = [rng.normal(size=(3, 4, 5)), y, rng.uniform(0.5, 1.5, size=5), rng.normal(size=5)]
    proj = rng.normal(size=(3, 4, 5))
    results = []
    for op in (add_norm, unfused_add_norm):
        gen = np.random.Generator(np.random.PCG64(4))
        with np.errstate(invalid="ignore"):  # inf * 0 where an infinity is dropped
            results.append(_value_and_grads(lambda *t: op(*t, 0.5, gen), arrays, proj))
    (got, got_grads), (want, want_grads) = results
    assert np.isnan(got).any() and not np.isnan(got).all()
    assert _same_bits(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert _same_bits(g, w)


def test_add_norm_and_ffn_record_one_tape_entry_each(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    w1, b1 = Tensor(rng.normal(size=(4, 5))), Tensor(np.zeros(5))
    w2, b2 = Tensor(rng.normal(size=(5, 4))), Tensor(np.zeros(4))
    with Tape() as tape:
        add_norm(x, ffn(x, w1, b1, w2, b2), gain, bias, 0.5, rng)
    assert len(tape) == 2


def test_add_norm_and_ffn_reject_bad_shapes_and_rates(rng):
    x, gain = Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\), \(2, 3, 5\)"):
        add_norm(x, Tensor(np.zeros((2, 3, 5))), gain, gain, 0.0, None)
    with pytest.raises(ShapeError, match="gain"):
        add_norm(x, x, Tensor(np.ones(3)), gain, 0.0, None)
    with pytest.raises(ShapeError, match="bias"):
        add_norm(x, x, gain, Tensor(np.ones(5)), 0.0, None)
    for rate in (-0.1, 1.0):
        with pytest.raises(ContractError, match="dropout rate"):
            add_norm(x, x, gain, gain, rate, None)
    w1, b1 = Tensor(np.zeros((4, 5))), Tensor(np.zeros(5))
    w2, b2 = Tensor(np.zeros((5, 2))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match="ffn"):
        ffn(Tensor(np.zeros((2, 3))), w1, b1, w2, b2)
    with pytest.raises(ShapeError, match="ffn"):
        ffn(x, w1, Tensor(np.zeros(4)), w2, b2)
    with pytest.raises(ShapeError, match="ffn"):
        ffn(x, w1, b1, Tensor(np.zeros((4, 2))), b2)
    with pytest.raises(ShapeError, match="ffn"):
        ffn(x, w1, b1, w2, Tensor(np.zeros(3)))


# The gradient check (dpmn.gradcheck) runs the +- perturbations of one input
# as the copies of one call, one after another on the leading batch axis, the
# inputs listed with it tiled to match, and judges each copy by its bytes.
# Each case maps a hypothesis draw and a generator to (op, input arrays,
# {stacked input: inputs tiled with it}) at drawn sizes.

def _lead(data, rows=1):
    """Leading sizes whose product is at least `rows`."""
    return data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)
                     .filter(lambda s: np.prod(s) >= rows))


def _stack_mul(data, rng):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    # b broadcasts over any axis but the batch axis, which the copies extend
    ones = data.draw(st.lists(st.booleans(), min_size=len(shape) - 1, max_size=len(shape) - 1))
    other = [shape[0]] + [1 if one else n for one, n in zip(ones, shape[1:])]
    return mul, [rng.normal(size=shape), rng.normal(size=other)], {0: (1,), 1: (0,)}


def _stack_add_norm(data, rng):
    shape = (*_lead(data), data.draw(st.integers(1, 7)))
    arrays = [rng.normal(size=shape), rng.normal(size=shape),
              rng.normal(size=shape[-1:]), rng.normal(size=shape[-1:])]
    return lambda *t: add_norm(*t, 0.0, None), arrays, {0: (1,), 1: (0,)}


def _stack_slice(data, rng):
    shape = data.draw(st.tuples(*[st.integers(1, 5)] * 3))
    lo = data.draw(st.integers(0, shape[2]))
    idx = (slice(None), data.draw(st.integers(0, shape[1] - 1)),
           slice(lo, data.draw(st.integers(lo, shape[2]))))
    return lambda a: slice_(a, idx), [rng.normal(size=shape)], {0: ()}


def _stack_sum(data, rng):
    # up to 10 summed terms, past the 8 at which numpy's pairwise sum unrolls
    shape = data.draw(st.tuples(*[st.integers(1, 10)] * 3))
    axis = data.draw(st.sampled_from([1, 2, (1, 2)]))
    return lambda a: sum_(a, axis=axis), [rng.normal(size=shape)], {0: ()}


def _stack_prefix(data, rng):
    p, text, d = (data.draw(st.integers(1, 4)) for _ in range(3))
    skip = data.draw(st.integers(0, text))
    arrays = [rng.normal(size=(p, d)), rng.normal(size=(data.draw(st.integers(1, 4)), text, d))]
    return lambda m, x: prefix(m, x, skip), arrays, {1: ()}


def _stack_linear(data, rng):
    """At least two GEMM rows: a one-row product runs as a matrix-vector one."""
    k, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    arrays = [rng.normal(size=(*_lead(data, rows=2), k)), rng.normal(size=(k, n))]
    if data.draw(st.booleans()):
        arrays.append(rng.normal(size=n))
    return linear, arrays, {0: ()}


def _stack_ffn(data, rng):
    k, f, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    arrays = [rng.normal(size=(*_lead(data, rows=2), k)), rng.normal(size=(k, f)),
              rng.normal(size=f), rng.normal(size=(f, n)), rng.normal(size=n)]
    return ffn, arrays, {0: ()}


def _stack_attention(data, rng):
    """The mask bias is a constant per batch row, tiled with the copies."""
    batch, seq, heads, size = (data.draw(st.integers(1, 4)) for _ in range(4))
    queries = data.draw(st.one_of(st.none(), st.integers(1, seq)))
    lengths = rng.integers(1, seq + 1, size=batch)
    bias = np.where(np.arange(seq) < lengths[:, None], 0.0, MASK_BIAS)[:, None, None, :]

    def op(qkv):
        return attention(qkv, np.concatenate([bias] * (qkv.shape[0] // batch)), heads, queries)

    return op, [rng.normal(size=(batch, seq, 3 * heads * size))], {0: ()}


_STACK_CASES = {
    "add": lambda data, rng: (add, [rng.normal(size=(*_lead(data), 5)), rng.normal(size=5)],
                              {0: ()}),
    "mul": _stack_mul, "add_norm": _stack_add_norm, "slice": _stack_slice, "sum": _stack_sum,
    "prefix": _stack_prefix, "linear": _stack_linear, "ffn": _stack_ffn,
    "attention": _stack_attention,
}


@pytest.mark.parametrize("case", list(_STACK_CASES))
@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(0, 2 ** 31), st.data())
def test_copies_stacked_on_the_batch_axis_get_their_lone_calls_bytes(case, k, seed, data):
    rng = np.random.Generator(np.random.PCG64(seed))
    op, arrays, stacks = _STACK_CASES[case](data, rng)
    for i, tiled in stacks.items():
        copies = [rng.normal(size=arrays[i].shape) for _ in range(k)]
        stacked = op(*(Tensor(np.concatenate(copies) if m == i
                              else np.concatenate([a] * k) if m in tiled else a)
                       for m, a in enumerate(arrays))).data
        lone = np.concatenate([op(*(Tensor(c if m == i else a) for m, a in enumerate(arrays))).data
                               for c in copies])
        assert stacked.shape == lone.shape and stacked.tobytes() == lone.tobytes(), i
