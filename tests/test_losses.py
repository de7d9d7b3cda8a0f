"""Masked cross-entropy and the weighted total loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.errors import ConfigError, ContractError, ShapeError
from dpmn.losses import LossWeights, cross_entropy, total_loss
from dpmn.tensor import Tape, Tensor, add, backward, linear

from conftest import max_rel_error, numeric_gradient
from reference_ops import log_softmax, mul, sum_


def test_confident_correct_prediction_is_near_zero_loss():
    logits = Tensor([[30.0, 0.0], [0.0, 30.0]])
    loss = cross_entropy(logits, np.array([0, 1]))
    assert 0.0 <= loss.item() < 1e-10


def test_uniform_logits_give_log_two():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_all_absent_labels_give_exact_zero_and_zero_grads(rng):
    w = Tensor(rng.normal(size=(4, 2)))
    x = Tensor(rng.normal(size=(3, 4)))
    with Tape() as tape:
        logits = linear(x, w)
        loss = cross_entropy(logits, np.array([-1, -1, -1]))
    assert loss.item() == 0.0
    backward(tape, loss)
    assert np.array_equal(w.grad, np.zeros((4, 2)))


def test_partial_masking_averages_over_present_rows_only(rng):
    logits_values = rng.normal(size=(4, 3))
    full = cross_entropy(Tensor(logits_values[:2]), np.array([0, 2]))
    padded = cross_entropy(Tensor(logits_values), np.array([0, 2, -1, -1]))
    assert padded.item() == full.item()


def test_masked_rows_receive_no_gradient(rng):
    logits = Tensor(rng.normal(size=(3, 2)))
    with Tape() as tape:
        loss = cross_entropy(logits, np.array([0, -1, 1]))
    backward(tape, loss)
    assert np.array_equal(logits.grad[1], np.zeros(2))
    assert np.abs(logits.grad[[0, 2]]).min() > 0


def test_label_out_of_range_rejected():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((1, 2))), np.array([2]))


def test_label_below_minus_one_rejected():
    """Only -1 marks an absent label; -2 is not another way to say it."""
    with pytest.raises(ContractError, match="-2"):
        cross_entropy(Tensor(np.zeros((2, 2))), np.array([-2, 1]))


@pytest.mark.parametrize("shape", [(2,), ()])
def test_logits_not_a_matrix_rejected(shape):
    """Logits below rank 2 are refused; [..., n, c] is the next test's."""
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros(shape)), np.zeros(2, dtype=np.int64))


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 6),
       st.sampled_from([2, 3, 5]), st.sampled_from(["labelled", "one absent", "all absent"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_logits_over_leading_axes_give_each_index_a_lone_calls_loss_and_gradient(
        lead, n, c, absent, moved, seed):
    """Logits [..., n, c] give one loss per leading index and a logits
    gradient, each bit for bit a lone [n, c] call's, with a -1 row or a
    column of labels all absent. On complex logits moved by 1e-30 (the
    gradient check's stacked copies) each loss is a lone call's too."""
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.integers(0, c, size=n)
    if absent == "one absent":
        labels[rng.integers(n)] = -1
    elif absent == "all absent":
        labels[:] = -1
    values = rng.normal(scale=3.0, size=(*lead, n, c))
    if moved:
        values = values + 1e-30j * rng.normal(size=values.shape)
    projection = rng.normal(size=lead)
    logits = Tensor(values.copy())
    with Tape() as tape:
        losses = cross_entropy(logits, labels)
    assert losses.shape == tuple(lead)
    if not moved:
        backward(tape, losses, projection)
    for index in np.ndindex(*lead):
        lone = Tensor(values[index].copy())
        with Tape() as tape:
            part = cross_entropy(lone, labels)
        assert losses.data[index].tobytes() == part.data.tobytes(), index
        if not moved:
            backward(tape, part, projection[index])
            assert logits.grad[index].tobytes() == lone.grad.tobytes(), index


@pytest.mark.parametrize("shape", [(1,), (2,), (2, 1)])
def test_non_scalar_part_rejected_at_the_call(shape):
    """A part whose shape is not the other parts' (here scalars') is refused."""
    with pytest.raises(ShapeError):
        total_loss(Tensor(1.0), Tensor(np.ones(shape)), Tensor(3.0), LossWeights())


def test_cross_entropy_gradients_match_finite_differences(rng):
    logits = Tensor(rng.uniform(-2, 2, size=(5, 3)))
    labels = np.array([0, 2, -1, 1, 1])
    with Tape() as tape:
        loss = cross_entropy(logits, labels)
    backward(tape, loss)

    def value():
        return cross_entropy(Tensor(logits.data), labels).item()

    assert max_rel_error(logits.grad, numeric_gradient(value, logits.data)) < 1e-6


def test_total_loss_over_parts_of_one_shape_is_each_index_s_scalar_total(rng):
    """Parts of one shape combine elementwise: each index's total, and each
    part's gradient, is a scalar call's bit for bit."""
    w = LossWeights(0.4, 0.35, 0.25)
    values = [rng.normal(size=(2, 3)) for _ in range(3)]
    projection = rng.normal(size=(2, 3))
    parts = [Tensor(v) for v in values]
    with Tape() as tape:
        total = total_loss(*parts, w)
    backward(tape, total, projection)
    for index in np.ndindex(2, 3):
        lone = [Tensor(v[index]) for v in values]
        with Tape() as tape:
            scalar = total_loss(*lone, w)
        backward(tape, scalar, projection[index])
        assert total.data[index].tobytes() == scalar.data.tobytes(), index
        for part, one in zip(parts, lone):
            assert part.grad[index].tobytes() == one.grad.tobytes(), index


@pytest.mark.parametrize("shapes", [((2,), (2,), (3,)), ((2, 1), (2,), (2,)), ((), (), (1,))])
def test_parts_of_different_shapes_rejected_at_the_call(shapes):
    with pytest.raises(ShapeError, match="one shape"):
        total_loss(*(Tensor(np.ones(shape)) for shape in shapes), LossWeights())


def test_single_task_weights_reproduce_task_loss_exactly(rng):
    la = Tensor(float(rng.uniform(0.1, 2)))
    lb = Tensor(float(rng.uniform(0.1, 2)))
    lc = Tensor(float(rng.uniform(0.1, 2)))
    total = total_loss(la, lb, lc, LossWeights(1.0, 0.0, 0.0))
    assert total.item() == la.item()


def test_weighted_sum_arithmetic():
    total = total_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0), LossWeights(0.4, 0.3, 0.3))
    assert total.item() == pytest.approx(1.9, abs=1e-15)


def test_total_loss_is_linear_in_each_subloss(rng):
    w = LossWeights(0.4, 0.3, 0.3)
    base = (1.0, 2.0, 3.0)
    for i in range(3):
        for scale in (2.0, 5.0):
            bumped = list(base)
            bumped[i] = base[i] + scale
            t0 = total_loss(*(Tensor(v) for v in base), w).item()
            t1 = total_loss(*(Tensor(v) for v in bumped), w).item()
            assert t1 - t0 == pytest.approx((w.main, w.auxi1, w.auxi2)[i] * scale, abs=1e-12)


def test_total_gradient_is_weighted_sum_of_task_gradients(rng):
    """Shared-parameter gradient decomposes across tasks to 1e-10."""
    shared = Tensor(rng.normal(size=(3, 4)))
    heads = [Tensor(rng.normal(size=(4, 2))) for _ in range(3)]
    labels = [np.array([0, 1, 1]), np.array([1, -1, 0]), np.array([-1, 0, 1])]
    w = LossWeights(0.4, 0.3, 0.3)

    per_task = []
    for head, lab in zip(heads, labels):
        shared.grad = None
        with Tape() as tape:
            loss = cross_entropy(linear(shared, head), lab)
        backward(tape, loss)
        per_task.append(shared.grad.copy())

    shared.grad = None
    with Tape() as tape:
        losses = [cross_entropy(linear(shared, h), l) for h, l in zip(heads, labels)]
        total = total_loss(*losses, w)
    backward(tape, total)

    combined = sum(c * g for c, g in zip((w.main, w.auxi1, w.auxi2), per_task))
    assert np.abs(shared.grad - combined).max() <= 1e-10


def test_weight_sum_violation_rejected_at_construction():
    with pytest.raises(ConfigError):
        LossWeights(0.5, 0.3, 0.3)
    with pytest.raises(ConfigError):
        LossWeights(0.4, 0.3, 0.3 + 1e-6)
    # within tolerance is fine
    LossWeights(0.4, 0.3, 0.3 + 1e-10)


def test_negative_weight_rejected():
    with pytest.raises(ConfigError):
        LossWeights(1.2, -0.1, -0.1)


def _unfused_total(logits, labels, w):
    """The loss composed of one-entry ops: per task log_softmax, a mul by a
    constant weights tensor and a sum, then a mul by each task weight and
    two adds."""
    parts = []
    for x, lab in zip(logits, labels):
        present = lab >= 0
        weights = np.zeros(x.shape)
        weights[present, lab[present]] = -1.0 / max(int(present.sum()), 1)
        parts.append(sum_(mul(log_softmax(x, axis=1), Tensor(weights))))
    a, b, c = parts
    total = add(add(mul(a, Tensor(w.main)), mul(b, Tensor(w.auxi1))), mul(c, Tensor(w.auxi2)))
    return total, parts


@st.composite
def _loss_inputs(draw):
    n, c = draw(st.integers(1, 8)), draw(st.sampled_from([2, 3]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    logits = [rng.normal(scale=draw(st.sampled_from([0.1, 3.0, 30.0])), size=(n, c))
              for _ in range(3)]
    labels = [np.array(draw(st.lists(st.integers(-1, c - 1), min_size=n, max_size=n)))
              for _ in range(3)]
    all_absent = draw(st.sampled_from([None, 0, 1, 2]))
    if all_absent is not None:
        labels[all_absent][:] = -1
    split = draw(st.sampled_from(["default", "main only", "random"]))
    if split == "default":
        w = LossWeights(0.4, 0.3, 0.3)
    elif split == "main only":
        w = LossWeights(1.0, 0.0, 0.0)
    else:
        main = draw(st.floats(0.0, 1.0))
        auxi1 = draw(st.floats(0.0, 1.0 - main))
        w = LossWeights(main, auxi1, 1.0 - main - auxi1)
    return logits, labels, w


@settings(deadline=None, max_examples=200)
@given(_loss_inputs())
def test_fused_loss_is_bitwise_the_unfused_chain(inputs):
    """cross_entropy then total_loss give the total, each part and the
    logits' gradients of the unfused chain bit for bit, signed zeros
    included, in four tape entries; no constant is a leaf that collects a
    gradient."""
    values, labels, w = inputs
    fused_logits = [Tensor(v.copy()) for v in values]
    with Tape() as tape:
        parts = [cross_entropy(x, lab) for x, lab in zip(fused_logits, labels)]
        assert len(tape) == 3
        total = total_loss(*parts, w)
        assert len(tape) == 4
    parents = [p for _, entry_parents, _ in tape._entries for p in entry_parents]
    fused_values = [total.data.copy()] + [p.data.copy() for p in parts]
    backward(tape, total)
    assert [p for p in parents if p.grad is not None] == fused_logits

    unfused_logits = [Tensor(v.copy()) for v in values]
    with Tape() as tape:
        total, parts = _unfused_total(unfused_logits, labels, w)
    unfused_values = [total.data.copy()] + [p.data.copy() for p in parts]
    backward(tape, total)

    for fused, unfused in zip(fused_values, unfused_values):
        assert fused.tobytes() == unfused.tobytes()
    for fused, unfused in zip(fused_logits, unfused_logits):
        assert fused.grad.tobytes() == unfused.grad.tobytes()
    for t, lab in enumerate(labels):
        if (lab < 0).all():
            assert fused_values[1 + t] == 0.0
