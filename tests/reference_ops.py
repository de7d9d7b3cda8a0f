"""Unfused reference ops for the tests, one tape entry each.

The package computes these only inside its fused primitives (`linear`,
`add_norm`, `ffn`, `attention`, `lstm_scan`, `prefix`) and its fused loss
(`cross_entropy`, which holds `log_softmax`); the tests compose
them into the references those primitives must reproduce, and check each one
against finite differences in test_tensor.py. `unfused_add_norm` and
`unfused_ffn` are the compositions the fused `add_norm` and `ffn` replace.
"""

import numpy as np

from dpmn.errors import ContractError, ShapeError
from dpmn.tensor import LAYER_NORM_EPS, Tensor, _record, _unbroadcast, add, linear, mul


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0
    _record(out, (a,), lambda g: (g * mask,))
    return out


def sigmoid(a: Tensor) -> Tensor:
    """sigmoid(x) = (1 + tanh(x/2)) / 2, the form lstm_scan uses; it never overflows."""
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out = Tensor(y)
    _record(out, (a,), lambda g: (g * y * (1.0 - y),))
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    _record(out, (a,), lambda g: (g * (1.0 - y * y),))
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, computed with max subtraction for stability."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    _record(out, (a,), bw)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """The unfused log-probabilities that cross_entropy computes inside."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    _record(out, (a,), bw)
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale and shift."""
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (a.data - mean) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def bw(g):
        gx = g * gain.data
        dx = inv * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        )
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        return dx, dgain, dbias

    _record(out, (a, gain, bias), bw)
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat of an empty list")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"cannot concatenate shapes {shapes} along axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        offsets = np.cumsum([0] + sizes)
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    _record(out, tuple(tensors), bw)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(a.shape),))
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; the zero/scale mask is drawn from `rng`. Without a
    generator (evaluation) or at rate 0 it is the identity and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return mul(a, Tensor(mask))


def unfused_add_norm(x, y, gain, bias, rate, rng) -> Tensor:
    return layer_norm(add(x, dropout(y, rate, rng)), gain, bias)


def unfused_ffn(x, w1, b1, w2, b2) -> Tensor:
    return linear(relu(linear(x, w1, b1)), w2, b2)
