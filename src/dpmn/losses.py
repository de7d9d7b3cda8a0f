"""Masked per-task cross-entropy and the weighted total loss, one tape entry each."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, _record

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LossWeights:
    """Sub-task loss coefficients; must be non-negative and sum to 1."""

    main: float = 0.4
    auxi1: float = 0.3
    auxi2: float = 0.3

    def __post_init__(self):
        for name, v in (("main", self.main), ("auxi1", self.auxi1), ("auxi2", self.auxi2)):
            if not v >= 0:  # False for NaN too
                raise ConfigError(f"loss weight {name} must be a non-negative number, got {v}")
        total = self.main + self.auxi1 + self.auxi2
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"loss weights must sum to 1, got {total!r}")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over examples whose label is present.

    `labels` holds a class index per row, with -1 marking an absent label.
    Absent rows contribute neither loss nor gradient. When every label is
    absent the weights are all zero, so the result is an exact zero that
    still connects to the graph, and downstream parameters receive explicit
    zero gradients rather than none. Logits [..., n, c] give one loss per
    leading index, and its gradient, each bit for bit a lone [n, c] call's.
    """
    if logits.ndim < 2:
        raise ShapeError(f"cross_entropy needs logits [..., n, c], got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch of {n}")
    bad = labels[(labels < -1) | (labels >= c)]
    if bad.size:
        raise ContractError(f"label {bad[0]} is neither one of {c} classes nor -1 (absent)")
    present = labels >= 0
    weights = np.zeros((n, c))
    weights[present, labels[present]] = -1.0 / max(int(present.sum()), 1)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor((log_probs * weights).sum(axis=(-2, -1)))

    def bw(g):
        gw = g[..., None, None] * weights
        return (gw - np.exp(log_probs) * gw.sum(axis=-1, keepdims=True),)

    _record(out, (logits,), bw)
    return out


def total_loss(loss_a: Tensor, loss_b: Tensor, loss_c: Tensor, w: LossWeights) -> Tensor:
    """Weighted sum of the three sub-task losses, elementwise over parts of one shape."""
    parts = (loss_a, loss_b, loss_c)
    if len({p.shape for p in parts}) != 1:
        raise ShapeError(f"total_loss needs parts of one shape, got {[p.shape for p in parts]}")
    out = Tensor((loss_a.data * w.main + loss_b.data * w.auxi1) + loss_c.data * w.auxi2)
    _record(out, parts, lambda g: (g * w.main, g * w.auxi1, g * w.auxi2))
    return out
