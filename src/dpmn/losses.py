"""Per-task masked cross-entropy and the weighted multi-task total loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor, log_softmax, mul, sum_

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LossWeights:
    """Sub-task loss coefficients; must be non-negative and sum to 1."""

    main: float = 0.4
    auxi1: float = 0.3
    auxi2: float = 0.3

    def __post_init__(self):
        for name, v in (("main", self.main), ("auxi1", self.auxi1), ("auxi2", self.auxi2)):
            if v < 0:
                raise ConfigError(f"loss weight {name} is negative: {v}")
        total = self.main + self.auxi1 + self.auxi2
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"loss weights must sum to 1, got {total!r}")

    def as_tuple(self):
        return (self.main, self.auxi1, self.auxi2)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over examples whose label is present.

    `labels` holds a class index per row, with -1 marking an absent label.
    Absent rows contribute neither loss nor gradient. When every label is
    absent the weights are all zero, so the result is an exact zero that
    still connects to the graph, and downstream parameters receive explicit
    zero gradients rather than none.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch of {n}")
    if labels.max(initial=-1) >= c:
        raise ContractError(f"label {labels.max()} out of range for {c} classes")
    present = labels >= 0
    weights = np.zeros((n, c))
    weights[present, labels[present]] = -1.0 / max(int(present.sum()), 1)
    log_probs = log_softmax(logits, axis=1)
    return sum_(mul(log_probs, Tensor(weights)))


def total_loss(loss_a: Tensor, loss_b: Tensor, loss_c: Tensor, w: LossWeights) -> Tensor:
    """Weighted sum of the three sub-task losses."""
    return mul(loss_a, w.main) + mul(loss_b, w.auxi1) + mul(loss_c, w.auxi2)
