"""Adam over a named parameter set.

Parameters are trainable Tensors keyed by name. A missing gradient at
step() time means the parameter never appeared on the tape, which is how
accidental graph detachment gets caught.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; the timestep advances once per step() call."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(
                    f"parameter {name!r} has no gradient; it is detached from the loss"
                )
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
