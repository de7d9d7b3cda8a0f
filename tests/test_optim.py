"""Adam behavior against closed-form oracles."""

import numpy as np
import pytest

from dpmn.errors import ContractError
from dpmn.optim import Adam
from dpmn.tensor import Tensor


def test_zero_gradient_leaves_parameter_unchanged():
    w = Tensor([1.5, -2.0])
    before = w.data.copy()
    opt = Adam({"w": w}, lr=0.1)
    w.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(w.data, before)


def test_single_step_descends_quadratic():
    # f(w) = w^2 from w=1: gradient 2, so w must decrease
    w = Tensor([1.0])
    opt = Adam({"w": w}, lr=0.1)
    w.grad = 2.0 * w.data
    opt.step()
    assert w.data[0] < 1.0


def test_adam_converges_on_2d_quadratic():
    # f(w) = 0.5 (w - target)^T A (w - target); the closed-form gradient
    # A (w - target) is the oracle for the convergence criterion.
    a = np.array([[3.0, 0.0], [0.0, 1.0]])
    target = np.array([1.0, -2.0])
    w = Tensor([5.0, 4.0])
    opt = Adam({"w": w}, lr=0.05)
    for _ in range(500):
        w.grad = a @ (w.data - target)
        opt.step()
    assert np.linalg.norm(a @ (w.data - target)) < 1e-3


def test_missing_gradient_raises_contract_error():
    w = Tensor([1.0])
    opt = Adam({"w": w}, lr=0.1)
    with pytest.raises(ContractError, match="'w'"):
        opt.step()


def test_timestep_increments_once_per_call():
    w = Tensor([1.0])
    opt = Adam({"w": w}, lr=0.1)
    for expected in (1, 2, 3):
        w.grad = np.ones(1)
        opt.step()
        assert opt.t == expected


def test_zero_grad_clears_to_none():
    w = Tensor([1.0])
    opt = Adam({"w": w}, lr=0.1)
    w.grad = np.ones(1)
    opt.zero_grad()
    assert w.grad is None
