"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of a core drifts by tens of percent over tens of
seconds as other tenants come and go; CPU time moves with wall time, and no
run length averages the drift out. The kernel below is a miniature of the
work dpmn does (small float64 matmuls and ufuncs recorded on a tape of
Python closures, then replayed backward), so the drift slows it about as
much as it slows dpmn's training steps; memory-bound work such as a
checkpoint save slows more. It never changes: its time at nominal speed,
REFERENCE_S, fixes the scale of every normalised metric.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0015   # one kernel call in an uncontended phase, 2-vCPU x86-64 host
REPS = 16
_STEPS, _BATCH, _WIDTH = 30, 32, 32

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(_BATCH, _STEPS, _WIDTH))
_W = _rng.normal(size=(_WIDTH, 4 * _WIDTH)) * 0.1


class _Node:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = data
        self.grad = None


def kernel() -> float:
    tape = []
    w = _Node(_W)
    h = None
    for t in range(_STEPS):
        x = _Node(_X[:, t, :])
        g = _Node(x.data @ w.data)
        tape.append((g, (x, w), lambda gg, x=x: (gg @ w.data.T, x.data.T @ gg)))
        s = _Node(1.0 / (1.0 + np.exp(-g.data)))
        tape.append((s, (g,), lambda gg, s=s: (gg * s.data * (1.0 - s.data),)))
        h = _Node(np.tanh(s.data[:, :_WIDTH]))
        pad = np.zeros((_BATCH, 3 * _WIDTH))
        tape.append((h, (s,), lambda gg, h=h, pad=pad:
                     (np.concatenate([gg * (1.0 - h.data ** 2), pad], axis=1),)))
    h.grad = np.ones_like(h.data)
    for out, parents, backward in reversed(tape):
        if out.grad is None:
            continue
        for parent, grad in zip(parents, backward(out.grad)):
            parent.grad = grad if parent.grad is None else parent.grad + grad
    return float(w.grad[0, 0])


def slowdown() -> float:
    """Current kernel time over REFERENCE_S: 1.0 at nominal speed, 1.5 when
    the machine runs a third slower."""
    started = perf_counter()
    for _ in range(REPS):
        kernel()
    return (perf_counter() - started) / REPS / REFERENCE_S


class Clock:
    """Times operations and the machine's slowdown around each of them.

    The kernel runs between consecutive operations, so every operation is
    bracketed by a measurement just before and just after it; its factor is
    the mean of the two.
    """

    def __init__(self):
        kernel()  # first calls pay for lazy set-up inside numpy
        self._before = slowdown()
        self.factors: list[float] = []

    def measure(self, fn, *args):
        """(fn's result, wall seconds, slowdown factor)."""
        started = perf_counter()
        try:
            result = fn(*args)
            elapsed = perf_counter() - started
        finally:
            after = slowdown()
            factor = (self._before + after) / 2
            self._before = after
            self.factors.append(factor)
        return result, elapsed, factor
