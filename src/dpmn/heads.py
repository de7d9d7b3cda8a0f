"""Per-task classification heads over the encoder's shared representation.

The main head runs a Bi-LSTM across the sequence, concatenates the forward
state at the last real position with the backward state after a right-to-
left scan from that position, and classifies through a two-layer ReLU FFN.
A linear head over the first sequence position is kept for ablations.

A model's heads, all of one kind, read the encoder output together
(`read`), and each classifies its own block of what they read
(`classify`): Bi-LSTM heads run all their directions as one `lstm_scan`,
head j's [forward | backward] states being block j; linear heads read the
encoder output itself.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import ParameterStore, Tensor, ffn, linear, lstm_scan


class BiLstmFfnHead:
    """Bi-LSTM over the shared sequence, then two linear layers with ReLU."""

    reads = None  # leading sequence positions the head reads: all of them

    def __init__(self, input_size: int, lstm_hidden: int, ffn_hidden: int,
                 n_classes: int, store: ParameterStore, name: str):
        gates = 4 * lstm_hidden
        self.directions = tuple(
            (store.new(f"{name}.lstm_{side}.w_x", (input_size, gates)),
             store.new(f"{name}.lstm_{side}.w_h", (lstm_hidden, gates)),
             store.new(f"{name}.lstm_{side}.b", (gates,), 0.0), reverse)
            for side, reverse in (("forward", False), ("backward", True)))
        self.w_f1 = store.new(f"{name}.ffn.w1", (2 * lstm_hidden, ffn_hidden))
        self.b_f1 = store.new(f"{name}.ffn.b1", (ffn_hidden,), 0.0)
        self.w_f2 = store.new(f"{name}.ffn.w2", (ffn_hidden, n_classes))
        self.b_f2 = store.new(f"{name}.ffn.b2", (n_classes,), 0.0)

    @staticmethod
    def read(heads, shared: Tensor, lengths: np.ndarray) -> Tensor:
        return BiLstmFfnHead.bilstm(heads, shared, lengths)

    @staticmethod
    def bilstm(heads, shared: Tensor, lengths: np.ndarray) -> Tensor:
        """Final states of both directions of every head, [batch, 2h * len(heads)]."""
        lengths = np.asarray(lengths)
        if (lengths < 1).any():
            raise ContractError("every sequence must have at least one real position")
        return lstm_scan(shared, lengths, [d for head in heads for d in head.directions])

    def ffn(self, states: Tensor) -> Tensor:
        return ffn(states, self.w_f1, self.b_f1, self.w_f2, self.b_f2)

    def classify(self, states: Tensor, block: int) -> Tensor:
        width = self.w_f1.shape[0]
        return self.ffn(states[:, block * width:(block + 1) * width])


class LinearHead:
    """Single linear layer over the first sequence position's hidden vector."""

    reads = 1

    def __init__(self, input_size: int, n_classes: int, store: ParameterStore, name: str):
        self.w = store.new(f"{name}.w", (input_size, n_classes))
        self.b = store.new(f"{name}.b", (n_classes,), 0.0)

    @staticmethod
    def read(heads, shared: Tensor, lengths: np.ndarray) -> Tensor:
        return shared

    def classify(self, shared: Tensor, block: int) -> Tensor:
        return linear(shared[:, 0, :], self.w, self.b)


HEAD_KINDS = ("bilstm-ffn", "linear")


def make_head(kind: str, input_size: int, lstm_hidden: int, ffn_hidden: int,
              n_classes: int, store: ParameterStore, name: str):
    if kind == "bilstm-ffn":
        return BiLstmFfnHead(input_size, lstm_hidden, ffn_hidden, n_classes, store, name)
    if kind == "linear":
        return LinearHead(input_size, n_classes, store, name)
    raise ConfigError(f"head kind must be one of {HEAD_KINDS}, got {kind!r}")
