"""BERT-style transformer encoder with continuous prompt prefixes.

The prompt occupies the first p_n sequence positions. Prefix matrix 0 is
injected ahead of layer 0, and each further matrix i overwrites the prompt
slots before layer i, so the bank's matrix count alone sets the form: one
matrix is the light form, one per layer the deep form. Attention is
unmasked toward prompt positions, and padding stays masked.

Residual ordering is post-layer-norm, matching the original BERT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .prompt import PrefixBank, text_budget
from .tensor import (
    INIT_STD,
    ParameterStore,
    Tensor,
    add_norm,
    attention,
    embedding_lookup,
    ffn,
    linear,
    prefix,
)

MASK_BIAS = -1e9  # large enough that masked attention weights underflow to 0.0


@dataclass(frozen=True)
class EncoderConfig:
    """The encoder's sizes; TrainConfig.encoder_config builds one."""

    vocab_size: int
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    max_seq_len: int
    dropout: float

    def __post_init__(self):
        for name in ("vocab_size", "num_layers", "hidden_size", "num_heads",
                     "ffn_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


class TransformerLayer:
    def __init__(self, index: int, config: EncoderConfig, store: ParameterStore):
        d, f = config.hidden_size, config.ffn_size
        pre = f"layer{index}"
        self.num_heads = config.num_heads
        # Q|K|V side by side, as `attention` reads them: three d x d draws in order.
        # Still `wq`: perfbench names each layer's span by `layer.wq.name`.
        self.wq = store.new(f"{pre}.attention.wqkv", (d, 3 * d),
                            lambda rng: np.hstack(rng.normal(0.0, INIT_STD, size=(3, d, d))))
        self.bqkv = store.new(f"{pre}.attention.bqkv", (3 * d,), 0.0)
        self.wo = store.new(f"{pre}.attention.wo", (d, d))
        self.bo = store.new(f"{pre}.attention.bo", (d,), 0.0)
        self.attn_gain = store.new(f"{pre}.attention_norm.gain", (d,), 1.0)
        self.attn_bias = store.new(f"{pre}.attention_norm.bias", (d,), 0.0)
        self.ffn_w1 = store.new(f"{pre}.ffn.w1", (d, f))
        self.ffn_b1 = store.new(f"{pre}.ffn.b1", (f,), 0.0)
        self.ffn_w2 = store.new(f"{pre}.ffn.w2", (f, d))
        self.ffn_b2 = store.new(f"{pre}.ffn.b2", (d,), 0.0)
        self.ffn_gain = store.new(f"{pre}.ffn_norm.gain", (d,), 1.0)
        self.ffn_bias = store.new(f"{pre}.ffn_norm.bias", (d,), 0.0)

    def forward(self, x: Tensor, attn_bias: np.ndarray, dropout_rate: float,
                rng: np.random.Generator | None, queries: int | None = None) -> Tensor:
        """The layer's output at the first `queries` positions (all when
        None), shape [batch, queries, d]. Keys and values cover every
        position, so the QKV projection still runs over the whole sequence."""
        context = attention(linear(x, self.wq, self.bqkv), attn_bias, self.num_heads, queries)
        if queries is not None:
            x = x[:, :queries]
        x = add_norm(x, linear(context, self.wo, self.bo), self.attn_gain, self.attn_bias,
                     dropout_rate, rng)
        return add_norm(x, ffn(x, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2),
                        self.ffn_gain, self.ffn_bias, dropout_rate, rng)


class EncoderStack:
    """Token/position embeddings plus a stack of transformer layers, with
    every parameter created in `store` under a unique, stable name."""

    def __init__(self, config: EncoderConfig, store: ParameterStore):
        self.config = config
        d = config.hidden_size
        self.token_emb = store.new("embedding.token", (config.vocab_size, d))
        self.pos_emb = store.new("embedding.position", (config.max_seq_len, d))
        self.layers = [TransformerLayer(i, config, store) for i in range(config.num_layers)]

    def embed(self, token_ids: np.ndarray, prompt_len: int = 0) -> Tensor:
        """Token plus position embeddings, with positions offset by the
        prompt length so prompt slots own positions 0..p_n-1."""
        token_ids = np.asarray(token_ids)
        seq = token_ids.shape[1]
        limit = text_budget(self.config.max_seq_len, prompt_len)
        if seq > limit:
            raise ContractError(
                f"sequence length {seq} exceeds max_seq_len - p_n = {limit}"
            )
        tok = embedding_lookup(self.token_emb, token_ids)
        positions = np.arange(prompt_len, prompt_len + seq)
        return tok + embedding_lookup(self.pos_emb, positions)


def attention_bias(bank: PrefixBank, input_emb: Tensor, lengths: np.ndarray) -> np.ndarray:
    """What attention adds to its scores, [batch, 1, 1, p_n + T]: 0 toward a
    row's `lengths` real positions, prompt slots included, and MASK_BIAS
    toward the positions after them."""
    slots = np.arange(bank.prompt_len + input_emb.shape[1])
    return np.where(slots < lengths[:, None], 0.0, MASK_BIAS)[:, None, None, :]


def encode_layer(stack: EncoderStack, bank: PrefixBank, i: int, x: Tensor,
                 attn_bias: np.ndarray, dropout_rng: np.random.Generator | None = None,
                 queries: int | None = None) -> Tensor:
    """Layer i over x, the previous layer's output (the text embeddings ahead
    of layer 0). Layer 0 consumes prefix matrix 0 ahead of the text; every
    later layer i that has a matrix i in the bank first overwrites the
    prompt slots with it. Only the last layer is cut short, to its first
    `queries` positions (all when None): every earlier position feeds its
    keys and values."""
    if i < len(bank.matrices):
        x = prefix(bank.matrices[i], x, skip=bank.prompt_len if i else 0)
    last = i == len(stack.layers) - 1
    return stack.layers[i].forward(x, attn_bias, stack.config.dropout, dropout_rng,
                                   queries if last else None)


def encode(stack: EncoderStack, input_emb: Tensor, bank: PrefixBank,
           lengths: np.ndarray, dropout_rng: np.random.Generator | None = None,
           queries: int | None = None, layer_inputs: list | None = None) -> Tensor:
    """Run the full stack over prompt prefix + text, layer by layer
    (`encode_layer`), attention masked by `attention_bias`.

    Returns the last layer's hidden sequence at its first `queries`
    positions, shape [batch, queries, hidden]; when None, all p_n + T of
    them. A `layer_inputs` list receives each layer's input x, in order, so
    a caller can run the stack again from any layer.
    """
    attn_bias = attention_bias(bank, input_emb, lengths)
    x = input_emb
    for i in range(len(stack.layers)):
        if layer_inputs is not None:
            layer_inputs.append(x)
        x = encode_layer(stack, bank, i, x, attn_bias, dropout_rng, queries)
    return x
