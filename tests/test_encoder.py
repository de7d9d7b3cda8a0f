"""Encoder: embeddings, prefix injection, masking, tuning strategies."""

from dataclasses import replace

import numpy as np
import pytest

from dpmn.encoder import (
    MASK_BIAS,
    EncoderConfig,
    EncoderStack,
    TransformerLayer,
    encode,
)
from dpmn.errors import ConfigError, ContractError, EmbeddingIndexError
from dpmn.prompt import PromptConfig, init_prompt
from dpmn.tensor import Tape, Tensor, backward

from conftest import make_store
from reference_ops import softmax

CFG = EncoderConfig(vocab_size=11, num_layers=2, hidden_size=8, num_heads=2,
                    ffn_size=16, max_seq_len=10, dropout=0.0)


def _stack(seed=0, cfg=CFG):
    return EncoderStack(cfg, make_store(seed))


def _bank(stack, length=1, form="deep", seed=1):
    cfg = PromptConfig(length=length, form=form)
    return init_prompt(cfg, stack.config, stack.token_emb.data, make_store(), seed)


def test_embed_pad_only_sequence():
    stack = _stack()
    out = stack.embed(np.array([[0]]), prompt_len=2)
    expected = stack.token_emb.data[0] + stack.pos_emb.data[2]
    assert np.array_equal(out.data[0, 0], expected)


def test_embed_identical_rows_give_identical_slices():
    stack = _stack()
    ids = np.array([[2, 5, 7], [2, 5, 7]])
    out = stack.embed(ids, prompt_len=1)
    assert np.array_equal(out.data[0], out.data[1])


def test_embed_sequence_budget_boundary():
    stack = _stack()
    p = 3
    fits = np.zeros((1, CFG.max_seq_len - p), dtype=np.int64)
    stack.embed(fits, prompt_len=p)
    overflow = np.zeros((1, CFG.max_seq_len - p + 1), dtype=np.int64)
    with pytest.raises(ContractError, match="max_seq_len"):
        stack.embed(overflow, prompt_len=p)


def test_embed_rejects_out_of_range_id():
    stack = _stack()
    with pytest.raises(EmbeddingIndexError):
        stack.embed(np.array([[99]]))


def _run(stack, bank, ids, lengths=None):
    """encode over ids; `lengths` counts text tokens, all of them by default."""
    lengths = np.full(len(ids), ids.shape[1]) if lengths is None else np.array(lengths)
    emb = stack.embed(ids, prompt_len=bank.prompt_len)
    return encode(stack, emb, bank, lengths + bank.prompt_len)


def test_zero_length_prompt_gives_vanilla_transformer_shape():
    stack = _stack()
    bank = _bank(stack, length=0, form="light")
    ids = np.array([[2, 3, 4]])
    out = _run(stack, bank, ids)
    assert out.shape == (1, 3, CFG.hidden_size)


def test_output_shape_includes_prompt_positions():
    stack = _stack()
    bank = _bank(stack, length=2)
    out = _run(stack, bank, np.array([[2, 3, 4], [5, 6, 0]]), lengths=[3, 2])
    assert out.shape == (2, 5, CFG.hidden_size)


def test_deep_and_light_forms_differ_on_generic_input():
    ids = np.array([[2, 3, 4, 5]])
    deep_stack = _stack(seed=0)
    deep = _run(deep_stack, _bank(deep_stack, 1, "deep"), ids)
    light_stack = _stack(seed=0)
    light = _run(light_stack, _bank(light_stack, 1, "light"), ids)
    assert not np.allclose(deep.data, light.data)


def test_gradients_reach_every_deep_prefix_matrix():
    stack = _stack()
    bank = _bank(stack, length=2)
    ids = np.array([[2, 3, 4]])
    with Tape() as tape:
        out = _run(stack, bank, ids)
    backward(tape, out, np.ones(out.shape))
    assert len(bank.matrices) == CFG.num_layers
    for m in bank.matrices:
        assert m.grad is not None and np.abs(m.grad).max() > 0


def test_deep_layers_replace_prompt_slots(monkeypatch):
    """Every layer i >= 1 sees exactly prefix[i] in the prompt positions,
    no matter what the previous layer wrote there."""
    stack = _stack()
    bank = _bank(stack, length=2)
    seen = []
    original = TransformerLayer.forward

    def spy(self, x, attn_bias, rng=None, queries=None):
        seen.append(x.data[:, : bank.prompt_len, :].copy())
        return original(self, x, attn_bias, rng, queries)

    monkeypatch.setattr(TransformerLayer, "forward", spy)
    _run(stack, bank, np.array([[2, 3, 4], [5, 6, 7]]))
    assert len(seen) == CFG.num_layers
    for i, slots in enumerate(seen):
        for row in slots:  # broadcast over the batch
            assert np.array_equal(row, bank.matrices[i].data)


def test_light_prefix_flows_through_after_layer_zero(monkeypatch):
    stack = _stack()
    bank = _bank(stack, length=2, form="light")
    seen = []
    original = TransformerLayer.forward

    def spy(self, x, attn_bias, rng=None, queries=None):
        seen.append(x.data[:, :2, :].copy())
        return original(self, x, attn_bias, rng, queries)

    monkeypatch.setattr(TransformerLayer, "forward", spy)
    _run(stack, bank, np.array([[2, 3, 4]]))
    assert np.array_equal(seen[0][0], bank.matrices[0].data)
    # layer 1 input is whatever layer 0 produced, not the prefix
    assert not np.allclose(seen[1][0], bank.matrices[0].data)


def test_masked_attention_weight_is_negligible():
    # mechanism: the additive bias drives masked weights to exact zero
    scores = Tensor(np.array([[0.3, -0.2, MASK_BIAS]]))
    weights = softmax(scores, axis=1).data
    assert weights[0, 2] < 1e-9
    # wiring: padded positions do not influence real positions' outputs
    stack = _stack()
    bank = _bank(stack, length=1)
    short = _run(stack, bank, np.array([[2, 3]]))
    padded = _run(stack, bank, np.array([[2, 3, 0, 0]]), lengths=[2])
    assert np.allclose(short.data, padded.data[:, :3, :], atol=1e-12, rtol=0)


def test_transformer_layer_records_six_tape_entries(rng):
    """The packed QKV linear, attention, the output linear, add_norm, ffn
    and add_norm."""
    layer = _stack().layers[0]
    x = Tensor(rng.normal(size=(2, 5, CFG.hidden_size)))
    bias = np.zeros((2, 1, 1, 5))
    with Tape() as tape:
        layer.forward(x, bias)
    assert len(tape) == 6


@pytest.mark.parametrize("length,form,matrices", [(2, "deep", CFG.num_layers), (2, "light", 1),
                                                  (0, "light", 0)])
def test_encode_records_one_tape_entry_per_prefix_matrix(length, form, matrices):
    """Beyond the layers' six entries each, encode records one `prefix`
    per matrix in the bank and nothing else."""
    stack = _stack()
    bank = _bank(stack, length=length, form=form)
    ids = np.array([[2, 3, 4], [5, 6, 0]])
    emb = stack.embed(ids, prompt_len=bank.prompt_len)
    with Tape() as tape:
        encode(stack, emb, bank, np.array([3, 2]) + bank.prompt_len)
    assert len(bank.matrices) == matrices
    assert len(tape) == 6 * CFG.num_layers + matrices


def test_encode_is_permutation_equivariant_over_batch():
    stack = _stack()
    bank = _bank(stack, length=1)
    ids = np.array([[2, 3, 4], [5, 6, 7], [8, 9, 10]])
    out = _run(stack, bank, ids)
    perm = [2, 0, 1]
    out_perm = _run(stack, bank, ids[perm])
    assert np.array_equal(out_perm.data, out.data[perm])


def test_parameter_count_identities():
    for layers, p_n, d in ((2, 1, 16), (4, 2, 64)):
        cfg = EncoderConfig(vocab_size=9, num_layers=layers, hidden_size=d,
                            num_heads=2, ffn_size=2 * d, max_seq_len=16, dropout=0.0)
        stack = _stack(cfg=cfg)
        deep = init_prompt(PromptConfig(length=p_n, form="deep"), cfg,
                           stack.token_emb.data, make_store(), 0)
        light = init_prompt(PromptConfig(length=p_n, form="light"), cfg,
                            stack.token_emb.data, make_store(), 0)
        assert deep.value_count() == layers * p_n * d
        assert light.value_count() == p_n * d


def test_config_validation():
    with pytest.raises(ConfigError):
        replace(CFG, hidden_size=10, num_heads=3)
    with pytest.raises(ConfigError):
        replace(CFG, vocab_size=0)
    with pytest.raises(ConfigError):
        replace(CFG, dropout=1.0)
