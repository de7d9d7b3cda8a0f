"""Prompt construction: initialization, validation, and the sweep grid."""

import numpy as np
import pytest

from dpmn.encoder import EncoderConfig
from dpmn.errors import ConfigError, EmbeddingIndexError
from dpmn.prompt import PromptConfig, init_prompt, sweep_configs

from conftest import make_store

ENC = EncoderConfig(vocab_size=20, num_layers=3, hidden_size=8, num_heads=2,
                    ffn_size=16, max_seq_len=12, dropout=0.0)


def _table(rng):
    return rng.normal(size=(ENC.vocab_size, ENC.hidden_size))


def test_token_init_copies_embedding_rows_into_every_layer(rng):
    table = _table(rng)
    cfg = PromptConfig(length=1, form="deep", init="token", token_ids=(7,))
    store = make_store()
    bank = init_prompt(cfg, ENC, table, store, rng_seed=0)
    assert len(bank.matrices) == ENC.num_layers
    for m in bank.matrices:
        assert np.array_equal(m.data[0], table[7])
        assert store.tensors[m.name] is m


def test_token_init_matrices_are_independent_copies(rng):
    table = _table(rng)
    cfg = PromptConfig(length=2, form="deep", init="token", token_ids=(3, 4))
    bank = init_prompt(cfg, ENC, table, make_store(), rng_seed=0)
    bank.matrices[0].data[0, 0] += 1.0
    assert bank.matrices[1].data[0, 0] == table[3, 0]


def test_random_init_is_deterministic_given_seed(rng):
    table = _table(rng)
    cfg = PromptConfig(length=2, form="deep", init="random")
    a = init_prompt(cfg, ENC, table, make_store(), rng_seed=42)
    b = init_prompt(cfg, ENC, table, make_store(), rng_seed=42)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma.data, mb.data)
    c = init_prompt(cfg, ENC, table, make_store(), rng_seed=43)
    assert not np.array_equal(a.matrices[0].data, c.matrices[0].data)


def test_best_reported_settings_are_constructible():
    # the tuned settings: deep form, short prompts, token or random init,
    # full lm-plus-prompt tuning
    PromptConfig(length=1, form="deep", init="token", tuning="lm-plus-prompt")
    PromptConfig(length=2, form="deep", init="token", tuning="lm-plus-prompt")
    PromptConfig(length=1, form="light", init="random", tuning="lm-plus-prompt")


def test_parameter_counts_by_form(rng):
    table = _table(rng)
    deep = init_prompt(PromptConfig(length=2, form="deep"), ENC, table, make_store(), 0)
    light = init_prompt(PromptConfig(length=2, form="light"), ENC, table, make_store(), 0)
    d, L, p = ENC.hidden_size, ENC.num_layers, 2
    assert deep.value_count() == L * p * d
    assert light.value_count() == p * d


def test_zero_length_prompt_has_no_parameters(rng):
    bank = init_prompt(PromptConfig(length=0, form="light"), ENC, _table(rng), make_store(), 0)
    assert bank.matrices == [] and bank.value_count() == 0


def test_token_id_out_of_range_rejected(rng):
    cfg = PromptConfig(length=1, init="token", token_ids=(99,))
    with pytest.raises(EmbeddingIndexError) as exc:
        init_prompt(cfg, ENC, _table(rng), make_store(), 0)
    assert exc.value.index == 99


def test_prompt_length_exceeding_sequence_budget_rejected(rng):
    cfg = PromptConfig(length=ENC.max_seq_len, form="deep")
    with pytest.raises(ConfigError, match="length"):
        init_prompt(cfg, ENC, _table(rng), make_store(), 0)


def test_deferred_token_ids_rejected_at_init(rng):
    cfg = PromptConfig(length=1, init="token")  # ids resolved later by the trainer
    with pytest.raises(ConfigError, match="token"):
        init_prompt(cfg, ENC, _table(rng), make_store(), 0)


def test_config_invariants():
    with pytest.raises(ConfigError):
        PromptConfig(length=0, form="deep")
    with pytest.raises(ConfigError):
        PromptConfig(length=2, init="token", token_ids=(1,))
    with pytest.raises(ConfigError):
        PromptConfig(length=1, init="random", token_ids=(1,))
    with pytest.raises(ConfigError):
        PromptConfig(length=-1)
    with pytest.raises(ConfigError):
        PromptConfig(form="medium")


def test_sweep_is_cartesian_product():
    configs = sweep_configs([1, 2], ["deep", "light"], ["random"])
    assert len(configs) == 4
    assert [(c.length, c.form) for c in configs] == [
        (1, "deep"), (1, "light"), (2, "deep"), (2, "light")
    ]


def test_sweep_filters_invalid_combinations():
    assert sweep_configs([0], ["deep"], ["random"]) == []
    # zero length survives only in light form
    configs = sweep_configs([0], ["deep", "light"], ["random"])
    assert [(c.length, c.form) for c in configs] == [(0, "light")]


def test_sweep_rejects_empty_axes():
    with pytest.raises(ConfigError):
        sweep_configs([], ["deep"], ["random"])
