"""Prompt construction: initialization, validation, and the sweep grid."""

import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpmn.encoder import EncoderConfig
from dpmn.errors import ConfigError
from dpmn.model import DpmnModel
from dpmn.prompt import FORMS, INITS, PromptConfig, init_prompt, sweep_configs

from conftest import make_store

ENC = EncoderConfig(vocab_size=20, num_layers=3, hidden_size=8, num_heads=2,
                    ffn_size=16, max_seq_len=12, dropout=0.0)


def _table(rng):
    return rng.normal(size=(ENC.vocab_size, ENC.hidden_size))


def test_token_init_copies_embedding_rows_into_every_layer(rng):
    table = _table(rng)
    cfg = PromptConfig(length=1, form="deep", init="token")
    store = make_store()
    bank = init_prompt(cfg, ENC, table, store, rng_seed=0)
    assert len(bank.matrices) == ENC.num_layers
    for m in bank.matrices:
        assert np.array_equal(m.data[0], table[3])
        assert store.tensors[m.name] is m


def test_token_init_matrices_are_independent_copies(rng):
    table = _table(rng)
    cfg = PromptConfig(length=2, form="deep", init="token")
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
    """A 20-token vocabulary holds rows 3..19, so a prompt of 18 tokens
    would copy rows 3..20."""
    cfg = PromptConfig(length=18, form="light", init="token")
    enc = replace(ENC, max_seq_len=24)
    with pytest.raises(ConfigError, match=re.escape("token init of prompt length 18 copies "
                                                    "rows 3..20, but the vocabulary has 20 "
                                                    "tokens")):
        init_prompt(cfg, enc, _table(rng), make_store(), 0)
    assert init_prompt(replace(cfg, length=17), enc, _table(rng), make_store(), 0).prompt_len == 17


def test_prompt_length_exceeding_sequence_budget_rejected(rng):
    cfg = PromptConfig(length=ENC.max_seq_len, form="deep")
    with pytest.raises(ConfigError, match="length"):
        init_prompt(cfg, ENC, _table(rng), make_store(), 0)


def test_unset_token_ids_pick_the_rows_after_the_reserved_ids(rng):
    table = _table(rng)
    bank = init_prompt(PromptConfig(length=2, init="token"), ENC, table, make_store(), 0)
    assert all(np.array_equal(m.data, table[3:5]) for m in bank.matrices)
    small = replace(ENC, vocab_size=4)
    with pytest.raises(ConfigError, match=re.escape("copies rows 3..4, but the vocabulary has 4")):
        init_prompt(PromptConfig(length=2, init="token"), small, table[:4], make_store(), 0)


@settings(max_examples=40, deadline=None)
@given(vocab_size=st.integers(1, 10), length=st.integers(1, 4), form=st.sampled_from(FORMS))
def test_token_init_copies_the_chosen_rows_or_names_the_ids(vocab_size, length, form):
    """Token init copies rows 3..3+p into every matrix, or raises one
    ConfigError naming those rows when the vocabulary lacks one, whether
    the model draws its weights or is built on saved arrays."""
    enc = replace(ENC, vocab_size=vocab_size)
    cfg = PromptConfig(length=length, form=form, init="token")
    # the same seed draws the same embedding table whatever the prompt init
    saved = DpmnModel(enc, replace(cfg, init="random"), head_kind="linear").state_arrays()
    table = saved["embedding.token"]
    if vocab_size >= 3 + length:
        direct = init_prompt(cfg, enc, table, make_store(), 0)
        model = DpmnModel(enc, cfg, head_kind="linear")
        loaded = DpmnModel(enc, cfg, head_kind="linear", arrays=model.state_arrays())
        for bank in (direct, model.bank, loaded.bank):
            assert len(bank.matrices) == (enc.num_layers if form == "deep" else 1)
            assert all(np.array_equal(m.data, table[3:3 + length]) for m in bank.matrices)
    else:
        named = re.escape(f"copies rows 3..{2 + length}, but the vocabulary has {vocab_size} ")
        for build in (lambda: init_prompt(cfg, enc, table, make_store(), 0),
                      lambda: DpmnModel(enc, cfg, head_kind="linear"),
                      lambda: DpmnModel(enc, cfg, head_kind="linear", arrays=saved)):
            with pytest.raises(ConfigError, match=named):
                build()


def test_config_invariants():
    with pytest.raises(ConfigError):
        PromptConfig(length=0, form="deep")
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
    with pytest.raises(ConfigError, match="no valid prompt setting"):
        sweep_configs([0], ["deep"], ["random"])
    # zero length survives only in light form
    configs = sweep_configs([0], ["deep", "light"], ["random"])
    assert [(c.length, c.form) for c in configs] == [(0, "light")]


def test_sweep_rejects_empty_axes():
    with pytest.raises(ConfigError):
        sweep_configs([], ["deep"], ["random"])


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(-2, 4), max_size=3),
       forms=st.lists(st.sampled_from(FORMS + ("lite",)), max_size=3),
       inits=st.lists(st.sampled_from(INITS + ("tokn",)), max_size=3))
@example(lengths=[0], forms=["deep"], inits=["random", "tokn"])  # every point skipped
def test_sweep_is_the_ordered_product_or_a_config_error(lengths, forms, inits):
    """With every value valid and none repeated on its axis, the grid is the
    product in order less its (0, deep) points; it is a ConfigError exactly
    when a value is invalid or repeated or no point is left, and one naming
    an invalid value if there is one, else a repeated one if there is one."""
    invalid = ([str(n) for n in lengths if n < 0] + [repr(f) for f in forms if f not in FORMS]
               + [repr(i) for i in inits if i not in INITS])
    repeated = [axis for axis in (lengths, forms, inits) if len(set(axis)) < len(axis)]
    expected = [(n, f, i) for n, f, i in product(lengths, forms, inits) if (n, f) != (0, "deep")]
    if not invalid and not repeated and expected:
        configs = sweep_configs(lengths, forms, inits, tuning="fixed-lm")
        assert [(c.length, c.form, c.init) for c in configs] == expected
        assert {c.tuning for c in configs} == {"fixed-lm"}
    else:
        with pytest.raises(ConfigError) as refused:
            sweep_configs(lengths, forms, inits, tuning="fixed-lm")
        if invalid and lengths and forms and inits:  # else an empty axis is named
            assert any(f"got {value}" in str(refused.value) for value in invalid)
        elif repeated and lengths and forms and inits:
            assert "is given more than once" in str(refused.value)
