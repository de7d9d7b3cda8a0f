"""The flat key-value config format and checkpoint headers."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.data import RESERVED, Vocab, build_vocab, generate_synthetic_corpus
from dpmn.errors import ConfigError, ContractError
from dpmn.heads import HEAD_KINDS
from dpmn.losses import LossWeights
from dpmn.prompt import FORMS, INITS, TUNINGS, PromptConfig
from dpmn.runconfig import (
    KNOWN_KEYS,
    TrainConfig,
    format_checkpoint_header,
    format_config,
    load_config_file,
    parse_checkpoint_header,
    parse_config,
)


def test_defaults_match_published_training_recipe():
    cfg = TrainConfig()
    assert cfg.learning_rate == 3e-6
    assert cfg.batch_size == 32
    assert cfg.max_epochs == 30
    assert cfg.early_stop_patience == 4
    w = cfg.loss_weights
    assert (w.main, w.auxi1, w.auxi2) == (0.4, 0.3, 0.3)


def test_format_parse_round_trip():
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=8,
        max_epochs=5,
        loss_weights=LossWeights(0.5, 0.25, 0.25),
        prompt=PromptConfig(length=2, form="light", init="token", tuning="fixed-lm"),
        hidden_size=16,
        num_heads=2,
        lstm_hidden=8,
        rng_seed=11,
    )
    assert parse_config(format_config(cfg)) == cfg


# Values the one-line 'key = value' form can hold: non-empty, no line
# breaks, no surrounding whitespace.
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                min_size=1).filter(lambda t: t == t.strip())
_ANY_INT = st.integers(-10**12, 10**12)
_POSITIVE = st.integers(1, 10**12)


@st.composite
def _configs(draw):
    """A TrainConfig with every field drawn from the values it accepts."""
    length = draw(st.integers(0, 6))
    prompt = PromptConfig(
        length=length,
        form="light" if length == 0 else draw(st.sampled_from(FORMS)),
        init=draw(st.sampled_from(INITS)),
        tuning=draw(st.sampled_from(TUNINGS)),
    )
    main = draw(st.floats(0.0, 1.0))
    auxi1 = draw(st.floats(0.0, 1.0 - main))
    return TrainConfig(
        learning_rate=draw(st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                                     allow_infinity=False)),
        batch_size=draw(_POSITIVE),
        max_epochs=draw(_POSITIVE),
        early_stop_patience=draw(_POSITIVE),
        loss_weights=LossWeights(main, auxi1, (1.0 - main) - auxi1),
        prompt=prompt,
        num_layers=draw(_ANY_INT),
        hidden_size=draw(_ANY_INT),
        num_heads=draw(_ANY_INT),
        ffn_size=draw(_ANY_INT),
        max_seq_len=draw(_ANY_INT),
        dropout=draw(st.floats(allow_nan=False)),
        head_kind=draw(st.sampled_from(HEAD_KINDS)),
        lstm_hidden=draw(st.none() | _ANY_INT),
        head_ffn_size=draw(st.none() | _ANY_INT),
        min_freq=draw(_POSITIVE),
        rng_seed=draw(_ANY_INT),
        out_dir=draw(st.none() | _TEXT),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_every_field_round_trips_through_text(cfg):
    assert parse_config(format_config(cfg)) == cfg


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
def test_out_dir_is_formatted_only_if_it_round_trips(out_dir):
    try:
        cfg = TrainConfig(out_dir=out_dir)
        text = format_config(cfg)
    except ConfigError:
        return
    assert parse_config(text) == cfg


@pytest.mark.parametrize("out_dir", ["", "x ", "\tx", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_out_dir_one_line_cannot_hold_is_rejected(out_dir):
    with pytest.raises(ConfigError, match="out_dir"):
        format_config(TrainConfig(out_dir=out_dir))


def test_key_order_is_fixed():
    """The key order is part of the checkpoint header format."""
    cfg = TrainConfig(
        prompt=PromptConfig(length=1, init="token"),
        lstm_hidden=8, head_ffn_size=16, out_dir="o",
    )
    keys = [line.split(" = ")[0] for line in format_config(cfg).splitlines()]
    assert keys == [
        "learning_rate", "batch_size", "max_epochs", "early_stop_patience",
        "loss_weight_main", "loss_weight_auxi1", "loss_weight_auxi2",
        "prompt_length", "prompt_form", "prompt_init", "tuning_strategy",
        "num_layers", "hidden_size", "num_heads", "ffn_size", "max_seq_len", "dropout",
        "head_kind", "lstm_hidden", "head_ffn_size", "min_freq", "rng_seed",
        "out_dir",
    ]
    assert set(keys) == KNOWN_KEYS


def test_serialization_is_canonical():
    cfg = TrainConfig()
    assert format_config(cfg) == format_config(cfg)
    assert format_config(cfg).startswith("learning_rate = 3e-06\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config("mystery = 3\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config("batch_size = many\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config("learning_rate = fast\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("batch_size: 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("batch_size = 3\nbatch_size = 4\n")


def test_weight_sum_violation_rejected_at_load():
    text = "loss_weight_main = 0.5\nloss_weight_auxi1 = 0.3\nloss_weight_auxi2 = 0.3\n"
    with pytest.raises(ConfigError, match="sum"):
        parse_config(text)


def test_invalid_enum_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("prompt_form = wide\n")
    with pytest.raises(ConfigError):
        parse_config("head_kind = mlp\n")


def test_value_whitespace_is_stripped():
    cfg = parse_config("out_dir =  run1\nbatch_size = \t8\nprompt_init =  token \n"
                       "prompt_length = 2\n")
    assert cfg.out_dir == "run1" and cfg.batch_size == 8 and cfg.prompt.init == "token"
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("key", ["learning_rate", "dropout", "loss_weight_main"])
def test_nan_value_rejected(key):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = nan\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999", "Infinity"])
def test_infinite_learning_rate_rejected(value):
    with pytest.raises(ConfigError, match="learning_rate must be finite and positive"):
        parse_config(f"learning_rate = {value}\n")


# Config text: distinct known keys, each with a value that is any text, an
# int, a float, a list of ints or an enum name, after one to three spaces or
# tabs.
_VALUES = st.one_of(
    st.text(),
    st.integers(-1, 4).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.integers(-1, 40), min_size=1, max_size=3).map(lambda v: ", ".join(map(str, v))),
    st.sampled_from(FORMS + INITS + TUNINGS + HEAD_KINDS),
)
_CONFIG_TEXT = st.lists(
    st.tuples(st.sampled_from(sorted(KNOWN_KEYS)), st.text(" \t", max_size=2), _VALUES),
    max_size=4, unique_by=lambda pair: pair[0],
).map(lambda pairs: "".join(f"{k} = {pad}{v}\n" for k, pad, v in pairs))


@settings(max_examples=300, deadline=None)
@given(_CONFIG_TEXT | st.text() | st.lists(_CONFIG_TEXT | st.text()).map("\n".join))
def test_config_text_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(_CONFIG_TEXT)
def test_every_accepted_config_round_trips(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert parse_config(format_config(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nbatch_size = 4\n")
    assert cfg.batch_size == 4


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rng_seed = 9\nmax_epochs = 2\n", encoding="utf-8")
    cfg = load_config_file(path)
    assert cfg.rng_seed == 9 and cfg.max_epochs == 2
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "absent.cfg")


def test_checkpoint_header_round_trips_vocab():
    vocab = build_vocab(generate_synthetic_corpus(20, seed=0))
    cfg = TrainConfig(hidden_size=16, num_heads=2, out_dir="ignored")
    header = format_checkpoint_header(cfg, vocab)
    parsed_cfg, parsed_vocab = parse_checkpoint_header(header)
    assert parsed_vocab.tokens == vocab.tokens
    assert parsed_cfg.hidden_size == 16
    assert parsed_cfg.out_dir is None  # the output directory never enters checkpoints


@pytest.mark.parametrize("key", ["vocab.-1", "vocab.04", "vocab.+4", "vocab. 4", "vocab.\u0664",
                                 "vocab.4.0", "vocab.5"])
def test_checkpoint_header_takes_only_the_vocab_keys_it_writes(key):
    """vocab.4 spelt any other way, even one int() reads as 4 (or as -1,
    the last slot), is a ConfigError naming the key."""
    header = format_checkpoint_header(TrainConfig(), Vocab(RESERVED + ("a", "b")))
    assert parse_checkpoint_header(header)[1].tokens[4] == "b"
    with pytest.raises(ConfigError, match=re.escape(f"bad vocab entry {key!r}")):
        parse_checkpoint_header(header.replace("vocab.4 = b", f"{key} = b"))


# any code point, lone surrogates included, with whitespace and line breaks made common
_TOKEN_CHARS = st.one_of(st.characters(exclude_categories=()), st.sampled_from(" \t\n\x85\u2028"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_TOKEN_CHARS, max_size=4), max_size=5))
def test_every_accepted_vocab_round_trips_through_a_checkpoint_header(tokens):
    try:
        vocab = Vocab(RESERVED + tuple(tokens))
    except ContractError:
        return
    header = format_checkpoint_header(TrainConfig(), vocab)
    header.encode("utf-8")
    assert parse_checkpoint_header(header)[1].tokens == vocab.tokens


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1]
    block = section.split("```", 2)[1]
    assert set(re.findall(r"(\w+) = ", block)) == KNOWN_KEYS


def test_validation_of_basic_invariants():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_patience=0)
