"""Training configuration and its flat key-value text form.

The same canonical serialization is used for run-config files and for the
checkpoint header, where it is followed by the vocabulary so a checkpoint
can be evaluated without the original corpus. Keys always appear in one
fixed order; optional keys are omitted when unset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_type_hints

from .data import Vocab
from .encoder import EncoderConfig
from .errors import ConfigError
from .heads import HEAD_KINDS
from .losses import LossWeights
from .prompt import PromptConfig


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-6
    batch_size: int = 32
    max_epochs: int = 30
    early_stop_patience: int = 4
    loss_weights: LossWeights = field(default_factory=LossWeights)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    # the encoder, at desk scale: small enough for fast gradient checks, deep
    # enough that deep and light prompt forms behave differently
    num_layers: int = 4
    hidden_size: int = 64
    num_heads: int = 4
    ffn_size: int = 256
    max_seq_len: int = 64
    dropout: float = 0.1
    head_kind: str = "bilstm-ffn"
    lstm_hidden: int | None = None
    head_ffn_size: int | None = None
    min_freq: int = 1
    rng_seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if math.isnan(self.dropout):  # format_config would write a nan parse_config refuses
            raise ConfigError(f"dropout must be a number, got {self.dropout}")
        for name in ("batch_size", "max_epochs", "early_stop_patience", "min_freq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"head_kind must be one of {HEAD_KINDS}, got {self.head_kind!r}")
        if self.out_dir == "":
            raise ConfigError("out_dir must not be empty")

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(EncoderConfig)
                  if f.name != "vocab_size"}
        return EncoderConfig(vocab_size=vocab_size, **shared)


# The text form is flat: the fields of a nested config dataclass appear in
# its place, each key led by the nested field's tag, and one key renamed.
_NESTED = {"loss_weights": "loss_weight_", "prompt": "prompt_"}
_RENAMED = {"prompt_tuning": "tuning_strategy"}


# value type -> (parser, what a value that fails to parse should be)
_PARSERS = {int: (int, "an integer"), float: (float, "a number"), str: (str, "a string")}


def _field_types(cls):
    """(field name, type hint) per dataclass field, with Optional unwrapped."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        args = get_args(hints[f.name])
        yield f.name, args[0] if type(None) in args else hints[f.name]


_FIELD_TYPES = dict(_field_types(TrainConfig))


def _config_keys() -> dict[str, tuple[str | None, str, type]]:
    """key -> (nested field or None, field name, value type), in canonical order."""
    keys = {}
    for name, kind in _FIELD_TYPES.items():
        if name not in _NESTED:
            keys[name] = (None, name, kind)
            continue
        for sub, sub_kind in _field_types(kind):
            key = _NESTED[name] + sub
            keys[_RENAMED.get(key, key)] = (name, sub, sub_kind)
    return keys


_KEYS = _config_keys()
KNOWN_KEYS = frozenset(_KEYS)


def _fmt(value) -> str | None:
    """Text of a value, or None to omit an unset key."""
    if value is None:
        return None
    return repr(value) if isinstance(value, float) else str(value)


def format_config(cfg: TrainConfig) -> str:
    """Canonical text form; parse_config() inverts it. Unset optional keys
    are omitted. An out_dir that one config line cannot hold (padded with
    whitespace, or spanning lines) is a ConfigError."""
    out = cfg.out_dir
    if out is not None and (out.splitlines() != [out] or out != out.strip()):
        raise ConfigError(f"out_dir {out!r} cannot be written as one config value")
    lines = []
    for key, (nested, name, _) in _KEYS.items():
        text = _fmt(getattr(getattr(cfg, nested) if nested else cfg, name))
        if text is not None:
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _parse_pairs(text: str, allow_prefix: str | None = None) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition(" = ")
        if not sep:
            raise ConfigError(f"config line {line_no} is not 'key = value': {line!r}")
        if key in pairs:
            raise ConfigError(f"duplicate config key {key!r}")
        if key not in KNOWN_KEYS and not (allow_prefix and key.startswith(allow_prefix)):
            raise ConfigError(f"unknown config key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _build_config(pairs: dict[str, str]) -> TrainConfig:
    top: dict = {}
    nested: dict[str, dict] = {name: {} for name in _NESTED}
    for key, raw in pairs.items():
        owner, name, kind = _KEYS[key]
        parse, expected = _PARSERS[kind]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs {expected}, got {raw!r}") from None
        if kind is float and math.isnan(value):  # NaN passes every range check
            raise ConfigError(f"key {key!r} needs a number, got {raw!r}")
        (nested[owner] if owner else top)[name] = value
    return TrainConfig(**top, **{owner: _FIELD_TYPES[owner](**values)
                                 for owner, values in nested.items()})


def parse_config(text: str) -> TrainConfig:
    return _build_config(_parse_pairs(text))


def load_config_file(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return parse_config(text)


def format_checkpoint_header(cfg: TrainConfig, vocab: Vocab) -> str:
    """Config without out_dir, then one 'vocab.<id> = <token>' line per token."""
    lines = [format_config(replace(cfg, out_dir=None)).rstrip("\n")]
    lines += [f"vocab.{i} = {tok}" for i, tok in enumerate(vocab.tokens)]
    return "\n".join(lines) + "\n"


def parse_checkpoint_header(text: str) -> tuple[TrainConfig, Vocab]:
    """Inverse of format_checkpoint_header. The vocab keys must be exactly
    the ones it writes: 'vocab.0' up to one less than their count."""
    pairs = _parse_pairs(text, allow_prefix="vocab.")
    vocab_pairs = {k: v for k, v in pairs.items() if k.startswith("vocab.")}
    slots = {f"vocab.{i}": i for i in range(len(vocab_pairs))}
    tokens = [""] * len(slots)
    for key, tok in vocab_pairs.items():
        if key not in slots:
            raise ConfigError(f"bad vocab entry {key!r}")
        tokens[slots[key]] = tok
    cfg = _build_config({k: v for k, v in pairs.items() if k not in vocab_pairs})
    return cfg, Vocab(tuple(tokens))
