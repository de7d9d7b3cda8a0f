"""Continuous prompt construction: length, form, initialization, tuning strategy."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .data import RESERVED
from .errors import ConfigError
from .tensor import ParameterStore, Tensor

FORMS = ("deep", "light")
INITS = ("random", "token")
TUNINGS = ("fixed-lm", "lm-plus-prompt")


@dataclass(frozen=True)
class PromptConfig:
    """How the continuous prompt is built.

    length is the number of prefix positions (p_n); token init copies the
    rows of the first `length` ids after the reserved ones, the most
    frequent tokens (init_prompt).
    """

    length: int = 1
    form: str = "deep"
    init: str = "random"
    tuning: str = "lm-plus-prompt"

    def __post_init__(self):
        if self.form not in FORMS:
            raise ConfigError(f"prompt form must be one of {FORMS}, got {self.form!r}")
        if self.init not in INITS:
            raise ConfigError(f"prompt init must be one of {INITS}, got {self.init!r}")
        if self.tuning not in TUNINGS:
            raise ConfigError(f"tuning must be one of {TUNINGS}, got {self.tuning!r}")
        if self.length < 0:
            raise ConfigError(f"prompt length must be >= 0, got {self.length}")
        if self.length == 0 and self.form != "light":
            raise ConfigError("prompt length 0 (no prompt) is only valid with the light form")


class PrefixBank:
    """The trainable prefix matrices: L of them for deep form, 1 for light.

    A zero-length prompt has no matrices at all, so a prompt-off model
    carries zero prefix parameters.
    """

    def __init__(self, matrices: list[Tensor]):
        self.matrices = matrices

    @property
    def prompt_len(self) -> int:
        return self.matrices[0].shape[0] if self.matrices else 0

    def value_count(self) -> int:
        return sum(m.size for m in self.matrices)


def text_budget(max_seq_len: int, prompt_len: int) -> int:
    """Token positions a text may fill: max_seq_len less the prompt slots.
    A prompt that leaves no slot for text is a ConfigError."""
    budget = max_seq_len - prompt_len
    if budget < 1:
        raise ConfigError(f"prompt length {prompt_len} leaves no room for text "
                          f"(max_seq_len {max_seq_len})")
    return budget


def init_prompt(config: PromptConfig, encoder_config, embedding_table: np.ndarray,
                store: ParameterStore, rng_seed: int) -> PrefixBank:
    """Build the prefix bank for an encoder, its matrices created in `store`.

    Random init draws every entry i.i.d. Normal(0, INIT_STD^2) from its own
    generator seeded with rng_seed; token init copies the embedding-table
    rows of the first `length` ids after the reserved ones, replicated into
    every layer matrix for the deep form. A table without those rows is a
    ConfigError.
    """
    text_budget(encoder_config.max_seq_len, config.length)
    shape = (config.length, encoder_config.hidden_size)
    n_matrices = 0 if config.length == 0 else (
        encoder_config.num_layers if config.form == "deep" else 1
    )

    rows = None
    if config.init == "token" and n_matrices > 0:
        first, size = len(RESERVED), embedding_table.shape[0]
        if size < first + config.length:
            raise ConfigError(f"token init of prompt length {config.length} copies rows "
                              f"{first}..{first + config.length - 1}, but the vocabulary "
                              f"has {size} tokens")
        rows = embedding_table[first:first + config.length]
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    matrices = [store.new(f"prompt.layer{i}", shape, rows, rng) for i in range(n_matrices)]
    return PrefixBank(matrices)


def sweep_configs(lengths, forms, inits, tuning: str = "lm-plus-prompt") -> list[PromptConfig]:
    """Cartesian product of prompt settings, in order, without the points of
    length 0 in the deep form (no prompt has no layers to go deep in). Any
    other invalid value is a ConfigError naming it, as is a value given
    twice on one axis (its points would be trained twice) and a grid with
    no setting left."""
    if not lengths or not forms or not inits:
        raise ConfigError("sweep needs at least one length, form, and init")
    for init in inits:  # named even where each of its points is a skipped (0, deep) one
        PromptConfig(length=0, form="light", init=init, tuning=tuning)
    configs = [PromptConfig(length=length, form=form, init=init, tuning=tuning)
               for length, form, init in product(lengths, forms, inits)
               if (length, form) != (0, "deep")]
    for axis, values in (("length", lengths), ("form", forms), ("init", inits)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"sweep {axis} {value!r} is given more than once")
    if not configs:
        raise ConfigError("no valid prompt setting in the sweep grid")
    return configs
