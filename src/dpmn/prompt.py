"""Continuous prompt construction: length, form, initialization, tuning strategy."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, EmbeddingIndexError
from .tensor import ParameterStore, Tensor

FORMS = ("deep", "light")
INITS = ("random", "token")
TUNINGS = ("fixed-lm", "lm-plus-prompt")


@dataclass(frozen=True)
class PromptConfig:
    """How the continuous prompt is built.

    length is the number of prefix positions (p_n); token init may leave
    token_ids unset until a vocabulary exists, in which case the trainer
    fills in the most frequent non-reserved ids.
    """

    length: int = 1
    form: str = "deep"
    init: str = "random"
    token_ids: tuple[int, ...] | None = None
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
        if self.token_ids is not None:
            if not self.token_ids:
                raise ConfigError("token_ids must not be empty; leave it unset for no ids")
            if self.init != "token":
                raise ConfigError("token_ids given but init is not 'token'")
            if len(self.token_ids) != self.length:
                raise ConfigError(
                    f"token init needs exactly {self.length} ids, got {len(self.token_ids)}"
                )


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


def init_prompt(config: PromptConfig, encoder_config, embedding_table: np.ndarray,
                store: ParameterStore, rng_seed: int) -> PrefixBank:
    """Build the prefix bank for an encoder, its matrices created in `store`.

    Random init draws every entry i.i.d. Normal(0, INIT_STD^2) from its own
    generator seeded with rng_seed; token init copies embedding-table rows,
    replicated into every layer matrix for the deep form.
    """
    if encoder_config.text_budget(config.length) < 1:
        raise ConfigError(
            f"prompt length {config.length} leaves no room for text "
            f"(max_seq_len {encoder_config.max_seq_len})"
        )
    shape = (config.length, encoder_config.hidden_size)
    n_matrices = 0 if config.length == 0 else (
        encoder_config.num_layers if config.form == "deep" else 1
    )

    rows = None
    if config.init == "token" and n_matrices > 0:
        if config.token_ids is None:
            raise ConfigError("token init requires concrete token ids")
        for tid in config.token_ids:
            if not 0 <= tid < embedding_table.shape[0]:
                raise EmbeddingIndexError(tid, embedding_table.shape[0])
        rows = np.asarray(embedding_table)[list(config.token_ids)]
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    matrices = [store.new(f"prompt.layer{i}", shape, rows, rng) for i in range(n_matrices)]
    return PrefixBank(matrices)


def sweep_configs(lengths, forms, inits, tuning: str = "lm-plus-prompt") -> list[PromptConfig]:
    """Cartesian product of prompt settings, dropping invalid combinations."""
    if not lengths or not forms or not inits:
        raise ConfigError("sweep needs at least one length, form, and init")
    configs = []
    for length, form, init in product(lengths, forms, inits):
        try:
            configs.append(PromptConfig(length=length, form=form, init=init, tuning=tuning))
        except ConfigError:
            continue
    return configs
