"""Full network: prompt-injected encoder shared by three task heads."""

from __future__ import annotations

import numpy as np

from .data import TASK_CLASSES, TASKS, Batch
from .encoder import EncoderConfig, EncoderStack, encode
from .errors import ConfigError
from .heads import make_head
from .prompt import TUNINGS, PrefixBank, PromptConfig, init_prompt, text_budget
from .tensor import ParameterStore, Tensor, saved_array


def head_forward(head, states: Tensor, block: int, task: str) -> Tensor:
    """One task's logits from its block of `states`, what the heads read
    together; `task` names the call for a wrapper, such as a tracer."""
    return head.classify(states, block)


class DpmnModel:
    """Encoder + prefix bank + one head per task, over one named parameter store.

    Every parameter lives in the store, in creation order: encoder, then
    prompt.layer*, then head_a/head_b/head_c. Weight matrices draw from one
    generator seeded with rng_seed in that order; the prefix bank draws
    from its own, seeded with rng_seed + 1.

    Given `arrays` (a checkpoint's records), every parameter adopts the
    array of its name instead, without a copy, and nothing is drawn. An
    array missing, of another shape or left over is a ConfigError.

    All three heads always exist; single-task training simply weights the
    auxiliary losses to zero. LSTM hidden size defaults to half the encoder
    hidden size so the concatenated state width matches it.
    """

    def __init__(self, encoder_config: EncoderConfig, prompt_config: PromptConfig,
                 head_kind: str = "bilstm-ffn", rng_seed: int = 0,
                 lstm_hidden: int | None = None, head_ffn_size: int | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        if rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {rng_seed}")
        d = encoder_config.hidden_size
        if head_kind == "bilstm-ffn":  # a linear head reads neither size
            lstm_hidden = d // 2 if lstm_hidden is None else lstm_hidden
            head_ffn_size = d if head_ffn_size is None else head_ffn_size
        for name, size in (("lstm_hidden", lstm_hidden), ("head_ffn_size", head_ffn_size)):
            if size is not None and size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        self._store = ParameterStore(np.random.Generator(np.random.PCG64(rng_seed)), arrays)
        self.encoder = EncoderStack(encoder_config, self._store)
        self._encoder_names = set(self._store.tensors)
        self.bank: PrefixBank = init_prompt(
            prompt_config, encoder_config, self.encoder.token_emb.data, self._store, rng_seed + 1
        )
        self.heads = {
            task: make_head(head_kind, d, lstm_hidden, head_ffn_size,
                            TASK_CLASSES[task], self._store, f"head_{task}")
            for task in TASKS
        }
        if arrays is not None:
            self._store.reject_unknown(arrays)

    @property
    def text_budget(self) -> int:
        """The encoder's text budget under this model's prompt."""
        return text_budget(self.encoder.config.max_seq_len, self.bank.prompt_len)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._store.tensors)

    def trainable_parameters(self, strategy: str) -> dict[str, Tensor]:
        """Optimizer-visible set: heads always train; the encoder only under
        lm-plus-prompt; the prefix bank under both strategies."""
        if strategy not in TUNINGS:
            raise ConfigError(f"unknown tuning strategy {strategy!r}")
        return {name: p for name, p in self._store.tensors.items()
                if strategy == "lm-plus-prompt" or name not in self._encoder_names}

    def encode_batch(self, batch: Batch, dropout_rng: np.random.Generator | None = None,
                     layer_inputs: list | None = None) -> tuple[Tensor, np.ndarray]:
        """The encoder output the heads read, and each row's length with its
        prompt slots. The encoder's last layer computes only the leading
        positions the heads read (`reads`; None for all). A `layer_inputs`
        list receives each encoder layer's input (see `encode`)."""
        p = self.bank.prompt_len
        lengths = batch.lengths + p
        emb = self.encoder.embed(batch.token_ids, prompt_len=p)
        queries = self.heads[TASKS[0]].reads
        return encode(self.encoder, emb, self.bank, lengths, dropout_rng, queries,
                      layer_inputs), lengths

    def read(self, shared: Tensor, lengths: np.ndarray) -> Tensor:
        """What the heads read together from the encoder output."""
        heads = [self.heads[task] for task in TASKS]
        return heads[0].read(heads, shared, lengths)

    def classify(self, states: Tensor, task: str) -> Tensor:
        """One task's logits from what the heads read."""
        return head_forward(self.heads[task], states, TASKS.index(task), task)

    def forward(self, batch: Batch,
                dropout_rng: np.random.Generator | None = None) -> dict[str, Tensor]:
        """Logits per task. Pass a dropout generator only while training."""
        states = self.read(*self.encode_batch(batch, dropout_rng))
        return {task: self.classify(states, task) for task in TASKS}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Give every parameter a copy of its array in `arrays`; nothing
        changes unless every name and shape matches."""
        params = self._store.tensors
        values = {name: saved_array(arrays, name, p.shape) for name, p in params.items()}
        self._store.reject_unknown(arrays)
        for name, v in values.items():
            params[name].data = np.array(v, dtype=np.float64)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}
