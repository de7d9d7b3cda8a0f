"""The benchmark's workloads: a model configuration and seeded corpora.

Every workload runs the same user session per round (parse corpora, train
for fixed epochs, evaluate, checkpoint round trip, gradient check); they
differ in which layer does most of the work: the Bi-LSTM heads on
bilstm-t30, the encoder on linear-l4d64-t30.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from dpmn import Example, PromptConfig, TrainConfig, generate_synthetic_corpus

# Benign words appended to synthetic texts to reach tweet length. They are
# disjoint from the generator's offensive lexicon, so labels stay separable.
FILLER = ("the", "and", "today", "just", "really", "with", "so", "very", "again", "here")
TWEET_WORDS = (24, 29)  # with [CLS] every text is 25..30 tokens: T is about 30

# `dpmn gradcheck` is run with its default seed, not the workload seed: at
# FD step 1e-5 some probe seeds (2, 14, 15 and 20 of 0..24) land on
# head_b.ffn.b1[5], whose ReLU pre-activation lies within the step of its
# kink, and report FAIL although the analytic gradient is right. See
# README.md; the harness is to be fixed in the library, not here.
GRADCHECK_SEED = 0

# The learnability model of acceptance criterion 7.
LEARNABILITY = TrainConfig(
    learning_rate=1e-3, batch_size=32, num_layers=2, hidden_size=32, num_heads=2,
    ffn_size=64, max_seq_len=32, dropout=0.0, head_kind="bilstm-ffn",
    prompt=PromptConfig(length=2, form="deep", init="random", tuning="lm-plus-prompt"),
)
# The README default encoder with linear heads (ablation variant linear-mtl-prompt).
DEFAULT_LINEAR = TrainConfig(
    learning_rate=1e-3, batch_size=32, num_layers=4, hidden_size=64, num_heads=4,
    ffn_size=256, max_seq_len=64, dropout=0.1, head_kind="linear",
    prompt=PromptConfig(length=1, form="deep", init="random", tuning="lm-plus-prompt"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    base: TrainConfig
    epochs: int = 2
    n_train: int = 64
    n_dev: int = 32
    n_test: int = 96
    gradcheck_probes: int = 50
    ckpt_reps: int = 10     # checkpoint saves and loads timed per group, two groups a round

    def config(self, seed: int, out_dir: str | None) -> TrainConfig:
        # patience == epochs: early stopping never cuts a run short
        return replace(self.base, max_epochs=self.epochs, early_stop_patience=self.epochs,
                       rng_seed=seed, out_dir=out_dir)

    def corpora(self, seed: int) -> dict[str, list[Example]]:
        """Tweet-like corpora: synthetic texts padded with filler to T about 30."""
        base = seed * 1000
        rng = np.random.Generator(np.random.PCG64(base + 4))
        sizes = {"train": self.n_train, "dev": self.n_dev, "test": self.n_test}
        return {name: [_lengthen(ex, rng) for ex in generate_synthetic_corpus(n, base + i)]
                for i, (name, n) in enumerate(sizes.items(), start=1)}


def _lengthen(ex: Example, rng: np.random.Generator) -> Example:
    words = ex.text.split()
    target = int(rng.integers(TWEET_WORDS[0], TWEET_WORDS[1] + 1))
    words += [str(w) for w in rng.choice(FILLER, size=max(0, target - len(words)))]
    return replace(ex, text=" ".join(words))


WORKLOADS = {w.name: w for w in (
    Workload("bilstm-t30", LEARNABILITY),
    Workload("linear-l4d64-t30", DEFAULT_LINEAR),
)}
