"""Deep prompt multi-task network for abuse-language detection.

A from-scratch trainable text classifier: a small BERT-style encoder with
continuous prompt prefixes injected per layer, Bi-LSTM + FFN task heads,
and a weighted three-task loss over the OLID label hierarchy, all on top
of a minimal float64 reverse-mode autodiff tensor library.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Batch,
    Example,
    Vocab,
    build_vocab,
    generate_synthetic_corpus,
    make_batches,
    parse_tsv,
    tokenize,
    write_tsv,
)
from .encoder import EncoderConfig, EncoderStack, encode
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DpmnError,
    IntegrityError,
    NumericError,
    ParseError,
    ShapeError,
)
from .gradcheck import run_gradcheck
from .heads import BiLstmFfnHead, LinearHead
from .losses import LossWeights, cross_entropy, total_loss
from .metrics import confusion_matrix, macro_f1
from .model import DpmnModel
from .optim import Adam
from .prompt import PrefixBank, PromptConfig, init_prompt, sweep_configs
from .runconfig import TrainConfig, format_config, parse_config
from .tensor import ParameterStore, Tape, Tensor, backward
from .trainer import RunLog, TrainResult, ablate, evaluate_checkpoint, evaluate_model, train

__all__ = [
    "Adam",
    "Batch",
    "BiLstmFfnHead",
    "ConfigError",
    "ContractError",
    "DataError",
    "DpmnError",
    "DpmnModel",
    "EncoderConfig",
    "EncoderStack",
    "Example",
    "IntegrityError",
    "LinearHead",
    "LossWeights",
    "NumericError",
    "ParameterStore",
    "ParseError",
    "PrefixBank",
    "PromptConfig",
    "RunLog",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "Vocab",
    "ablate",
    "backward",
    "build_vocab",
    "confusion_matrix",
    "cross_entropy",
    "encode",
    "evaluate_checkpoint",
    "evaluate_model",
    "format_config",
    "generate_synthetic_corpus",
    "init_prompt",
    "load_checkpoint",
    "macro_f1",
    "make_batches",
    "parse_config",
    "parse_tsv",
    "run_gradcheck",
    "save_checkpoint",
    "sweep_configs",
    "tokenize",
    "total_loss",
    "train",
    "write_tsv",
]
