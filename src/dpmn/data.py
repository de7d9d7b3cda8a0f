"""OLID-style corpora: TSV parsing, tokenization, vocabulary, batching.

Labels are hierarchical across three tasks. Task A is NOT/OFF; task B
(TIN/UNT) may only be present when A is OFF; task C (IND/GRP/OTH) may only
be present when B is TIN. "NULL" or an empty field marks an absent label.

The tokenizer is deliberately simple: lowercase, split on whitespace and
punctuation boundaries, with @-mentions and URLs mapped to dedicated
tokens. It stands in for a subword tokenizer behind the same interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, HierarchyError, ParseError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED = ("[PAD]", "[UNK]", "[CLS]")

ABSENT = -1

# The three tasks in loss and report order, each with its labels in
# class-id order: A (main) is offensive or not, B targeted or not, C the
# target type.
TASK_LABELS = {"a": ("NOT", "OFF"), "b": ("TIN", "UNT"), "c": ("IND", "GRP", "OTH")}
TASKS = tuple(TASK_LABELS)
TASK_CLASSES = {task: len(labels) for task, labels in TASK_LABELS.items()}

USER_TOKEN = "<user>"
URL_TOKEN = "<url>"
_USER_RE = re.compile(r"@\w+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+|\bURL\b")
_TOKEN_RE = re.compile(r"<user>|<url>|\w+|[^\w\s]")

_REQUIRED_COLUMNS = ("id", "tweet", *(f"subtask_{task}" for task in TASKS))
# The field separator plus every line boundary str.splitlines breaks on:
# an id or text holding one would not parse back from its row.
_ROW_BREAK_RE = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")  # the code points UTF-8 cannot encode


@dataclass(frozen=True)
class Example:
    """One labeled text; label_b/label_c are None when absent."""

    id: str
    text: str
    label_a: str
    label_b: str | None = None
    label_c: str | None = None

    def __post_init__(self):
        problem = _label_problem(self.text, self.label_a, self.label_b, self.label_c)
        if problem is not None:
            raise ContractError(f"example {self.id!r}: {problem[1]}")
        for name in ("id", "text"):
            value = getattr(self, name)
            if _ROW_BREAK_RE.search(value):
                raise ContractError(f"example {self.id!r}: {name} holds a tab or line break")
            if _SURROGATE_RE.search(value):
                raise ContractError(f"example {self.id!r}: {name} cannot be written as UTF-8")


def _label_problem(text: str, label_a, label_b, label_c) -> tuple[type, str] | None:
    """The first defect of a row's text and labels as (error type, message),
    or None. Unknown labels and empty text are ParseErrors; labels that
    contradict their parent label are HierarchyErrors."""
    for task, label in zip(TASKS, (label_a, label_b, label_c)):
        # only the main task's label is required
        if label not in TASK_LABELS[task] and (label is not None or task == TASKS[0]):
            return ParseError, f"unknown subtask_{task} label {label!r}"
    if label_b is not None and label_a != "OFF":
        return HierarchyError, f"label_b={label_b} with label_a={label_a}"
    if label_c is not None and label_b != "TIN":
        return HierarchyError, f"label_c={label_c} with label_b={label_b}"
    if not text:
        return ParseError, "empty tweet text"
    return None


def _absent_or(raw: str) -> str | None:
    value = raw.strip()
    return None if value in ("", "NULL") else value


def parse_tsv(path) -> list[Example]:
    """Parse a header-bearing TSV corpus; rejects malformed or inconsistent rows."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(1, "empty file, expected a header row")
    header = lines[0].split("\t")
    columns = {}
    for name in _REQUIRED_COLUMNS:
        if name not in header:
            raise ParseError(1, f"missing column {name!r} in header {header}")
        columns[name] = header.index(name)

    examples = []
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise ParseError(
                line_no, f"expected {len(header)} fields, got {len(fields)}"
            )
        text = fields[columns["tweet"]]
        label_a = fields[columns["subtask_a"]].strip()
        label_b = _absent_or(fields[columns["subtask_b"]])
        label_c = _absent_or(fields[columns["subtask_c"]])
        problem = _label_problem(text, label_a, label_b, label_c)
        if problem is not None:
            raise problem[0](line_no, problem[1])
        examples.append(Example(fields[columns["id"]], text, label_a, label_b, label_c))
    return examples


def example_to_row(example: Example) -> str:
    """Inverse of parse_tsv for one example, using the canonical column order."""
    labels = (getattr(example, f"label_{task}") or "NULL" for task in TASKS)
    return "\t".join((example.id, example.text, *labels))


def write_tsv(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(_REQUIRED_COLUMNS) + "\n")
        for ex in examples:
            f.write(example_to_row(ex) + "\n")


def tokenize_words(text: str) -> list[str]:
    """Normalized surface tokens, without the [CLS] marker."""
    text = _URL_RE.sub(f" {URL_TOKEN} ", text)
    text = _USER_RE.sub(f" {USER_TOKEN} ", text)
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    """token -> id map with PAD/UNK/CLS reserved at ids 0/1/2; each token
    has exactly one id and is a value a checkpoint header line can hold."""

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tokens[: len(RESERVED)] != RESERVED:
            raise ContractError("vocab token list must start with the reserved tokens")
        token_to_id = {}
        for i, t in enumerate(self.tokens):
            if token_to_id.setdefault(t, i) != i:
                raise ContractError(f"vocab token {t!r} repeats at ids {token_to_id[t]} and {i}")
            if not t or t != t.strip() or _ROW_BREAK_RE.search(t) or _SURROGATE_RE.search(t):
                raise ContractError(f"vocab token {t!r} at id {i} is empty, padded with "
                                    "whitespace, or cannot be one line of UTF-8")
        object.__setattr__(self, "token_to_id", token_to_id)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(examples, min_freq: int = 1) -> Vocab:
    """Frequency-ordered vocabulary (ties broken lexicographically)."""
    if min_freq < 1:
        raise ContractError(f"min_freq must be >= 1, got {min_freq}")
    if not examples:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for ex in examples:
        for tok in tokenize_words(ex.text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (t for t, n in counts.items() if n >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return Vocab(RESERVED + tuple(kept))


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Token ids with [CLS] prepended; unknown tokens map to [UNK]."""
    return [CLS_ID] + [vocab.id_of(t) for t in tokenize_words(text)]


def _class_id(example: Example, task: str) -> int:
    label = getattr(example, f"label_{task}")
    return ABSENT if label is None else TASK_LABELS[task].index(label)


@dataclass(frozen=True)
class Batch:
    """Padded token ids plus lengths and per-task label arrays."""

    token_ids: np.ndarray      # [batch, T] int64, PAD-padded
    lengths: np.ndarray        # [batch] int64
    labels: dict[str, np.ndarray]  # task -> [batch] int64 class ids, ABSENT where missing

    def __len__(self):
        return self.token_ids.shape[0]


def make_batches(examples, vocab: Vocab, batch_size: int, max_len: int,
                 shuffle_seed: int | None = None) -> list[Batch]:
    """Chunk examples into padded batches.

    Token lists (including [CLS]) are truncated from the right to `max_len`,
    so the caller reserves prompt positions by passing max_seq_len - p_n.
    Shuffling is deterministic given the seed; None keeps corpus order.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    examples = list(examples)
    if not examples:
        raise ContractError("cannot batch an empty corpus")
    if shuffle_seed is not None:
        order = np.random.Generator(np.random.PCG64(shuffle_seed)).permutation(len(examples))
        examples = [examples[i] for i in order]

    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        id_lists = [tokenize(ex.text, vocab)[:max_len] for ex in chunk]
        width = max(len(ids) for ids in id_lists)
        token_ids = np.full((len(chunk), width), PAD_ID, dtype=np.int64)
        for i, ids in enumerate(id_lists):
            token_ids[i, : len(ids)] = ids
        batches.append(
            Batch(
                token_ids=token_ids,
                lengths=np.array([len(ids) for ids in id_lists], dtype=np.int64),
                labels={task: np.array([_class_id(ex, task) for ex in chunk]) for task in TASKS},
            )
        )
    return batches


_BENIGN = (
    "sunny", "walk", "park", "coffee", "friend", "music", "happy", "weekend",
    "garden", "book", "smile", "lovely", "morning", "dinner", "share",
)
_OFFENSIVE = (
    "idiot", "fool", "trash", "loser", "clown", "pathetic", "awful", "stupid",
)
_GROUP_CUES = ("they", "everyone", "crowd")
_OTHER_CUES = ("that", "thing", "show")
# the share of texts that are offensive, the share of those that are
# targeted, and the IND/GRP/OTH mix of the targets
_OFF_FRACTION = 0.5
_TARGETED_FRACTION = 0.6
_TARGET_MIX = (0.5, 0.3, 0.2)


def generate_synthetic_corpus(n: int, seed: int) -> list[Example]:
    """Deterministic corpus whose labels are recoverable from surface tokens.

    Offensive texts contain words from a disjoint lexicon, targeted insults
    mention a user, and the target type has its own cue word, so task A is
    linearly separable and tasks B/C carry hierarchy-consistent signal.
    """
    if n < 1:
        raise ContractError("corpus size must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    examples = []
    for i in range(n):
        base = list(rng.choice(_BENIGN, size=rng.integers(3, 6)))
        if rng.random() >= _OFF_FRACTION:
            examples.append(Example(f"syn{i:04d}", " ".join(base), "NOT"))
            continue
        insults = list(rng.choice(_OFFENSIVE, size=rng.integers(1, 3)))
        if rng.random() >= _TARGETED_FRACTION:
            words = base[:2] + insults
            examples.append(Example(f"syn{i:04d}", " ".join(words), "OFF", "UNT"))
            continue
        target = TASK_LABELS["c"][int(rng.choice(3, p=_TARGET_MIX))]
        cue = {
            "IND": ["@USER", "you"],
            "GRP": ["@USER", str(rng.choice(_GROUP_CUES))],
            "OTH": ["@USER", str(rng.choice(_OTHER_CUES))],
        }[target]
        words = cue + base[:2] + insults
        examples.append(Example(f"syn{i:04d}", " ".join(words), "OFF", "TIN", target))
    return examples
