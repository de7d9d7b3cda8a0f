"""Corpus parsing, tokenization, vocabulary, and batching."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.data import (
    ABSENT,
    CLS_ID,
    PAD_ID,
    RESERVED,
    TASK_LABELS,
    TASKS,
    UNK_ID,
    Example,
    Vocab,
    build_vocab,
    example_to_row,
    generate_synthetic_corpus,
    make_batches,
    parse_tsv,
    tokenize,
    tokenize_words,
    write_tsv,
)
from dpmn.errors import ContractError, HierarchyError, ParseError

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "sample_olid.tsv")


def _write(tmp_path, text):
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"


def test_parse_fixture_corpus():
    examples = parse_tsv(FIXTURE)
    assert len(examples) == 12
    assert examples[0].label_a == "NOT" and examples[0].label_b is None
    assert examples[2].label_a == "OFF" and examples[2].label_b == "UNT" and examples[2].label_c is None
    assert examples[4].label_b == "TIN" and examples[4].label_c == "IND"
    assert {e.label_c for e in examples if e.label_c} == {"IND", "GRP", "OTH"}


def test_not_row_has_absent_b_and_c(tmp_path):
    path = _write(tmp_path, HEADER + "1\tsome text\tNOT\tNULL\tNULL\n")
    ex = parse_tsv(path)[0]
    assert (ex.label_a, ex.label_b, ex.label_c) == ("NOT", None, None)


def test_full_hierarchy_row(tmp_path):
    path = _write(tmp_path, HEADER + "1\tsome text\tOFF\tTIN\tIND\n")
    ex = parse_tsv(path)[0]
    assert (ex.label_a, ex.label_b, ex.label_c) == ("OFF", "TIN", "IND")


def test_hierarchy_violation_rejected_with_line_number(tmp_path):
    path = _write(tmp_path, HEADER + "1\tok row\tNOT\tNULL\tNULL\n2\tbad row\tNOT\tTIN\tNULL\n")
    with pytest.raises(HierarchyError, match="line 3"):
        parse_tsv(path)


def test_c_without_tin_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "1\ttext\tOFF\tUNT\tIND\n")
    with pytest.raises(HierarchyError):
        parse_tsv(path)


def test_unknown_label_rejected_with_field(tmp_path):
    path = _write(tmp_path, HEADER + "1\ttext\tMAYBE\tNULL\tNULL\n")
    with pytest.raises(ParseError, match="MAYBE"):
        parse_tsv(path)


def test_wrong_field_count_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "1\ttext\tNOT\tNULL\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_tsv(path)


def test_missing_column_rejected(tmp_path):
    path = _write(tmp_path, "id\ttweet\tsubtask_a\tsubtask_b\n1\tt\tNOT\tNULL\n")
    with pytest.raises(ParseError, match="subtask_c"):
        parse_tsv(path)


def test_column_order_is_free(tmp_path):
    path = _write(
        tmp_path,
        "subtask_c\tid\ttweet\tsubtask_b\tsubtask_a\nIND\t7\t@USER fool\tTIN\tOFF\n",
    )
    ex = parse_tsv(path)[0]
    assert ex.id == "7" and ex.label_c == "IND"


def test_empty_text_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "1\t\tNOT\tNULL\tNULL\n")
    with pytest.raises(ParseError, match="empty"):
        parse_tsv(path)


def test_example_and_parse_tsv_share_one_label_check(tmp_path):
    """Every text/label combination is accepted by both or rejected by both
    with the same message; the corpus path adds the line number."""
    for text, a, b, c in itertools.product(("", "t"), ("NOT", "OFF", "BAD"),
                                           (None, "TIN", "UNT", "BAD"),
                                           (None, "IND", "GRP", "OTH", "BAD")):
        path = _write(tmp_path, HEADER + f"1\t{text}\t{a}\t{b or 'NULL'}\t{c or 'NULL'}\n")
        try:
            expected = [Example("1", text, a, b, c)]
        except ContractError as e:
            with pytest.raises((ParseError, HierarchyError)) as parsed:
                parse_tsv(path)
            assert str(parsed.value) == "line 2: " + str(e).removeprefix("example '1': ")
        else:
            assert parse_tsv(path) == expected


def test_round_trip_through_rows(tmp_path):
    examples = parse_tsv(FIXTURE)
    path = tmp_path / "again.tsv"
    write_tsv(path, examples)
    assert parse_tsv(path) == examples
    assert example_to_row(examples[0]).count("\t") == 4


# The characters a TSV row cannot hold in a field: the field separator and
# every line boundary of str.splitlines, which parse_tsv splits rows on.
ROW_BREAKS = "\t" + "".join(
    chr(c) for c in range(0x110000)
    if not 0xD800 <= c < 0xE000 and len(f"a{chr(c)}b".splitlines()) > 1
)


@pytest.mark.parametrize("char", ROW_BREAKS)
def test_example_rejects_fields_a_row_cannot_hold(char):
    with pytest.raises(ContractError, match="id holds a tab or line break"):
        Example(f"1{char}2", "text", "NOT")
    with pytest.raises(ContractError, match="text holds a tab or line break"):
        Example("1", f"a{char}b", "NOT")


_LABELS = st.sampled_from([("NOT", None, None), ("OFF", None, None), ("OFF", "UNT", None),
                           ("OFF", "TIN", None), ("OFF", "TIN", "IND"), ("OFF", "TIN", "GRP"),
                           ("OFF", "TIN", "OTH")])
_FIELD_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters=ROW_BREAKS)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.text(_FIELD_CHARS), st.text(_FIELD_CHARS, min_size=1), _LABELS),
                max_size=5))
def test_write_then_parse_is_identity(rows):
    examples = [Example(id_, text, *labels) for id_, text, labels in rows]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "corpus.tsv")
        write_tsv(path, examples)
        assert parse_tsv(path) == examples


@pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"])
def test_example_rejects_an_id_utf8_cannot_encode(surrogate):
    with pytest.raises(ContractError, match="id cannot be written as UTF-8"):
        Example(f"1{surrogate}", "text", "NOT")


@pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"])
def test_example_rejects_a_text_utf8_cannot_encode(surrogate):
    with pytest.raises(ContractError, match="text cannot be written as UTF-8"):
        Example("1", f"a{surrogate}b", "NOT")


# Any code point, lone surrogates included; surrogates and row breaks are
# also drawn on their own so that most lists hold some.
_ANY_CHARS = st.one_of(st.characters(exclude_categories=()),
                       st.sampled_from(ROW_BREAKS + "\ud800\udbff\udc00\udfff"))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.text(_ANY_CHARS), st.text(_ANY_CHARS), _LABELS), max_size=5))
def test_every_example_is_rejected_or_parses_back(rows):
    examples = []
    for id_, text, labels in rows:
        try:
            examples.append(Example(id_, text, *labels))
        except ContractError:
            continue
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "corpus.tsv")
        write_tsv(path, examples)
        assert parse_tsv(path) == examples


def test_tokenize_empty_text_is_cls_only():
    vocab = build_vocab([Example("1", "hello world", "NOT")])
    assert tokenize("", vocab) == [CLS_ID]


def test_tokenize_normalizes_mentions_and_case():
    vocab = build_vocab([Example("1", "@USER you fool", "NOT")])
    ids = tokenize("@USER You FOOL", vocab)
    assert ids[0] == CLS_ID
    assert ids[1] == vocab.token_to_id["<user>"]
    assert ids[2] == vocab.token_to_id["you"]
    assert ids[3] == vocab.token_to_id["fool"]
    # unknown word maps to UNK
    assert tokenize("zzzunseen", vocab) == [CLS_ID, UNK_ID]


def test_tokenize_maps_urls():
    words = tokenize_words("look at https://example.com/x and URL and www.foo.bar")
    assert words.count("<url>") == 3


def test_punctuation_splits():
    assert tokenize_words("idiots? Praise!") == ["idiots", "?", "praise", "!"]


@settings(deadline=None, max_examples=40)
@given(st.text(min_size=1, max_size=60))
def test_tokenize_is_deterministic(text):
    vocab = build_vocab([Example("1", "hello world", "NOT")])
    assert tokenize(text, vocab) == tokenize(text, vocab)


def test_vocab_min_freq_filters_to_reserved_only():
    examples = [Example("1", "alpha beta gamma", "NOT")]
    vocab = build_vocab(examples, min_freq=5)
    assert vocab.tokens == RESERVED


def test_vocab_orders_by_frequency_then_lexicographic():
    examples = [Example("1", "bb bb aa cc cc", "NOT")]
    vocab = build_vocab(examples)
    assert vocab.tokens[3:] == ("bb", "cc", "aa")


def test_vocab_deterministic():
    examples = generate_synthetic_corpus(30, seed=3)
    assert build_vocab(examples).tokens == build_vocab(examples).tokens


def test_vocab_rejects_a_repeated_token_or_a_missing_reserved_prefix():
    with pytest.raises(ContractError, match="'you' repeats at ids 3 and 5"):
        Vocab(RESERVED + ("you", "fool", "you"))
    with pytest.raises(ContractError, match="reserved"):
        Vocab(("you",) + RESERVED)
    assert Vocab(RESERVED + ("you",)).id_of("you") == 3


def test_batch_sizes_for_65_examples():
    examples = generate_synthetic_corpus(65, seed=0)
    vocab = build_vocab(examples)
    batches = make_batches(examples, vocab, batch_size=32, max_len=30)
    assert [len(b) for b in batches] == [32, 32, 1]


def test_shuffle_is_deterministic_given_seed():
    examples = generate_synthetic_corpus(40, seed=1)
    vocab = build_vocab(examples)
    a = make_batches(examples, vocab, 8, 30, shuffle_seed=9)
    b = make_batches(examples, vocab, 8, 30, shuffle_seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.token_ids, y.token_ids)
    c = make_batches(examples, vocab, 8, 30, shuffle_seed=10)
    assert any(not np.array_equal(x.token_ids, y.token_ids) for x, y in zip(a, c))


def test_mask_marks_exactly_non_pad_positions():
    examples = generate_synthetic_corpus(17, seed=2)
    vocab = build_vocab(examples)
    for batch in make_batches(examples, vocab, 5, 30):
        real = np.arange(batch.token_ids.shape[1]) < batch.lengths[:, None]
        assert np.array_equal(real, batch.token_ids != PAD_ID)


def test_truncation_keeps_cls():
    examples = [Example("1", "a b c d e f g h", "NOT")]
    vocab = build_vocab(examples)
    batch = make_batches(examples, vocab, 1, max_len=4)[0]
    assert batch.token_ids.shape[1] == 4
    assert batch.token_ids[0, 0] == CLS_ID


def test_empty_corpus_rejected():
    vocab = build_vocab([Example("1", "x", "NOT")])
    with pytest.raises(ContractError):
        make_batches([], vocab, 4, 10)
    with pytest.raises(ContractError):
        build_vocab([])


def test_label_arrays_follow_hierarchy():
    examples = generate_synthetic_corpus(50, seed=5)
    vocab = build_vocab(examples)
    for batch in make_batches(examples, vocab, 16, 30):
        b_present = batch.labels["b"] >= 0
        c_present = batch.labels["c"] >= 0
        assert (batch.labels["a"][b_present] == 1).all()  # OFF
        assert (batch.labels["b"][c_present] == 0).all()  # TIN


@settings(deadline=None, max_examples=100)
@given(st.lists(_LABELS, min_size=1, max_size=20), st.integers(1, 6),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_label_arrays_decode_to_each_rows_labels(labels, batch_size, shuffle_seed):
    # Each text is one unique word, so a batch row's first token after
    # [CLS] names the example it came from, shuffled or not.
    examples = [Example(str(i), f"w{i}", *row) for i, row in enumerate(labels)]
    vocab = build_vocab(examples)
    seen = []
    for batch in make_batches(examples, vocab, batch_size, 4, shuffle_seed):
        assert sorted(batch.labels) == sorted(TASKS)
        assert all(ids.dtype == np.int64 for ids in batch.labels.values())
        for r in range(len(batch)):
            example = examples[int(vocab.tokens[batch.token_ids[r, 1]][1:])]
            seen.append(example.id)
            for task in TASKS:
                class_id = batch.labels[task][r]
                decoded = None if class_id == ABSENT else TASK_LABELS[task][class_id]
                assert decoded == getattr(example, f"label_{task}")
    assert sorted(seen) == sorted(ex.id for ex in examples)


def test_generator_is_deterministic_and_valid():
    a = generate_synthetic_corpus(64, seed=7)
    b = generate_synthetic_corpus(64, seed=7)
    assert a == b
    assert len({e.id for e in a}) == 64
    labels = {e.label_a for e in a}
    assert labels == {"NOT", "OFF"}
