"""Binary checkpoint container: round trips and integrity failures."""

import struct
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpmn.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from dpmn.data import generate_synthetic_corpus
from dpmn.errors import ContractError, IntegrityError
from dpmn.runconfig import TrainConfig
from dpmn.trainer import train

from conftest import one_record_checkpoint, reseal, with_a_repeated_record


def _arrays(rng):
    return {
        "embedding.token": rng.normal(size=(5, 3)),
        "layer0.attention.wq": rng.normal(size=(3, 3)),
        "head_a.ffn.b2": rng.normal(size=2),
    }


def test_save_load_save_is_byte_identical(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "hidden_size = 3\n", _arrays(rng))
    first = path.read_bytes()
    header, arrays = load_checkpoint(path)
    again = checkpoint_bytes(header, arrays)
    assert again == first


def test_round_trip_preserves_values_and_order(tmp_path, rng):
    arrays = _arrays(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "k = v\n", arrays)
    header, loaded = load_checkpoint(path)
    assert header == "k = v\n"
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64


def test_flipped_byte_fails_checksum(tmp_path, rng):
    blob = bytearray(checkpoint_bytes("k = v\n", _arrays(rng)))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(IntegrityError, match="checksum"):
        parse_checkpoint(bytes(blob))


def test_flipped_checksum_byte_detected(rng):
    blob = bytearray(checkpoint_bytes("k = v\n", _arrays(rng)))
    blob[-1] ^= 0x01
    with pytest.raises(IntegrityError, match="checksum"):
        parse_checkpoint(bytes(blob))


def test_bad_magic_rejected(rng):
    blob = bytearray(checkpoint_bytes("k = v\n", {}))
    blob[0:4] = b"NOPE"
    # restore a consistent checksum so the magic check itself fires
    import struct
    import zlib

    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body))
    with pytest.raises(IntegrityError, match="magic"):
        parse_checkpoint(bytes(blob))


def test_truncated_blob_rejected(rng):
    blob = checkpoint_bytes("k = v\n", _arrays(rng))
    with pytest.raises(IntegrityError):
        parse_checkpoint(blob[: len(blob) // 2])
    with pytest.raises(IntegrityError):
        parse_checkpoint(b"DP")


def test_unsupported_version_rejected():
    """Version 1 (Q, K and V stored apart) and version 2 (an optimizer key in
    the header) have no loader: retrain."""
    body = checkpoint_bytes("k = v\n", {})[:-4]
    for version in (1, 2, 99):
        with pytest.raises(IntegrityError, match=f"version {version}"):
            parse_checkpoint(reseal(body[:4] + struct.pack("<I", version) + body[8:]))


def test_empty_parameter_set_round_trips():
    blob = checkpoint_bytes("only = header\n", {})
    header, arrays = parse_checkpoint(blob)
    assert header == "only = header\n" and arrays == {}


def test_rank_0_record_keeps_rank_0():
    _, arrays = parse_checkpoint(checkpoint_bytes("k = v\n", {"s": np.array(2.5)}))
    assert arrays["s"].shape == () and arrays["s"] == 2.5


@pytest.mark.parametrize("values", [np.array([1 + 2j, 3 + 0j]), np.array([1.0, 3.0], np.complex64),
                                    np.array(0j)])
def test_a_complex_record_is_refused_by_name(values):
    """Casting to float64 would drop the imaginary part, keeping only a
    numpy ComplexWarning: [1+2j, 3+0j] wrote a checkpoint that parsed back
    to [1., 3.]. A complex array, even one whose imaginary part is 0, is a
    ContractError naming its record, before any byte is assembled."""
    with pytest.raises(ContractError, match="'w'"):
        checkpoint_bytes("h", {"v": np.ones(2), "w": values})


_records = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
               elements=st.floats(width=64)),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_records, st.sampled_from(["<f8", ">f8"]), st.sampled_from("CF"))
def test_records_of_rank_0_to_4_round_trip_into_owned_arrays(records, dtype, order):
    """Any float64 layout goes in; out come C-contiguous, native, writable
    arrays that own their values, holding the same bytes, and the file they
    re-save to is the same file."""
    arrays = {name: np.array(a, dtype=dtype, order=order) for name, a in records.items()}
    blob = bytearray(checkpoint_bytes("k = v\n", arrays))
    header, parsed = parse_checkpoint(blob)
    assert header == "k = v\n" and list(parsed) == list(arrays)
    for name, want in arrays.items():
        got = parsed[name]
        assert got.shape == want.shape
        assert got.tobytes() == want.astype(np.float64).tobytes()
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
        assert not np.shares_memory(got, np.frombuffer(blob, np.uint8))
    assert checkpoint_bytes(header, parsed) == blob


def test_a_record_name_read_twice_is_refused_by_name(rng):
    """The later record does not silently replace the earlier one."""
    arrays = _arrays(rng)
    for name in arrays:
        blob = with_a_repeated_record("k = v\n", arrays, name)
        with pytest.raises(IntegrityError, match=f"record '{name}' appears twice"):
            parse_checkpoint(blob)


def test_extents_whose_product_overflows_int64_are_truncation():
    # 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 in int64 arithmetic
    with pytest.raises(IntegrityError, match="truncated"):
        parse_checkpoint(one_record_checkpoint(2**21, 2**21, 2**22))


def test_rank_numpy_cannot_hold_rejected():
    with pytest.raises(IntegrityError, match="rank 70"):
        parse_checkpoint(one_record_checkpoint(*[0] * 70))


@cache
def _small_real_checkpoint() -> bytes:
    cfg = TrainConfig(num_layers=1, hidden_size=2, num_heads=1, ffn_size=2, max_seq_len=12,
                      max_epochs=1, batch_size=8, dropout=0.0)
    corpus = generate_synthetic_corpus(8, seed=0)
    r = train(cfg, corpus, corpus)
    return checkpoint_bytes(r.header_text, r.model.state_arrays())


@st.composite
def _mutated_bodies(draw):
    """The body of a real checkpoint with one byte, or one u32 at any offset,
    overwritten by any value."""
    body = bytearray(_small_real_checkpoint()[:-4])
    if draw(st.booleans()):
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    else:
        at = draw(st.integers(0, len(body) - 4))
        body[at:at + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(body)


@settings(max_examples=300, deadline=None)
@given(_mutated_bodies())
def test_resealed_mutation_parses_or_raises_a_file_error(body):
    """The CLI reports IntegrityError and UnicodeDecodeError as data errors
    (exit 3); anything else would escape as a traceback."""
    try:
        parse_checkpoint(reseal(body))
    except (IntegrityError, UnicodeDecodeError):
        pass
