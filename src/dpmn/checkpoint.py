"""Binary checkpoint container.

Layout, all integers little-endian uint32 unless noted:

    magic "DPMN" | format version | header length, header UTF-8 text |
    record count | records | crc32 of every preceding byte

Each record is: name length, name UTF-8, rank, one uint32 extent per axis,
then the row-major float64 little-endian values. The header text carries
the run configuration and vocabulary, so a checkpoint is self-contained.
Loading is the byte-exact inverse of saving.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import ContractError, IntegrityError

MAGIC = b"DPMN"
FORMAT_VERSION = 3  # 3 drops the header's optimizer key; versions 1 and 2 are rejected


def checkpoint_bytes(header_text: str, arrays: dict[str, np.ndarray]) -> bytes:
    """The checkpoint file as bytes, assembled by one join. Each array is
    passed as its own buffer (converted only if it is not C-contiguous
    little-endian float64) and the CRC32 runs over the chunks as they are
    added, so the values are copied once, into the result. A complex array
    is refused: its imaginary part has no place in a float64 record."""
    header = header_text.encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header)), header,
              struct.pack("<I", len(arrays))]
    for name, values in arrays.items():
        encoded = name.encode("utf-8")
        if np.iscomplexobj(values):
            raise ContractError(f"record {name!r} is complex; a checkpoint holds float64 values")
        # not ascontiguousarray: it would give a rank-0 array rank 1
        values = np.asarray(values, dtype="<f8", order="C")
        chunks.append(struct.pack(f"<I{len(encoded)}sI{values.ndim}I", len(encoded), encoded,
                                  values.ndim, *values.shape))
        chunks.append(values)
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.append(struct.pack("<I", crc))
    return b"".join(chunks)


def save_checkpoint(path, header_text: str, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(header_text, arrays))


class _Reader:
    """Sequential reads from a memoryview; every piece is a view, not a copy."""

    def __init__(self, view: memoryview):
        self.view = view
        self.offset = 0

    def take(self, n: int) -> memoryview:
        if self.offset + n > len(self.view):
            raise IntegrityError("checkpoint is truncated")
        piece = self.view[self.offset:self.offset + n]
        self.offset += n
        return piece

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def u32(self) -> int:
        return self.u32s(1)[0]


def parse_checkpoint(blob: bytes) -> tuple[str, dict[str, np.ndarray]]:
    """Header text and records of a checkpoint's bytes (or bytearray),
    read through a memoryview. Each record's values are copied once, out of
    the blob, into an owned, writable, native float64 array; no view of the
    blob escapes."""
    view = memoryview(blob)
    if len(view) < 4:
        raise IntegrityError("checkpoint is truncated")
    body, stored = view[:-4], struct.unpack("<I", view[-4:])[0]
    actual = zlib.crc32(body)
    if stored != actual:
        raise IntegrityError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise IntegrityError("bad magic bytes, not a checkpoint file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported format version {version}")
    header_text = str(r.take(r.u32()), "utf-8")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = str(r.take(r.u32()), "utf-8")
        shape = r.u32s(r.u32())
        values = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        try:
            values = values.reshape(shape)
        except ValueError:
            raise IntegrityError(f"record {name!r} has unsupported rank {len(shape)}") from None
        arrays[name] = values.astype(np.float64)
    if r.offset != len(body):
        raise IntegrityError(f"{len(body) - r.offset} trailing bytes after records")
    return header_text, arrays


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())
