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

from .errors import IntegrityError

MAGIC = b"DPMN"
FORMAT_VERSION = 3  # 3 drops the header's optimizer key; versions 1 and 2 are rejected


def checkpoint_bytes(header_text: str, arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    header = header_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(header)))
    chunks.append(header)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, values in arrays.items():
        encoded = name.encode("utf-8")
        values = np.ascontiguousarray(values, dtype="<f8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", values.ndim))
        chunks.append(struct.pack(f"<{values.ndim}I", *values.shape))
        chunks.append(values.tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body))


def save_checkpoint(path, header_text: str, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(header_text, arrays))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise IntegrityError("checkpoint is truncated")
        piece = self.blob[self.offset:self.offset + n]
        self.offset += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def parse_checkpoint(blob: bytes) -> tuple[str, dict[str, np.ndarray]]:
    if len(blob) < 4:
        raise IntegrityError("checkpoint is truncated")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(body)
    if stored != actual:
        raise IntegrityError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise IntegrityError("bad magic bytes, not a checkpoint file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported format version {version}")
    header_text = r.take(r.u32()).decode("utf-8")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        shape = tuple(r.u32() for _ in range(rank))
        values = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        try:
            values = values.reshape(shape)
        except ValueError:
            raise IntegrityError(f"record {name!r} has unsupported rank {rank}") from None
        arrays[name] = values.astype(np.float64).copy()
    if r.offset != len(body):
        raise IntegrityError(f"{len(body) - r.offset} trailing bytes after records")
    return header_text, arrays


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())
