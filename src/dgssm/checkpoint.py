"""Versioned binary container for named float arrays plus a JSON meta block.

Layout (all integers little-endian):

    magic        8 bytes   b"DGSSMCKP"
    version      uint32    2 (version 1 files are still read)
    meta_len     uint32    followed by meta_len bytes of UTF-8 JSON
    count        uint32    number of arrays
    name table   per array: uint16 name length + UTF-8 name bytes
    shape table  per array: uint8 ndim + ndim * uint32 dims
    payload_len  uint64    bytes of payload (version 2 only)
    crc32        uint32    CRC-32 of every byte before it, then of the
                           payload (version 2 only)
    payload      contiguous float64 array data, in table order

Version 1 has neither ``payload_len`` nor ``crc32``. A file that is cut
short, carries bytes after the payload, or (version 2) fails its checksum
raises :class:`CheckpointError`.

The meta block carries the model configuration and anything else the caller
wants to round-trip (task, feature dimension, dtype tag). A
``model.save_model`` caller that passes ``opt_arrays`` gets them stored as
ordinary arrays under an ``opt.`` name prefix; ``train`` passes none.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"DGSSMCKP"
VERSION = 2
READABLE_VERSIONS = (1, 2)


class CheckpointError(ValueError):
    """Raised for a checkpoint file that is not a valid container."""


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    meta_bytes = json.dumps(meta).encode("utf-8")
    header = [MAGIC, struct.pack("<II", VERSION, len(meta_bytes)), meta_bytes]
    header.append(struct.pack("<I", len(arrays)))
    for name in arrays:
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"array name too long: {name[:40]}...")
        header += [struct.pack("<H", len(nb)), nb]
    for name, arr in arrays.items():
        shape = np.asarray(arr).shape
        if len(shape) > 0xFF:
            raise ValueError(f"too many dimensions for {name!r}")
        header.append(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays.values())
    header.append(struct.pack("<Q", len(payload)))
    head = b"".join(header)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))
        fh.write(payload)


class _Reader:
    """Sequential reads over a file's bytes; a short read is a truncated file."""

    def __init__(self, data: bytes, path: str | Path):
        self.data, self.path, self.pos = data, path, 0

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint ({len(self.data)} bytes)")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    data = Path(path).read_bytes()
    r = _Reader(data, path)
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = r.unpack("<I")
    if version not in READABLE_VERSIONS:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = r.unpack("<I")
    meta_bytes = r.take(meta_len)
    (count,) = r.unpack("<I")
    names = [r.take(r.unpack("<H")[0]) for _ in range(count)]
    shapes = [r.unpack(f"<{r.unpack('<B')[0]}I") for _ in range(count)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    expected = 8 * sum(sizes)
    if version >= 2:
        (payload_len,) = r.unpack("<Q")
        head_end = r.pos
        (crc,) = r.unpack("<I")
        if payload_len != expected:
            raise CheckpointError(
                f"{path}: payload length {payload_len} != {expected} from the shape table"
            )
    payload = r.take(expected)
    if r.pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - r.pos} trailing bytes after the payload")
    if version >= 2 and zlib.crc32(payload, zlib.crc32(data[:head_end])) != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt checkpoint)")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
        names = [nb.decode("utf-8") for nb in names]
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header ({e})") from e
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape, size in zip(names, shapes, sizes):
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=size, offset=offset).reshape(shape).copy()
        offset += 8 * size
    return arrays, meta
