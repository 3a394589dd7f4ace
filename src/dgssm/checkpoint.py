"""Versioned binary container for named float arrays plus a JSON meta block.

Layout (all integers little-endian):

    magic        8 bytes   b"DGSSMCKP"
    version      uint32    2
    meta_len     uint32    followed by meta_len bytes of UTF-8 JSON
    count        uint32    number of arrays
    name table   per array: uint16 name length + UTF-8 name bytes
    shape table  per array: uint8 ndim + ndim * uint32 dims
    payload_len  uint64    bytes of payload
    crc32        uint32    CRC-32 of every byte before it, then of the
                           payload
    payload      contiguous float64 array data, in table order

A file of another version, or one that is cut short, carries bytes after
the payload or fails its checksum, raises :class:`CheckpointError`.
:func:`load_arrays` reads a file in one pass and returns every array as a
view of one copy of the payload, so a caller that keeps some arrays and not
others copies what it keeps (``model.load_model`` copies the parameters
into their own buffer).

The meta block carries the model configuration and anything else the caller
wants to round-trip (task, feature dimension, dtype tag). A
``model.save_model`` caller that passes ``opt_arrays`` gets them stored as
ordinary arrays under an ``opt.`` name prefix; ``train`` passes none.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"DGSSMCKP"
VERSION = 2


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


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container in one pass: the header is unpacked at offsets, the
    payload is copied once into one aligned buffer, and each returned array
    is a view of its part of that buffer."""
    data = Path(path).read_bytes()

    def truncated() -> CheckpointError:
        return CheckpointError(f"{path}: truncated checkpoint ({len(data)} bytes)")

    if len(data) < 8:
        raise truncated()
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", data, 8)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack_from("<I", data, 12)
        meta_bytes = data[16 : 16 + meta_len]
        pos = 16 + meta_len
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        names = []
        for _ in range(count):
            (size,) = struct.unpack_from("<H", data, pos)
            names.append(data[pos + 2 : pos + 2 + size])
            pos += 2 + size
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<B", data, pos)
            shapes.append(struct.unpack_from(f"<{ndim}I", data, pos + 1))
            pos += 1 + 4 * ndim
        sizes = [math.prod(shape) for shape in shapes]
        expected = 8 * sum(sizes)
        payload_len, crc = struct.unpack_from("<QI", data, pos)
        head_end = pos + 8
        pos += 12
        if payload_len != expected:
            raise CheckpointError(
                f"{path}: payload length {payload_len} != {expected} from the shape table"
            )
    except struct.error:
        raise truncated() from None
    if pos + expected > len(data):
        raise truncated()
    if pos + expected != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos - expected} trailing bytes after the payload")
    view = memoryview(data)
    if zlib.crc32(view[pos:], zlib.crc32(view[:head_end])) != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt checkpoint)")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
        names = [nb.decode("utf-8") for nb in names]
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header ({e})") from e
    payload = np.frombuffer(data, dtype="<f8", count=expected // 8, offset=pos).astype(np.float64)
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape, size in zip(names, shapes, sizes):
        arrays[name] = payload[offset : offset + size].reshape(shape)
        offset += size
    return arrays, meta
