import json
import struct

import numpy as np
import pytest

from dgssm.checkpoint import MAGIC, CheckpointError, load_arrays, save_arrays
from dgssm.rng import RngStream


def _arrays():
    stream = RngStream(1)
    return {"w": stream.normal(size=(3, 4)), "b": stream.normal(size=(4,))}


def _saved_bytes(tmp_path) -> bytes:
    path = tmp_path / "src.ckpt"
    save_arrays(path, _arrays(), {"tag": "x"})
    return path.read_bytes()


def _v1_bytes(arrays: dict, meta: dict) -> bytes:
    """A version-1 file: no payload length, no checksum."""
    meta_bytes = json.dumps(meta).encode("utf-8")
    out = [MAGIC, struct.pack("<II", 1, len(meta_bytes)), meta_bytes, struct.pack("<I", len(arrays))]
    for name in arrays:
        out += [struct.pack("<H", len(name)), name.encode("utf-8")]
    for arr in arrays.values():
        out.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
    out += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays.values()]
    return b"".join(out)


def test_round_trip_arrays_and_meta(tmp_path):
    stream = RngStream(0)
    arrays = {
        "weights.w": stream.normal(size=(3, 4)),
        "weights.b": stream.normal(size=(4,)),
        "scalar": np.array(7.25),
        "opt.step": np.array([3.0]),
    }
    meta = {"config": {"hidden": 4}, "tag": "x"}
    path = tmp_path / "c.ckpt"
    save_arrays(path, arrays, meta)
    back, meta2 = load_arrays(path)
    assert meta2 == meta
    assert list(back) == list(arrays)  # order preserved
    for k in arrays:
        assert np.array_equal(back[k], arrays[k])
        assert back[k].shape == arrays[k].shape


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_arrays(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    payload = MAGIC + (99).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"{}"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="version"):
        load_arrays(path)


def test_empty_container(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_arrays(path, {}, {"nothing": True})
    arrays, meta = load_arrays(path)
    assert arrays == {} and meta == {"nothing": True}


@pytest.mark.parametrize("keep", [-1, -40, 20])
def test_truncated_file_rejected(tmp_path, keep):
    path = tmp_path / "cut.ckpt"
    path.write_bytes(_saved_bytes(tmp_path)[:keep])
    with pytest.raises(CheckpointError, match="truncated"):
        load_arrays(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(_saved_bytes(tmp_path) + b"junk")
    with pytest.raises(CheckpointError, match="4 trailing bytes"):
        load_arrays(path)


def test_flipped_payload_bit_rejected(tmp_path):
    data = bytearray(_saved_bytes(tmp_path))
    data[-3] ^= 0x01  # inside the last float64 of the payload
    path = tmp_path / "flip.ckpt"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="checksum"):
        load_arrays(path)


def test_version_1_file_refused(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_v1_bytes(_arrays(), {"config": {"hidden": 4}}))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_arrays(path)
