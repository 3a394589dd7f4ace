"""The random streams: every draw the library makes is pinned, and seeds are
checked where they enter."""

import copy
import hashlib
import pickle
import re

import numpy as np
import pytest

from dgssm.model import ModelConfig, init_weights
from dgssm.rng import RngStream

# The digest of the draws below; a change to any stream changes it.
STREAM_DIGEST = "fc6789927ea777bd"


def _stream_digest() -> str:
    """Draws through every stream method the library calls, through
    ``split`` and ``child``, every ``draw`` kind, and a model's initial
    weights, hashed as raw bytes."""
    h = hashlib.sha256()

    def add(a):
        h.update(np.ascontiguousarray(a).tobytes())

    s = RngStream(7)
    add(s.normal(size=5))
    add(s.normal(0.5, 2.0, size=(2, 3)))
    add(s.uniform(size=4))
    add(s.uniform(-0.5, 0.5, size=3))
    add(s.uniform())
    add(s.integers(2, 26))
    add(s.integers(0, 9, size=6))
    add(s.permutation(8))
    add(s.choice(np.arange(10), size=2, replace=False))
    x = np.arange(9)
    s.shuffle(x)
    add(x)
    for part in s.split(3):
        add(part.normal(size=2))
        add(part.child().uniform(size=2))
    add(s.child().uniform(size=2))
    add(s.child().permutation(5))
    for init in (("normal", 0.3), ("uniform", -1.0, 1.0), ("fill", 0.5), ("log_arange",)):
        add(s.draw(init, (3,)))
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, bidirectional=True)
    add(init_weights(cfg, RngStream(11)).flat)
    add(RngStream(np.random.SeedSequence(5)).normal(size=3))
    return h.hexdigest()[:16]


def test_streams_draw_what_they_always_drew():
    assert _stream_digest() == STREAM_DIGEST


def test_spawned_streams_are_rng_streams():
    children = RngStream(0).spawn(2)
    assert len(children) == 2 and all(isinstance(c, RngStream) for c in children)
    assert all(isinstance(c, RngStream) for c in RngStream(0).split(2) + [RngStream(0).child()])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=repr)
def test_seed_must_be_an_integer_at_least_zero(seed):
    with pytest.raises(ValueError, match=re.escape(f"RngStream: seed must be an integer >= 0, got {seed!r}")):
        RngStream(seed)


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_streams_survive_pickle_and_copy(clone):
    # A copy draws what the original would have drawn next, as a stream.
    stream, same = RngStream(5), RngStream(5)
    for s in (stream, same):
        s.normal(size=3)
    twin = clone(stream)
    assert type(twin) is RngStream
    assert np.array_equal(twin.normal(size=4), same.normal(size=4))
    assert np.array_equal(twin.child().uniform(size=2), same.child().uniform(size=2))


def test_seed_accepts_numpy_integers():
    assert RngStream(np.int64(4)).normal() == RngStream(4).normal()
