"""Splittable counter-based random streams.

Every stochastic component in this package (initializers, dropout, data
generation, batch shuffling) draws from an explicit :class:`RngStream`, so a
run is bit-reproducible from its seed. Streams are backed by numpy's Philox
counter-based generator and split through ``SeedSequence.spawn``, which keeps
child streams statistically independent of each other and of the parent.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A named handle on one independent random stream."""

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RngStream"]:
        """Spawn ``n`` independent child streams."""
        return [RngStream(s) for s in self._seq.spawn(n)]

    def child(self) -> "RngStream":
        """Spawn the next child stream (deterministic sequence)."""
        return RngStream(self._seq.spawn(1)[0])

    # Thin delegation to the underlying numpy Generator, so call sites do not
    # reach into ``_gen`` directly.
    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def shuffle(self, x) -> None:
        self._gen.shuffle(x)

    def draw(self, init: tuple, shape: tuple[int, ...]) -> np.ndarray:
        """An initial array of ``shape`` from an initializer spec:
        ``("normal", std)`` and ``("uniform", low, high)`` draw from this
        stream; ``("fill", value)`` and ``("log_arange",)``, which gives
        log 1, ..., log n for an (n,) shape, draw nothing."""
        kind, *args = init
        if kind == "normal":
            return self._gen.normal(0.0, args[0], shape)
        if kind == "uniform":
            return self._gen.uniform(args[0], args[1], shape)
        if kind == "fill":
            return np.full(shape, float(args[0]))
        if kind == "log_arange":
            return np.log(np.arange(1, shape[0] + 1, dtype=np.float64))
        raise ValueError(f"unknown initializer {init!r}")
