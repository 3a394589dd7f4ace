"""Splittable counter-based random streams.

Every stochastic component in this package (initializers, dropout, data
generation, batch shuffling) draws from an explicit :class:`RngStream`, and
no other module calls ``np.random``, so a run is bit-reproducible from its
seed. A stream is a numpy ``Generator`` on the Philox counter-based bit
generator, and splits through ``Generator.spawn``, which keeps child streams
statistically independent of each other and of the parent.
"""

from __future__ import annotations

import numbers

import numpy as np


class RngStream(np.random.Generator):
    """A numpy ``Generator`` on Philox, seeded by an integer >= 0 or a
    ``SeedSequence``. ``Generator.spawn``, pickle and copy pass each new
    stream its Philox bit generator, which is taken as it is."""

    def __init__(self, seed: int | np.random.SeedSequence | np.random.BitGenerator = 0):
        if isinstance(seed, np.random.BitGenerator):
            bits = seed
        elif isinstance(seed, np.random.SeedSequence):
            bits = np.random.Philox(seed)
        elif isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0:
            bits = np.random.Philox(int(seed))
        else:
            raise ValueError(f"RngStream: seed must be an integer >= 0, got {seed!r}")
        super().__init__(bits)

    def __reduce__(self):  # Generator's own rebuilds a plain Generator
        return type(self), (self.bit_generator,)

    def split(self, n: int) -> list[RngStream]:
        """Spawn ``n`` independent child streams."""
        return self.spawn(n)

    def child(self) -> RngStream:
        """Spawn the next child stream (deterministic sequence)."""
        return self.spawn(1)[0]

    def draw(self, init: tuple, shape: tuple[int, ...]) -> np.ndarray:
        """An initial array of ``shape`` from an initializer spec:
        ``("normal", std)`` and ``("uniform", low, high)`` draw from this
        stream; ``("fill", value)`` and ``("log_arange",)``, which gives
        log 1, ..., log n for an (n,) shape, draw nothing."""
        kind, *args = init
        if kind == "normal":
            return self.normal(0.0, args[0], shape)
        if kind == "uniform":
            return self.uniform(args[0], args[1], shape)
        if kind == "fill":
            return np.full(shape, float(args[0]))
        if kind == "log_arange":
            return np.log(np.arange(1, shape[0] + 1, dtype=np.float64))
        raise ValueError(f"unknown initializer {init!r}")
