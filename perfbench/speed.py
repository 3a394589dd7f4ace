"""The host's speed, measured by a fixed block of reference work.

The benchmark runs on a shared host whose speed drifts by 20-50% over tens
of seconds to minutes, with no steal time reported, so a whole run can land
in a slow or a fast phase. ``run.py`` therefore runs blocks of reference
work after every op and every set-up, and reports each wall time scaled to
the reference speed::

    normalized = wall * REFERENCE_S / (median time of the nearby blocks)

The block does not touch the library, so a change to ``src/`` cannot move
it. Its mix follows the library's profile: an interpreter loop, many small
numpy calls, and gather / segment-sum / scatter-add over arrays larger than
the cache. See perfbench/README.md, "Host speed", for what the scaling
cancels and what it does not.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median time of one block on the reference host (2-vCPU Xeon VM, Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread). A normalized time is
# the time the op would take on that host at that speed.
REFERENCE_S = 0.039
# Each op is scaled by the median of the blocks run within this many ops of it.
WINDOW = 5

clock = time.perf_counter


class Holder:
    def __init__(self):
        self.value = 0


class ReferenceWork:
    """One fixed block of work; the same arrays on every run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.normal(size=(20000, 32))
        self.weight = rng.normal(size=(32, 32)) / 8
        self.rows = rng.integers(0, 20000, size=30000)
        segments = np.sort(rng.integers(0, 10000, size=30000))
        self.starts = np.flatnonzero(np.r_[True, segments[1:] != segments[:-1]])
        self.small = [rng.normal(size=(64, 32)) for _ in range(8)]
        self.counts = {i: 0 for i in range(256)}
        self.holder = Holder()

    def _interpreter(self) -> None:
        counts, holder = self.counts, self.holder
        for i in range(14000):
            key = (i * 7) & 255
            counts[key] = counts[key] + (i & 3)
            holder.value = holder.value + counts[(i * 13) & 255] % 5

    def _small_calls(self) -> float:
        total = 0.0
        for _ in range(60):
            for x in self.small:
                total += float(np.maximum(x @ self.weight, 0.0).sum())
        return total

    def _large_arrays(self) -> float:
        gathered = self.table[self.rows]
        summed = np.add.reduceat(gathered, self.starts, axis=0)
        act = np.tanh(summed @ self.weight)
        out = np.zeros_like(self.table)
        np.add.at(out, self.rows[: len(act)], act)
        return float(out.sum())

    def __call__(self) -> float:
        """Seconds one block took. The cyclic collector is held off during
        the block, so garbage the library left is collected in its next
        op, not charged to the block."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            self._interpreter()
            self._small_calls()
            self._large_arrays()
            return clock() - t0
        finally:
            if was_enabled:
                gc.enable()


def normalized(times: list[float], blocks: list[list[float]]) -> list[float]:
    """Scale ``times[i]`` by ``REFERENCE_S`` over the median of the blocks
    in ``blocks[i - WINDOW : i + WINDOW + 1]``; ``blocks[i]`` are the block
    times measured right after ``times[i]``."""
    return [
        t * REFERENCE_S / statistics.median(b for bs in blocks[max(0, i - WINDOW) : i + WINDOW + 1] for b in bs)
        for i, t in enumerate(times)
    ]
