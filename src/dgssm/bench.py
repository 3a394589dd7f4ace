"""Per-stage timing across hop bounds.

Times preprocessing, forward, and backward on a fixed set of graphs while
the hop bound K sweeps a range. The scan's work is proportional to the
total number of hop pairs, so forward time should grow at most linearly in
that count (plus a K-independent floor from the encoder, fusion, and
feed-forward blocks).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .graphs import DiGraph
from .model import ModelConfig, init_weights, model_forward, model_loss
from .rng import RngStream
from .train import collate, prepare_graphs

# The sweep's fixed workload: 8 chains of 120 nodes, a one-layer model of
# width 32, each timing the best of 3 calls.
NUM_GRAPHS = 8
NODES = 120
HIDDEN = 32
REPEATS = 3


@dataclass
class BenchRecord:
    k: int
    total_pairs: int
    preprocess_s: float
    forward_s: float
    backward_s: float


def chain_like_graphs(seed: int = 0) -> list[DiGraph]:
    """Long chains with sparse skip edges: hop-pair counts grow with K."""
    stream = RngStream(seed)
    gs = []
    for i in range(NUM_GRAPHS):
        edges = [(j, j + 1) for j in range(NODES - 1)]
        for j in range(0, NODES - 3, 7):
            edges.append((j, j + 3))
        gs.append(
            DiGraph(
                NODES,
                np.array(edges),
                stream.normal(size=(NODES, 3)),
                y=stream.normal(size=NODES),  # labels so backward can be timed
                graph_id=f"b{i}",
            )
        )
    return gs


def _time(fn) -> float:
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return float(best)


def run_bench(ks: list[int] | None = None, seed: int = 0) -> list[BenchRecord]:
    ks = list(ks) if ks else list(range(1, 10))
    graphs = chain_like_graphs(seed)
    records = []
    for k in ks:
        cfg = ModelConfig(
            in_dim=3, task="node-regress", hidden=HIDDEN, heads=4, num_layers=1,
            se_layers=1, ssm_state=8, k_hops=k, dropout=0.0, bidirectional=False,
        )
        params = init_weights(cfg, RngStream(seed + 1))
        t0 = time.perf_counter()
        prepared = prepare_graphs(graphs, cfg)
        t_pre = time.perf_counter() - t0
        batch, fwd, rev = collate(prepared)

        def fwd_once():
            return model_forward(batch, fwd, rev, cfg, params, train=False)

        def bwd_once() -> float:
            params.zero_grad()
            loss = model_loss(fwd_once(), batch, cfg)
            t0 = time.perf_counter()
            loss.backward()
            return time.perf_counter() - t0

        if not records:
            # Untimed warm-up: the first calls in a process run cold and
            # would inflate the first record, the K=min reference of
            # scaling_summary in a sorted sweep.
            bwd_once()
        t_forward = _time(fwd_once)
        t_backward = min(bwd_once() for _ in range(REPEATS))
        records.append(
            BenchRecord(
                k=k,
                total_pairs=fwd.num_pairs,
                preprocess_s=t_pre,
                forward_s=t_forward,
                backward_s=t_backward,
            )
        )
    return records


def scaling_summary(records: list[BenchRecord]) -> dict:
    """Forward-time growth relative to linear-in-pairs growth.

    ``max_superlinearity`` is max over K of
    (time_K / time_ref) / (pairs_K / pairs_ref) with the first record of the
    smallest K as reference; values <= 1 mean sublinear growth (fixed
    overhead dominates). With fewer than two distinct K it is None, as there
    is no growth to measure.
    """
    base = min(records, key=lambda r: r.k)
    worst = max(
        ((r.forward_s / base.forward_s) / (r.total_pairs / base.total_pairs)
         for r in records if r.k != base.k),
        default=None,
    )
    return {
        "reference_k": base.k,
        "max_superlinearity": worst,
        "records": [asdict(r) for r in records],
    }
