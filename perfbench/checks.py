"""Correctness checks run by every benchmark invocation.

Each check returns None when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from dgssm import oracle
from dgssm.graphs import reverse_graph

from workloads import M, T, input_hash

ISOLATION_TOL = 1e-9  # max |alone - batched| relative to max(1, |batched|)


def frozen_inputs(name: str, frozen: dict, seed: int, graphs: list) -> str | None:
    """The generated inputs hash to the value recorded for ``seed``, if any."""
    expected = frozen["workloads"][name]["input_sha256"].get(str(seed))
    if expected is None:
        return None
    got = input_hash(graphs)
    if got != expected:
        return f"inputs for seed {seed} hash to {got[:12]}, recorded {expected[:12]}"
    return None


def hop_pairs(cfg, prepared: list) -> str | None:
    """Hop pairs equal the Floyd-Warshall pairs within k hops, in the
    documented order: center, then distance, then predecessor ascending."""
    for p in prepared:
        cases = [(p.graph, p.fwd)]
        if p.rev is not None:
            cases.append((reverse_graph(p.graph), p.rev))
        for g, arts in cases:
            dist = oracle.floyd_warshall_spd(g)  # dist[u, v]: hops from u to v
            v, u = np.nonzero(dist.T <= cfg.k_hops)
            spd = dist[u, v].astype(np.int64)
            order = np.lexsort((u, spd, v))
            expected = np.stack([u[order], v[order], spd[order]], axis=1)
            got = np.column_stack([arts.k_hop_edge_index, arts.k_hop_spd])
            if not np.array_equal(got, expected):
                return f"hop pairs of graph {g.graph_id} differ from Floyd-Warshall"
    return None


def batch_isolation(cfg, params, items: list, index: int = 1) -> str | None:
    """One graph run alone gives the same output as inside its batch."""
    batch, fwd, rev = T.collate(items)
    batched = M.model_forward(batch, fwd, rev, cfg, params, train=False).data
    alone = M.model_forward(*T.collate([items[index]]), cfg, params, train=False).data
    if cfg.task.startswith("node"):
        lo = int(batch.offsets[index])
        batched = batched[lo : lo + int(batch.node_counts[index])]
    else:
        batched = batched[index : index + 1]
    if not (np.all(np.isfinite(batched)) and np.all(np.isfinite(alone))):
        return "non-finite output in the isolation check"
    err = float(np.max(np.abs(batched - alone)) / max(1.0, float(np.max(np.abs(batched)))))
    if err > ISOLATION_TOL:
        return f"graph alone differs from the same graph in its batch by {err:.3e}"
    return None


def reference(wl, frozen: dict, graphs: list, work_dir: Path) -> str | None:
    """Losses (or eval metrics) after the fixed reference steps on the
    primary seed agree with the recorded values within ``reference_rtol``."""
    rec = frozen["workloads"][wl.name]["reference"]
    got = wl.reference(graphs, frozen["seeds"]["primary"], frozen["reference_steps"], work_dir)
    rtol = frozen["reference_rtol"]
    if len(got) != len(rec) or not all(math.isclose(a, b, rel_tol=rtol) for a, b in zip(got, rec)):
        return f"reference values {got} differ from recorded {rec} (rtol {rtol})"
    return None
