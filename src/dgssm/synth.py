"""Synthetic directed-graph tasks with oracle-grade labels.

Three task kinds, all labelled by exact graph algorithms so ground truth is
recomputable from structure alone:

- ``depth-regress``: layered digraphs; per-node target is the condensation
  depth. Layers keep edges between adjacent levels only, so depths stay
  within a small range that a stacked bounded-hop model can resolve.
- ``ancestor-count-regress``: same graphs; per-graph target is the mean
  ancestor-set size (unbounded-hop predecessors, self included).
- ``reachability-classify``: per-node binary target "reaches the marked
  sink within ``k_true`` directed hops". Graphs are directed paths ending
  at the sink, plus optional backward edges (which never shorten forward
  distances and double as injected cycles). Every interior node has the
  same local degree profile, so nothing short of actually following
  directed paths reveals how far the sink is.

Features carry a constant bias column, a sink indicator (reachability only,
zero elsewhere), and one uniform noise column. With ``cycle_rate`` > 0 a
fraction of graphs get small two-node cycles injected between same-level
nodes, which leaves depths and distances intact (labels are recomputed from
the final structure regardless).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .algos import _reverse_bfs, depth_plus
from .graphs import DiGraph, save_graphs
from .model import check_field_types
from .rng import RngStream
from .stats import predecessor_counts

TASK_KINDS = ("depth-regress", "ancestor-count-regress", "reachability-classify")


@dataclass
class SyntheticTaskSpec:
    task: str
    num_graphs: int = 500
    min_nodes: int = 15
    max_nodes: int = 30
    edge_density: float = 0.3
    cycle_rate: float = 0.2
    seed: int = 0
    splits: tuple[float, float, float] = (0.7, 0.15, 0.15)
    k_true: int = 8  # reachability horizon

    def __post_init__(self):
        check_field_types(self)
        if self.task not in TASK_KINDS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASK_KINDS}")
        if not all(0.0 <= s <= 1.0 for s in self.splits) or abs(sum(self.splits) - 1.0) > 1e-9:
            raise ValueError(f"splits must each be in [0, 1] and sum to 1, got {self.splits}")
        for name in ("edge_density", "cycle_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name, low in (("num_graphs", 1), ("k_true", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        min_required = self.k_true + 3 if self.task == "reachability-classify" else 4
        if self.min_nodes < min_required or self.min_nodes > self.max_nodes:
            raise ValueError(
                f"infeasible node range [{self.min_nodes}, {self.max_nodes}] "
                f"for task {self.task} (need >= {min_required})"
            )

    def model_task(self) -> str:
        return {
            "depth-regress": "node-regress",
            "ancestor-count-regress": "graph-regress",
            "reachability-classify": "node-classify",
        }[self.task]


def _inject_cycles(edges: set[tuple[int, int]], groups: list[np.ndarray], stream: RngStream) -> None:
    """Add one 2-cycle between two nodes of the same level/distance class."""
    candidates = [g for g in groups if len(g) >= 2]
    if not candidates:
        return
    group = candidates[int(stream.integers(0, len(candidates)))]
    a, b = stream.choice(group, size=2, replace=False)
    edges.add((int(a), int(b)))
    edges.add((int(b), int(a)))


def _permute(edges: set[tuple[int, int]], n: int, stream: RngStream):
    """Relabel nodes randomly so structure is not aligned with index order."""
    perm = stream.permutation(n)
    return {(int(perm[u]), int(perm[v])) for u, v in edges}, perm


def _features(n: int, stream: RngStream, sink: int | None = None) -> np.ndarray:
    x = np.zeros((n, 3))
    x[:, 0] = 1.0
    if sink is not None:
        x[sink, 1] = 1.0
    x[:, 2] = stream.uniform(-0.5, 0.5, size=n)
    return x


def _layered_graph(spec: SyntheticTaskSpec, stream: RngStream, gid: str) -> DiGraph:
    n = int(stream.integers(spec.min_nodes, spec.max_nodes + 1))
    num_levels = int(stream.integers(5, 9))
    num_levels = min(num_levels, n)
    levels = np.concatenate(
        [np.arange(num_levels), stream.integers(0, num_levels, size=n - num_levels)]
    )
    stream.shuffle(levels)
    by_level = [np.flatnonzero(levels == l) for l in range(num_levels)]
    edges: set[tuple[int, int]] = set()
    for l in range(1, num_levels):
        for v in by_level[l]:
            parents = by_level[l - 1]
            must = int(parents[int(stream.integers(0, len(parents)))])
            edges.add((must, int(v)))
            for u in parents:
                if int(u) != must and stream.uniform() < spec.edge_density:
                    edges.add((int(u), int(v)))
    if stream.uniform() < spec.cycle_rate:
        _inject_cycles(edges, by_level, stream)
    edges, _ = _permute(edges, n, stream)
    g = DiGraph(
        num_nodes=n,
        edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
        node_features=_features(n, stream),
        graph_id=gid,
    )
    if spec.task == "depth-regress":
        y = depth_plus(g).astype(np.int64)
    else:  # ancestor-count-regress
        y = float(np.mean(predecessor_counts(g, math.inf) + 1))
    return DiGraph(g.num_nodes, g.edges, g.node_features, y=y, graph_id=gid)


def _reachability_graph(spec: SyntheticTaskSpec, stream: RngStream, gid: str) -> DiGraph:
    n = int(stream.integers(spec.min_nodes, spec.max_nodes + 1))
    # Directed path toward the sink: node at position p points to p-1, so
    # the distance to the sink (position 0) is exactly p. Backward edges
    # (low position -> higher position) can never shorten that distance;
    # they add degree noise uncorrelated with position and, together with
    # the forward edge, form directed cycles.
    sink = 0
    edges: set[tuple[int, int]] = {(p, p - 1) for p in range(1, n)}
    for p in range(n - 1):
        if stream.uniform() < spec.edge_density * 0.3:
            span = int(stream.integers(1, min(4, n - p)))
            edges.add((p, p + span))
    if stream.uniform() < spec.cycle_rate:
        p = int(stream.integers(1, n))
        edges.add((p - 1, p))  # 2-cycle with the path edge p -> p-1
    edges, perm = _permute(edges, n, stream)
    sink = int(perm[sink])
    g = DiGraph(
        num_nodes=n,
        edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
        node_features=_features(n, stream, sink=sink),
        graph_id=gid,
    )
    # Exact labels from the final structure: distance from u to the sink is
    # the reverse-BFS hop count from the sink over in-edges.
    dist = _reverse_bfs(g.in_adjacency(), sink, math.inf)
    y = np.zeros(n, dtype=np.int64)
    for u, s in dist.items():
        if s <= spec.k_true:
            y[u] = 1
    return DiGraph(g.num_nodes, g.edges, g.node_features, y=y, graph_id=gid)


def gen_synthetic(
    spec: SyntheticTaskSpec, out_dir: str | Path | None = None
) -> dict[str, list[DiGraph]]:
    """Generate a dataset; optionally write train/val/test files + metadata."""
    stream = RngStream(spec.seed)
    make = _reachability_graph if spec.task == "reachability-classify" else _layered_graph
    graphs = [make(spec, stream, f"g{i:05d}") for i in range(spec.num_graphs)]
    n_train = int(round(spec.splits[0] * spec.num_graphs))
    n_val = int(round(spec.splits[1] * spec.num_graphs))
    splits = {
        "train": graphs[:n_train],
        "val": graphs[n_train : n_train + n_val],
        "test": graphs[n_train + n_val :],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, gs in splits.items():
            save_graphs(gs, out / f"{name}.jsonl")
        meta = {"task": spec.task, "model_task": spec.model_task(), "spec": asdict(spec)}
        (out / "task_meta.json").write_text(json.dumps(meta, indent=2))
    return splits
