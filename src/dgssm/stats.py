"""Dataset statistics: size, predecessor-set growth, and cycle structure."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .algos import condensation, k_hop_predecessors
from .graphs import DiGraph


@dataclass(frozen=True)
class StatsReport:
    """Aggregate statistics over a list of graphs.

    ``avg_pk_per_node`` counts, for the configured hop bound k, the strict
    predecessors of a node within distance <= k — the node itself is
    excluded, so p_0 = 0. Cycle statistics are derived from "cyclic" SCCs:
    components of size > 1, plus singletons carrying a self-loop.
    """

    num_graphs: int
    avg_nodes: float
    min_nodes: int
    max_nodes: int
    avg_edges: float
    total_nodes: int
    k: float  # hop bound used for p_k (math.inf allowed)
    avg_pk_per_node: float
    total_pk: int
    avg_cycle_nodes: float
    avg_cycle_count: float
    avg_cycle_size: float

    def to_json(self) -> str:
        d = asdict(self)
        if math.isinf(self.k):
            d["k"] = "inf"
        return json.dumps(d, indent=2)

    def format_text(self) -> str:
        k_label = "inf" if math.isinf(self.k) else str(int(self.k))
        lines = [
            f"Num graphs:               {self.num_graphs}",
            f"Avg nodes per graph:      {self.avg_nodes:.2f}",
            f"Min nodes per graph:      {self.min_nodes}",
            f"Max nodes per graph:      {self.max_nodes}",
            f"Avg edges per graph:      {self.avg_edges:.2f}",
            f"Total nodes:              {self.total_nodes}",
            f"Avg p_{k_label} per node:       {self.avg_pk_per_node:.4f}",
            f"Total p_{k_label}:              {self.total_pk}",
            f"Avg cycle nodes per graph: {self.avg_cycle_nodes:.2f}",
            f"Avg cycle count per graph: {self.avg_cycle_count:.2f}",
            f"Avg cycle size:            {self.avg_cycle_size:.2f}",
        ]
        return "\n".join(lines)


def predecessor_counts(g: DiGraph, k: int | float) -> np.ndarray:
    """p_k per node: strict predecessors within hop distance <= k."""
    pairs, _ = k_hop_predecessors(g, k)
    return np.bincount(pairs[:, 1], minlength=g.num_nodes) - 1


def _cyclic_sizes(g: DiGraph) -> np.ndarray:
    """Sizes of the SCCs that contain a directed cycle (size > 1, or a
    singleton carrying a self-loop)."""
    component = condensation(g)[0]
    sizes = np.bincount(component)
    cyclic = sizes > 1
    cyclic[component[g.edges[g.edges[:, 0] == g.edges[:, 1], 0]]] = True
    return sizes[cyclic]


def compute_stats(gs: list[DiGraph], k: int | float = math.inf) -> StatsReport:
    """Aggregate a :class:`StatsReport` over a dataset."""
    if not gs:
        raise ValueError("compute_stats: empty graph list")
    node_counts = np.array([g.num_nodes for g in gs])
    edge_counts = np.array([g.num_edges for g in gs])
    total_pk = sum(int(predecessor_counts(g, k).sum()) for g in gs)
    cyc_sizes = [_cyclic_sizes(g) for g in gs]
    all_sizes = np.concatenate(cyc_sizes)
    total_nodes = int(node_counts.sum())
    return StatsReport(
        num_graphs=len(gs),
        avg_nodes=float(node_counts.mean()),
        min_nodes=int(node_counts.min()),
        max_nodes=int(node_counts.max()),
        avg_edges=float(edge_counts.mean()),
        total_nodes=total_nodes,
        k=float(k) if math.isinf(k) else int(k),
        avg_pk_per_node=total_pk / total_nodes if total_nodes else 0.0,
        total_pk=total_pk,
        avg_cycle_nodes=float(np.mean([s.sum() for s in cyc_sizes])),
        avg_cycle_count=float(np.mean([len(s) for s in cyc_sizes])),
        avg_cycle_size=float(all_sizes.mean()) if len(all_sizes) else 0.0,
    )
