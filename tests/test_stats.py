import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dgssm.algos import condensation
from dgssm.graphs import DiGraph
from dgssm.stats import compute_stats, predecessor_counts

from conftest import make_random_digraph


def _bfs_pred_count(g: DiGraph, v: int, k: float) -> int:
    # Independent count via boolean adjacency powers.
    n = g.num_nodes
    adj = np.zeros((n, n), dtype=bool)
    for u, w in g.edges:
        adj[u, w] = True
    reach = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    frontier[v] = True
    hops = 0
    while frontier.any() and hops < k:
        frontier = adj[:, frontier].any(axis=1) & ~reach & ~np.eye(n, dtype=bool)[v]
        new = frontier & ~reach
        reach |= new
        frontier = new
        hops += 1
    reach[v] = False
    return int(reach.sum())


def test_chain_stats_hand_count(chain3):
    report = compute_stats([chain3], k=math.inf)
    assert report.avg_nodes == 3
    assert report.avg_pk_per_node == (0 + 1 + 2) / 3
    assert report.total_pk == 3


def test_three_cycle_stats():
    g = DiGraph(3, np.array([[0, 1], [1, 2], [2, 0]]), np.zeros((3, 1)))
    report = compute_stats([g])
    assert report.avg_cycle_nodes == 3
    assert report.avg_cycle_count == 1
    assert report.avg_cycle_size == 3


def test_self_loop_singleton_counts_as_cycle():
    g = DiGraph(2, np.array([[0, 0], [0, 1]]), np.zeros((2, 1)))
    report = compute_stats([g])
    assert report.avg_cycle_count == 1
    assert report.avg_cycle_size == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 4))
def test_pk_matches_bfs_oracle(seed, k):
    g = make_random_digraph(seed, max_nodes=25)
    counts = predecessor_counts(g, k)
    for v in range(g.num_nodes):
        assert counts[v] == _bfs_pred_count(g, v, k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pk_monotone_and_bounded(seed):
    g = make_random_digraph(seed, max_nodes=20)
    assert np.all(predecessor_counts(g, 0) == 0)
    prev = np.zeros(g.num_nodes, dtype=np.int64)
    for k in range(1, 6):
        cur = predecessor_counts(g, k)
        assert np.all(cur >= prev)
        assert np.all(cur <= g.num_nodes - 1)
        prev = cur


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cycle_nodes_complement_acyclic_singletons(seed):
    g = make_random_digraph(seed, max_nodes=20)
    report = compute_stats([g])
    component = condensation(g)[0]
    self_loops = {int(u) for u, v in g.edges if u == v}
    sizes = np.bincount(component)
    acyclic_singletons = sum(
        1 for u, c in enumerate(component) if sizes[c] == 1 and u not in self_loops
    )
    assert report.avg_cycle_nodes == g.num_nodes - acyclic_singletons


def test_totals_consistent_and_json():
    gs = [make_random_digraph(s) for s in range(5)]
    report = compute_stats(gs, k=2)
    assert report.total_nodes == sum(g.num_nodes for g in gs)
    assert report.num_graphs == 5
    parsed = json.loads(report.to_json())
    assert parsed["total_nodes"] == report.total_nodes
    assert "Avg p_2 per node" in report.format_text()
