import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgssm import algos
from dgssm.algos import (
    ConvergenceError,
    PreprocessArtifacts,
    _reverse_bfs,
    batch_artifacts,
    compute_artifacts,
    compute_batch_artifacts,
    condensation,
    depth_plus,
    dir_ego2token,
    k_hop_predecessors,
    pagerank,
)
from dgssm.graphs import DiGraph, GraphBatch, _csr, batch_graphs, reverse_graph
from dgssm.rng import RngStream
from dgssm.oracle import (
    brute_force_scc,
    dag_longest_path_depth,
    dense_pagerank,
    floyd_warshall_spd,
    partition,
    random_dag,
)

from conftest import make_random_digraph


def _permute_graph(g: DiGraph, perm: np.ndarray) -> DiGraph:
    edges = (
        np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1)
        if g.num_edges
        else np.zeros((0, 2), np.int64)
    )
    return DiGraph(g.num_nodes, edges, g.node_features[np.argsort(perm)])


# -- strongly connected components ------------------------------------------------


def test_scc_single_node():
    g = DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 1)))
    assert condensation(g)[0].tolist() == [0]


def test_scc_three_cycle():
    g = DiGraph(3, np.array([[0, 1], [1, 2], [2, 0]]), np.zeros((3, 1)))
    assert partition(condensation(g)[0]) == {frozenset({0, 1, 2})}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_scc_matches_reachability_oracle(seed):
    g = make_random_digraph(seed, max_nodes=20)
    component = condensation(g)[0]
    assert partition(component) == brute_force_scc(g)
    # Ids are dense: 0 .. (number of components - 1).
    assert np.array_equal(np.unique(component), np.arange(len(partition(component))))


def test_scc_deep_graph_no_recursion_limit():
    n = 5000
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    component, depth = condensation(DiGraph(n, edges, np.zeros((n, 1))))
    assert np.array_equal(component, np.arange(n))
    assert np.array_equal(depth, np.arange(n))


def test_deep_cycle_with_tail_is_one_component_at_depth_zero():
    n = 5000
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    g = DiGraph(n + 1, np.concatenate([edges, [[n - 1, n]]]), np.zeros((n + 1, 1)))
    component, depth = condensation(g)
    assert np.all(component[:n] == component[0]) and component[n] != component[0]
    assert np.all(depth[:n] == 0) and depth[n] == 1


# -- condensation ------------------------------------------------------------------


def test_condense_dag_is_isomorphic():
    g = DiGraph(4, np.array([[0, 1], [1, 2], [1, 3]]), np.zeros((4, 1)))
    component = condensation(g)[0]
    assert len(set(component.tolist())) == 4
    assert np.all(component[g.edges[:, 0]] < component[g.edges[:, 1]])


def test_condense_cycle_with_tail():
    g = DiGraph(4, np.array([[0, 1], [1, 2], [2, 0], [2, 3]]), np.zeros((4, 1)))
    component = condensation(g)[0]
    assert partition(component) == {frozenset({0, 1, 2}), frozenset({3})}
    assert component[3] > component[2]  # the one edge between components goes up


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_components_are_numbered_topologically(seed):
    # Every edge between two components goes from the lower id to the higher,
    # so the condensation is acyclic and the ids are a topological order.
    g = make_random_digraph(seed)
    component = condensation(g)[0]
    src, dst = component[g.edges[:, 0]], component[g.edges[:, 1]]
    inter = src != dst
    assert np.all(src[inter] < dst[inter])


# -- the level peel and the handover to Tarjan ------------------------------------


def _tarjan_alone(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """condensation without the peel: Tarjan over the whole graph."""
    n = g.num_nodes
    return algos._tarjan(n, *_csr(g.edges[:, 1], g.edges[:, 0], n), [0] * n)


def _with_cycles(g: DiGraph, stream: RngStream, extra=()) -> DiGraph:
    """``g`` plus a self-loop and a 2-cycle on random nodes, plus the
    ``extra`` edges on nodes numbered from ``g.num_nodes`` up."""
    u, v = stream.permutation(g.num_nodes)[:2].tolist()
    edges = np.unique(np.array(g.edges.tolist() + [(u, u), (u, v), (v, u), *extra]), axis=0)
    n = max(g.num_nodes, int(edges.max()) + 1)
    return DiGraph(n, edges, np.zeros((n, 1)))


def _check_condensation(g: DiGraph) -> None:
    component, depth = condensation(g)
    assert partition(component) == brute_force_scc(g)
    assert np.array_equal(depth, _tarjan_alone(g)[1])
    assert np.array_equal(np.unique(component), np.arange(len(np.unique(component))))
    src, dst = component[g.edges[:, 0]], component[g.edges[:, 1]]
    assert np.all(src[src != dst] < dst[src != dst])


def _peel_union(seed: int, num_graphs: int) -> DiGraph:
    """Random digraphs with cycles, fed by ``_PEEL_WIDTH`` two-node paths
    s -> t spread over them, each t with edges into its graph: the first two
    levels are at least ``_PEEL_WIDTH`` wide, and the cycles and what hangs
    below them go to Tarjan."""
    stream = RngStream(seed)
    graphs = []
    for i, own in enumerate(np.array_split(np.arange(algos._PEEL_WIDTH), num_graphs)):
        g = make_random_digraph(seed * 100 + i, max_nodes=12)
        feed = []
        for s, t in g.num_nodes + 2 * np.arange(len(own))[:, None] + [0, 1]:
            feed += [(s, t)] + [(t, w) for w in stream.permutation(g.num_nodes)[:2].tolist()]
        graphs.append(_with_cycles(g, stream, feed))
    union = batch_graphs(graphs)
    return DiGraph(union.num_nodes, union.edges, np.zeros((union.num_nodes, 1)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), num_graphs=st.integers(1, 12))
def test_peel_then_tarjan_matches_the_oracles(seed, num_graphs):
    g = _peel_union(seed, num_graphs)
    _check_condensation(g)
    residual = []
    tarjan = algos._tarjan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algos, "_tarjan", lambda n, *rest: residual.append(n) or tarjan(n, *rest))
        condensation(g)
    # The peel ran at least the two feeder levels, then handed over the rest.
    assert len(residual) == 1 and 0 < residual[0] <= g.num_nodes - 2 * algos._PEEL_WIDTH


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_one_node_levels_peel_too(seed):
    g = _with_cycles(make_random_digraph(seed), RngStream(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algos, "_PEEL_WIDTH", 1)
        _check_condensation(g)
        dag = _as_dag(g)
        _check_condensation(dag)
        assert np.array_equal(condensation(dag)[1], dag_longest_path_depth(dag))


# -- depth -------------------------------------------------------------------------


def _as_dag(g: DiGraph) -> DiGraph:
    keep = g.edges[g.edges[:, 0] < g.edges[:, 1]] if g.num_edges else g.edges
    return DiGraph(g.num_nodes, keep, g.node_features)


def test_dag_depth_chain():
    g = DiGraph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    assert depth_plus(g).tolist() == [0, 1, 2]


def test_dag_depth_two_sources_one_sink():
    g = DiGraph(3, np.array([[0, 2], [1, 2]]), np.zeros((3, 1)))
    assert depth_plus(g).tolist() == [0, 0, 1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_depth_plus_on_dags_matches_longest_path(seed):
    g = _as_dag(make_random_digraph(seed))
    assert np.array_equal(depth_plus(g), dag_longest_path_depth(g))


def test_depth_plus_cycle_hand_case():
    # 3-cycle {a,b,c} plus edge c->d: cycle members share depth 0, d gets 1.
    g = DiGraph(4, np.array([[0, 1], [1, 2], [2, 0], [2, 3]]), np.zeros((4, 1)))
    assert depth_plus(g).tolist() == [0, 0, 0, 1]


def test_depth_plus_full_cycle_all_zero():
    g = DiGraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), np.zeros((4, 1)))
    assert depth_plus(g).tolist() == [0, 0, 0, 0]


def test_self_loop_does_not_alter_depth():
    g = DiGraph(2, np.array([[0, 0], [0, 1]]), np.zeros((2, 1)))
    assert depth_plus(g).tolist() == [0, 1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_depth_equal_within_scc(seed):
    g = make_random_digraph(seed)
    component, depth = condensation(g)
    for members in partition(component):
        assert len(set(depth[list(members)].tolist())) == 1


# -- pagerank ----------------------------------------------------------------------


def test_pagerank_two_cycle_symmetric():
    g = DiGraph(2, np.array([[0, 1], [1, 0]]), np.zeros((2, 1)))
    assert np.allclose(pagerank(g), [0.5, 0.5], atol=1e-12)


def test_pagerank_isolated_nodes_uniform():
    g = DiGraph(5, np.zeros((0, 2), np.int64), np.zeros((5, 1)))
    assert np.allclose(pagerank(g), 0.2, atol=1e-12)


def test_pagerank_damping_validation():
    g = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="damping"):
        pagerank(g, damping=1.5)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
def test_pagerank_tol_validation(tol):
    g = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="tol"):
        pagerank(g, tol=tol)


def _chain_with_skip_edges() -> DiGraph:
    # Rank takes more than 100 sweeps to settle along a 120-node chain.
    edges = [(j, j + 1) for j in range(119)] + [(j, j + 3) for j in range(0, 117, 7)]
    return DiGraph(120, np.array(edges), np.zeros((120, 1)))


def _never_settles() -> DiGraph:
    # A power iteration on this graph never got its change below 1e-300: its
    # iterates never landed on an exact float fixed point. The linear-system
    # sweeps only rise, so they do land on one, and the change reads 0.
    return DiGraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]]), np.zeros((4, 1)))


def _dag_union(seed: int) -> tuple[list[DiGraph], DiGraph, GraphBatch]:
    stream = RngStream(seed)
    gs = [random_dag(stream, max_nodes=25) for _ in range(20)]
    batch = batch_graphs(gs)
    return gs, DiGraph(batch.num_nodes, batch.edges, batch.node_features), batch


def test_pagerank_converges_on_a_long_chain_with_skip_edges():
    g = _chain_with_skip_edges()
    assert np.abs(pagerank(g) - dense_pagerank(g)).max() <= 1e-10


def test_pagerank_settles_where_a_power_iteration_never_does():
    g = _never_settles()
    got = pagerank(g, tol=1e-300)
    assert np.abs(got - dense_pagerank(g)).max() <= 1e-12
    assert abs(got.sum() - 1.0) <= 1e-12


def test_pagerank_error_names_a_graph_by_its_union_ordinal(monkeypatch):
    # The one-node graph settles at once and is dropped from the sweeps, so
    # the graph still running sits first in what is left of the union.
    monkeypatch.setattr(algos, "_sweep_cap", lambda tol, damping: 1)
    batch = batch_graphs([DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 1))), _never_settles()])
    union = DiGraph(batch.num_nodes, batch.edges, batch.node_features)
    with pytest.raises(ConvergenceError, match=r"graph 1 still changes by .* after \d+ sweeps"):
        pagerank(union, tol=1e-300, batch_index=batch.batch_index)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pagerank_is_exact_on_small_dags_at_the_default_tol(seed):
    # Each of these DAGs runs out of paths, so a sweep changes nothing, before
    # its change falls below the stop; a power iteration stops ~1e-11 short.
    gs, union, batch = _dag_union(seed)
    got = pagerank(union, batch_index=batch.batch_index)
    for g, off in zip(gs, batch.offsets):
        assert np.abs(got[off : off + g.num_nodes] - dense_pagerank(g)).max() <= 1e-13


@pytest.mark.parametrize("case", ["chain", "dag-union"])
def test_pagerank_finishes_a_dag_in_longest_path_plus_one_sweeps(monkeypatch, case):
    # P^T is nilpotent on a DAG: no score changes after the longest path's
    # sweep, so the next one reads a zero change even at tol 1e-300.
    if case == "chain":
        g = _chain_with_skip_edges()
        gs, batch_index, offsets = [g], None, [0]
    else:
        gs, g, batch = _dag_union(0)
        batch_index, offsets = batch.batch_index, batch.offsets
    sweeps = int(max(dag_longest_path_depth(h).max() for h in gs)) + 1
    monkeypatch.setattr(algos, "_sweep_cap", lambda tol, damping: sweeps)
    got = pagerank(g, tol=1e-300, batch_index=batch_index)
    for h, off in zip(gs, offsets):
        assert np.abs(got[off : off + h.num_nodes] - dense_pagerank(h)).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), tol=st.sampled_from([1e-4, 1e-7, 1e-10]))
def test_pagerank_l1_error_is_within_tol_on_graphs_with_cycles(seed, tol):
    g = make_random_digraph(seed, max_nodes=25)
    assume(condensation(g)[0].max() + 1 < g.num_nodes)  # some component holds a cycle
    assert np.abs(pagerank(g, tol=tol) - dense_pagerank(g)).sum() <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pagerank_matches_dense_solve(seed):
    g = make_random_digraph(seed, max_nodes=15)
    got = pagerank(g, tol=1e-14)
    assert np.abs(got - dense_pagerank(g)).max() <= 1e-8
    assert abs(got.sum() - 1.0) <= 1e-8
    assert np.all(got >= (1 - 0.85) / g.num_nodes - 1e-12)


def _graph_list(seed: int) -> list[DiGraph]:
    """Random digraphs plus the degenerate cases: n=1, no edges, self-loops."""
    gs = [make_random_digraph(seed + i, max_nodes=15) for i in range(4)]
    return gs + [
        DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 3))),
        DiGraph(4, np.zeros((0, 2), np.int64), np.zeros((4, 3))),
        DiGraph(3, np.array([[0, 0], [1, 1], [0, 1]]), np.zeros((3, 3))),
    ]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pagerank_per_graph_inside_a_union(seed):
    gs = _graph_list(seed)
    RngStream(seed).shuffle(gs)
    batch = batch_graphs(gs)
    union = DiGraph(batch.num_nodes, batch.edges, batch.node_features)
    got = pagerank(union, tol=1e-14, batch_index=batch.batch_index)
    for g, off in zip(gs, batch.offsets):
        part = got[off : off + g.num_nodes]
        assert np.abs(part - dense_pagerank(g)).max() <= 1e-8
        # A graph stops on its own sweep, so the union changes no bit of it.
        assert np.array_equal(part, pagerank(g, tol=1e-14))


def test_pagerank_refuses_an_edge_between_graphs_of_a_union():
    g = DiGraph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="an edge joins two graphs"):
        pagerank(g, batch_index=np.array([0, 0, 1]))


def test_pagerank_union_of_graphs_that_stop_on_far_apart_sweeps():
    # The chain runs long after the small graphs stop, so the union is
    # compacted several times before it finishes.
    gs = [_chain_with_skip_edges()] + [make_random_digraph(seed, max_nodes=15, feat_dim=1) for seed in range(10)]
    RngStream(0).shuffle(gs)
    batch = batch_graphs(gs)
    union = DiGraph(batch.num_nodes, batch.edges, batch.node_features)
    got = pagerank(union, batch_index=batch.batch_index)
    for g, off in zip(gs, batch.offsets):
        assert np.array_equal(got[off : off + g.num_nodes], pagerank(g))


# -- bounded-hop predecessors -------------------------------------------------------


def _reference_k_hop(g: DiGraph, k) -> tuple[np.ndarray, np.ndarray]:
    """Per-center reverse BFS, sorted by (center, distance, predecessor)."""
    preds = g.in_adjacency()
    rows = [
        (v, s, u)
        for v in range(g.num_nodes)
        for u, s in _reverse_bfs(preds, v, k).items()
    ]
    rows.sort()
    pairs = np.array([(u, v) for v, _, u in rows], dtype=np.int64).reshape(-1, 2)
    return pairs, np.array([s for _, s, _ in rows], dtype=np.int64)


@pytest.mark.parametrize("k", [0, 1, 4, math.inf])
@pytest.mark.parametrize(
    "n, edges",
    [
        (1, []),
        (1, [[0, 0]]),
        (5, []),  # every node dangling
        (3, [[0, 0], [1, 1], [2, 2]]),
        (4, [[0, 0], [0, 1], [1, 2], [2, 0], [3, 3], [2, 3]]),
    ],
)
def test_k_hop_matches_reverse_bfs_reference_edge_cases(n, edges, k):
    g = DiGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
    pairs, spd = k_hop_predecessors(g, k)
    want_pairs, want_spd = _reference_k_hop(g, k)
    assert pairs.dtype == spd.dtype == np.int64
    assert np.array_equal(pairs, want_pairs) and np.array_equal(spd, want_spd)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([0, 1, 4, math.inf]))
def test_k_hop_matches_reverse_bfs_reference(seed, k):
    g = make_random_digraph(seed, max_nodes=30)
    pairs, spd = k_hop_predecessors(g, k)
    want_pairs, want_spd = _reference_k_hop(g, k)
    assert np.array_equal(pairs, want_pairs) and np.array_equal(spd, want_spd)


def test_k_hop_long_chain_exhausts_reachability():
    n = 300
    g = DiGraph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), np.zeros((n, 1)))
    pairs, spd = k_hop_predecessors(g, math.inf)
    assert len(spd) == n * (n + 1) // 2
    assert np.array_equal(spd, pairs[:, 1] - pairs[:, 0])
    assert np.all(np.diff(pairs[:, 1]) >= 0)


@pytest.mark.parametrize("k", [True, False, -1, 1.0, "2"])
def test_k_hop_rejects_a_bad_hop_bound(k):
    # A bool is not a hop count, though Python reads True as 1.
    g = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=f"bad hop bound {k!r}"):
        k_hop_predecessors(g, k)


def test_k_hop_chain_center():
    g = DiGraph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    pairs, spd = k_hop_predecessors(g, 2)
    rows = {(int(u), int(v), int(s)) for (u, v), s in zip(pairs, spd)}
    assert {(2, 2, 0), (1, 2, 1), (0, 2, 2)} <= rows


def test_k_hop_zero_is_self_pairs():
    g = make_random_digraph(3)
    pairs, spd = k_hop_predecessors(g, 0)
    assert pairs.shape[0] == g.num_nodes
    assert np.all(pairs[:, 0] == pairs[:, 1]) and np.all(spd == 0)


def test_k_hop_order_deterministic():
    g = make_random_digraph(7)
    pairs, spd = k_hop_predecessors(g, 3)
    keys = list(zip(pairs[:, 1].tolist(), spd.tolist(), pairs[:, 0].tolist()))
    assert keys == sorted(keys)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 5))
def test_k_hop_matches_floyd_warshall(seed, k):
    g = make_random_digraph(seed, max_nodes=30)
    dist = floyd_warshall_spd(g)
    pairs, spd = k_hop_predecessors(g, k)
    got = {(int(u), int(v)): int(s) for (u, v), s in zip(pairs, spd)}
    want = {
        (u, v): int(dist[u, v])
        for u in range(g.num_nodes)
        for v in range(g.num_nodes)
        if dist[u, v] <= k
    }
    assert got == want


def test_k_hop_infinite_exhausts_reachability():
    g = DiGraph(4, np.array([[0, 1], [1, 2], [2, 3]]), np.zeros((4, 1)))
    pairs, spd = k_hop_predecessors(g, math.inf)
    assert spd.max() == 3 and pairs.shape[0] == 4 + 3 + 2 + 1


# -- layered ego sequences ----------------------------------------------------------


def test_ego_isolated_node_empty_layers():
    g = DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 1)))
    assert dir_ego2token(g, 0, 3) == [[], [], [], [0]]


def test_ego_chain():
    g = DiGraph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    assert dir_ego2token(g, 2, 2) == [[0], [1], [2]]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 4))
def test_ego_layers_group_the_hop_pairs(seed, k):
    g = make_random_digraph(seed, max_nodes=20)
    pairs, spd = k_hop_predecessors(g, k)
    for v in range(g.num_nodes):
        layers = dir_ego2token(g, v, k)
        sel = pairs[:, 1] == v
        want = {int(s): set() for s in range(k + 1)}
        for (u, _), s in zip(pairs[sel], spd[sel]):
            want[int(s)].add(int(u))
        got = {k - i: set(layer) for i, layer in enumerate(layers)}
        assert {s: m for s, m in got.items() if m} == {s: m for s, m in want.items() if m}


# -- permutation equivariance --------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_algos_are_permutation_equivariant(seed):
    g = make_random_digraph(seed, max_nodes=15)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.num_nodes)
    gp = _permute_graph(g, perm)
    assert np.array_equal(depth_plus(gp)[perm], depth_plus(g))
    assert np.abs(pagerank(gp)[perm] - pagerank(g)).max() < 1e-12
    pairs, spd = k_hop_predecessors(g, 3)
    pairs_p, spd_p = k_hop_predecessors(gp, 3)
    got = {(int(perm[u]), int(perm[v])): int(s) for (u, v), s in zip(pairs, spd)}
    want = {(int(u), int(v)): int(s) for (u, v), s in zip(pairs_p, spd_p)}
    assert got == want


# -- artifacts ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_artifacts_at_unbounded_k_match_the_reference(seed):
    gs = _graph_list(seed)
    fwd, rev = compute_batch_artifacts(batch_graphs(gs), math.inf, bidirectional=True)
    for g, f, r in zip(gs, fwd, rev):
        assert f.k == r.k == math.inf
        for arts, h in ((f, g), (r, reverse_graph(g))):
            want_pairs, want_spd = _reference_k_hop(h, math.inf)
            assert np.array_equal(arts.k_hop_edge_index, want_pairs)
            assert np.array_equal(arts.k_hop_spd, want_spd)


def test_batch_artifacts_shifts_pairs():
    g1 = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    g2 = DiGraph(2, np.array([[1, 0]]), np.zeros((2, 1)))
    batch = batch_graphs([g1, g2])
    merged = batch_artifacts([compute_artifacts(g, 1) for g in (g1, g2)], batch)
    assert merged.k_hop_edge_index.min() >= 0
    assert merged.k_hop_edge_index[merged.k_hop_spd.shape[0] // 2 :].min() >= 2
    assert merged.pagerank.shape == (4,)
    # Per-graph scores each still sum to one.
    assert abs(merged.pagerank[:2].sum() - 1.0) < 1e-9
    assert abs(merged.pagerank[2:].sum() - 1.0) < 1e-9


def test_bidirectional_batch_artifacts_run_pagerank_once(monkeypatch):
    # Both directions share one PageRank sweep loop, over the union and its
    # edge reversal side by side.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].num_nodes)
        return real(*args, **kwargs)

    real = algos.pagerank
    monkeypatch.setattr(algos, "pagerank", counted)
    batch = batch_graphs(_graph_list(0))
    compute_batch_artifacts(batch, 2, bidirectional=True)
    assert calls == [2 * batch.num_nodes]
    calls.clear()
    compute_batch_artifacts(batch, 2, bidirectional=False)
    assert calls == [batch.num_nodes]


def _two_cycles() -> list[DiGraph]:
    """A lone 2-cycle, a 2-cycle with a tail in and out, and a 0-node graph."""
    return [
        DiGraph(2, np.array([[0, 1], [1, 0]]), np.zeros((2, 3))),
        DiGraph(5, np.array([[0, 1], [1, 2], [2, 1], [2, 3], [4, 3], [3, 3]]), np.zeros((5, 3))),
        DiGraph(0, np.zeros((0, 2), np.int64), np.zeros((0, 3))),
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([0, 1, 3, math.inf]))
def test_batch_artifacts_give_each_graph_its_own_bits_both_ways(seed, k):
    # The reverse pairs come from one sort of the forward ones and the two
    # directions share a PageRank call; each graph of a shuffled union still
    # gets, bit for bit, what its reversal gets alone.
    gs = _graph_list(seed) + _two_cycles()
    RngStream(seed).shuffle(gs)
    fwd, rev = compute_batch_artifacts(batch_graphs(gs), k, bidirectional=True)
    for g, f, r in zip(gs, fwd, rev):
        h = reverse_graph(g)
        for arts, graph in ((f, g), (r, h)):
            want_pairs, want_spd = _reference_k_hop(graph, k)
            assert np.array_equal(arts.k_hop_edge_index, want_pairs)
            assert np.array_equal(arts.k_hop_spd, want_spd)
            assert np.array_equal(arts.pagerank, pagerank(graph))
            assert np.array_equal(arts.depth, depth_plus(g))


def test_pagerank_of_no_nodes_is_empty():
    for batch_index in (None, np.zeros(0, np.int64)):
        got = pagerank(DiGraph(0, np.zeros((0, 2), np.int64), np.zeros((0, 1))), batch_index=batch_index)
        assert got.shape == (0,)
