"""Pure directed-graph algorithms.

Strongly connected components and depth over arbitrary digraphs by a
level peel and one iterative Tarjan pass, PageRank as a sparse linear
system solved by Jacobi sweeps, bounded-hop predecessor extraction by
reverse BFS, and the layered ego sequentializer. All functions are pure
and safe to parallelize across graphs.

Preprocessing is computed once per graph list, over the disjoint union of
its graphs (:func:`compute_batch_artifacts`), and split back per graph; the
reversed graph's hop pairs are derived from the forward ones, not searched.
Every algorithm gives each graph of a union the result it gives that graph
alone: components, depth and hop pairs never cross graphs, and PageRank
takes the graph ordinal per node. PageRank and the hop BFS run in numpy:
PageRank sweeps only the graphs still running, and the BFS dedupes each
level against a sorted array of the pairs found so far. Depth peels the
acyclic levels in numpy while they are wide, and Tarjan's DFS, the one
Python loop, takes the cycles and what lies below them or past the last
wide level; it is linear, and it gives depth with no sweep per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import DiGraph, GraphBatch, _csr, reverse_graph

INF_HOPS = math.inf  # accepted wherever a hop bound is "unbounded"


def _expand(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row in ``nodes``, neighbour) for every CSR neighbour of every node."""
    starts = indptr[nodes]
    deg = indptr[nodes + 1] - starts
    rows = np.repeat(np.arange(len(nodes)), deg)
    firsts = np.cumsum(deg) - deg  # position of each row's first neighbour
    return rows, indices[starts[rows] + np.arange(len(rows)) - firsts[rows]]


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` is many times slower on small arrays)."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if len(a) else a


# A peeled level costs a fixed 13-16 us in numpy at widths up to 64, and
# Tarjan about 0.46 us a node in Python: on unions of w parallel 200-node
# chains, where every level is w wide, they break even at w = 32 (14.5 us a
# level against 14.9 us), and at w = 16 the peel is twice Tarjan's cost
# (2-vCPU x86 host, numpy 2.4, CPython 3.11).
_PEEL_WIDTH = 32


def condensation(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected components and depth: a numpy level peel, then
    one iterative Tarjan pass over what the peel leaves.

    Returns ``(component, depth)``, one entry per node. Two nodes share a
    component iff they reach each other. Depth is taken on the condensation:
    0 for a component with no edge into it from another, else one more than
    the deepest component with such an edge. Every member of a component has
    its depth, and on a DAG this is the plain longest-path depth.

    The peel (Kahn 1962, "Topological sorting of large networks") takes the
    nodes with no remaining in-edge as one level: each is its own component,
    at the level's depth, and its out-edges are then removed. It goes on
    while a level holds at least ``_PEEL_WIDTH`` nodes. No node on a cycle
    is ever peeled, and every edge between the peeled and the residual nodes
    runs from a peeled node to a residual one. Tarjan then runs on the
    residual subgraph, each node's depth bound starting at one more than its
    deepest peeled predecessor. The peeled nodes take the first component
    ids, in level order and ascending within a level, and the residual's
    components follow in Tarjan's order, so the ids are dense and
    topological: every edge between two components goes from the lower id
    to the higher. When the first level is already narrower than
    ``_PEEL_WIDTH``, as on one long path or cycle, Tarjan runs on the whole
    graph and no out-edge CSR is built: a peel that settles a level or two
    before handing over would only add its fixed cost.
    """
    n = g.num_nodes
    src, dst = g.edges[:, 0], g.edges[:, 1]
    indeg = np.bincount(dst, minlength=n)
    frontier = np.flatnonzero(indeg == 0)
    if len(frontier) < _PEEL_WIDTH:
        return _tarjan(n, *_csr(dst, src, n), [0] * n)
    out_ptr, out_idx = _csr(src, dst, n)
    depth = np.full(n, -1, dtype=np.int64)
    below = np.zeros(n, dtype=np.int64)  # one more than the deepest peeled predecessor
    levels = []
    while len(frontier) >= _PEEL_WIDTH:
        depth[frontier] = len(levels)
        levels.append(frontier)
        succ = _expand(out_ptr, out_idx, frontier)[1]
        below[succ] = len(levels)  # levels only rise, so this is the deepest
        np.subtract.at(indeg, succ, 1)
        frontier = _unique(succ[indeg[succ] == 0])
    peeled = np.concatenate(levels)
    comp = np.empty(n, dtype=np.int64)
    comp[peeled] = np.arange(len(peeled))
    rest = np.flatnonzero(depth < 0)
    local = np.empty(n, dtype=np.int64)
    local[rest] = np.arange(len(rest))
    inner = depth[src] < 0  # a residual edge: its head is residual too
    in_ptr, in_idx = _csr(local[dst[inner]], local[src[inner]], len(rest))
    rest_comp, depth[rest] = _tarjan(len(rest), in_ptr, in_idx, below[rest].tolist())
    comp[rest] = rest_comp + len(peeled)
    return comp, depth


def _tarjan(n: int, indptr: np.ndarray, indices: np.ndarray, below: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(component, depth) by one iterative Tarjan pass over a CSR
    in-adjacency, where ``below[v]`` (updated in place) is a lower bound on
    the depth of v's component from edges outside the graph.

    The DFS follows in-edges (Tarjan 1972, "Depth-first search and linear
    graph algorithms"). Tarjan completes a component only after every
    component it reaches, which over in-edges are its ancestors, so depth is
    known when the component pops, and components are numbered in
    topological order. A visited node with no depth yet is on the stack, and
    an edge to it stays inside the current component; a node still on the
    stack when its DFS returns hands its depth bound to its parent, so the
    root holds the component's depth when it pops. Runs in O(n + m) on
    Python lists; no recursion.
    """
    indptr, indices = indptr.tolist(), indices.tolist()
    index = [-1] * n
    lowlink = [0] * n
    depth = [-1] * n  # -1 until the node's component pops
    comp = [-1] * n
    stack: list[int] = []
    counter = count = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # Explicit work stack of (node, next CSR position) frames; a position
        # of -1 marks a node not yet visited.
        work = [(root, -1)]
        while work:
            v, pos = work[-1]
            if pos < 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                pos = indptr[v]
            end = indptr[v + 1]
            while pos < end:
                w = indices[pos]
                pos += 1
                if index[w] == -1:
                    break
                if depth[w] < 0:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
                elif depth[w] >= below[v]:
                    below[v] = depth[w] + 1
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        depth[w] = below[v]
                        if w == v:
                            break
                    count += 1
                if work:
                    parent = work[-1][0]
                    if depth[v] < 0:
                        if lowlink[v] < lowlink[parent]:
                            lowlink[parent] = lowlink[v]
                        if below[v] > below[parent]:
                            below[parent] = below[v]
                    elif depth[v] >= below[parent]:
                        below[parent] = depth[v] + 1
                continue
            work[-1] = (v, pos)
            work.append((w, -1))
    return np.array(comp, dtype=np.int64), np.array(depth, dtype=np.int64)


def depth_plus(g: DiGraph) -> np.ndarray:
    """Per-node depth for arbitrary digraphs: depth over the condensation,
    shared by every member of a component (see :func:`condensation`).
    Components never span the graphs of a disjoint union, so on a union this
    is per-graph depth.
    """
    return condensation(g)[1]


class ConvergenceError(RuntimeError):
    """Raised when an iteration is still above its tolerance at its cap."""


def _sweep_cap(tol: float, damping: float) -> int:
    return max(math.ceil((math.log(tol) + math.log((1 - damping) / (2 * damping))) / math.log(damping)), 1) + 2


def pagerank(
    g: DiGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    batch_index: np.ndarray | None = None,
) -> np.ndarray:
    """PageRank with uniform dangling-mass redistribution, as a linear system.

    With the dangling rows of P zeroed, the scores are y / sum(y) where
    (I - a P^T) y = 1 (Del Corso, Gulli and Romani 2005). Jacobi sweeps
    y <- 1 + P^T (a y / outdeg) from y = 1 only rise, as no weight is
    negative and rounding is monotone, so they settle on an exact float
    fixed point, on a DAG after its longest path + 1. A graph stops when
    sum |dy| (its sum's rise) <= tol (1-a)/(2a) sum(y): the tail is at most
    a/(1-a) of that, so the L1 error is at most ``tol``. The relative change
    after sweep t is at most a^t, which sets :func:`_sweep_cap` (two sweeps
    spare); a graph still running there raises :class:`ConvergenceError`.

    ``batch_index`` (graph ordinal per node) treats ``g`` as a disjoint
    union, and an edge between two of its graphs is refused: each graph
    stops on its own sweep and is divided by its own sum. Whenever the count
    of graphs still running halves, the finished ones are written out and
    dropped from every array (Kamvar, Haveliwala and Golub, "Adaptive methods
    for the computation of PageRank", 2004). Masking keeps the surviving
    edges in order, so every ``bincount`` bucket adds the same terms in the
    same order, and a graph's scores are bit-identical to its scores alone.
    """
    if not (0.0 < damping < 1.0):
        raise ValueError(f"pagerank: damping must be in (0, 1), got {damping}")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"pagerank: tol must be positive and finite, got {tol}")
    n = g.num_nodes
    batch_index = np.zeros(n, dtype=np.int64) if batch_index is None else batch_index
    num_graphs = int(batch_index.max()) + 1 if n else 0
    src, dst = g.edges[:, 0], g.edges[:, 1]
    if not np.array_equal(batch_index[src], batch_index[dst]):
        raise ValueError("pagerank: an edge joins two graphs of the union")
    weight = damping / np.maximum(np.bincount(src, minlength=n), 1)  # a / outdeg
    y = np.ones(n)
    total = np.bincount(batch_index, minlength=num_graphs).astype(np.float64)  # sum of y per graph
    out = np.empty(n)
    nodes = np.arange(n)  # union ordinal of each node still swept
    # Graph ids stay union ordinals, so `total`, `change` and the error index
    # by the caller's graph numbering however many graphs were dropped.
    active = np.ones(num_graphs, dtype=bool)
    running = num_graphs  # active graphs at the last compaction
    sweeps = _sweep_cap(tol, damping)
    for _ in range(sweeps):
        y_new = 1.0 + np.bincount(dst, weights=(y * weight)[src], minlength=len(y))
        total_new = np.bincount(batch_index, weights=y_new, minlength=num_graphs)
        change = total_new - total  # the sum of |dy|, as no entry falls
        y = np.where(active[batch_index], y_new, y)
        total = np.where(active, total_new, total)
        active &= change > tol * (1.0 - damping) / (2.0 * damping) * total
        count = int(np.count_nonzero(active))
        if 2 * count > running:
            continue
        keep = active[batch_index]
        out[nodes[~keep]] = y[~keep] / total[batch_index[~keep]]
        if not count:
            return out
        renumber = np.cumsum(keep) - 1
        edges = keep[src]
        src, dst = renumber[src[edges]], renumber[dst[edges]]
        nodes, y, weight, batch_index = nodes[keep], y[keep], weight[keep], batch_index[keep]
        running = count
    i = int(np.flatnonzero(active)[0])
    raise ConvergenceError(
        f"pagerank: graph {i} still changes by {change[i] / total[i]:.3g} (tol {tol:g}) after {sweeps} sweeps"
    )


def _reverse_bfs(preds: list[np.ndarray], center: int, max_hops: float) -> dict[int, int]:
    """Hop distances over in-edges from ``center``; includes center at 0.

    The per-center reference for :func:`k_hop_predecessors`.
    """
    dist = {center: 0}
    frontier = [center]
    hops = 0
    while frontier and hops < max_hops:
        hops += 1
        nxt = []
        for v in frontier:
            for u in preds[v]:
                u = int(u)
                if u not in dist:
                    dist[u] = hops
                    nxt.append(u)
        frontier = nxt
    return dist


def k_hop_predecessors(
    g: DiGraph, k: int | float
) -> tuple[np.ndarray, np.ndarray]:
    """All (predecessor, center) pairs within ``k`` directed hops.

    For each center v, emits (u, v) with the shortest-path distance
    SPD(u, v) for every u at distance <= k, including the self pair (v, v)
    at distance 0. Pass ``math.inf`` to exhaust reachability. Pair order is
    fixed: center ascending, then distance ascending, then predecessor
    ascending, so artifacts are reproducible.

    One level-synchronous BFS from every center at once: the frontier is
    (center, node) pairs, expanded through a CSR in-adjacency. Each level's
    candidate keys ``center * n + u`` are deduped, looked up by binary search
    in the sorted array of the keys already found, and the new ones merged in
    by a stable sort of the two sorted runs.
    """
    if isinstance(k, bool) or not (k == INF_HOPS or (isinstance(k, (int, np.integer)) and k >= 0)):
        raise ValueError(f"k_hop_predecessors: bad hop bound {k!r}")
    n = g.num_nodes
    indptr, indices = _csr(g.edges[:, 1], g.edges[:, 0], n)
    centers = nodes = np.arange(n, dtype=np.int64)
    found = [(centers, nodes)]
    seen = centers * (n + 1)  # the self pairs' keys, sorted
    hops = 0
    while len(centers) and hops < k:
        hops += 1
        rows, preds = _expand(indptr, indices, nodes)
        keys = _unique(centers[rows] * n + preds)
        at = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        new = keys[seen[at] != keys]
        seen = np.sort(np.concatenate([seen, new]), kind="stable")
        centers, nodes = np.divmod(new, n)
        found.append((centers, nodes))
    # Levels come out ordered by (distance, center, predecessor); a stable
    # sort on the center alone gives (center, distance, predecessor).
    all_centers = np.concatenate([c for c, _ in found])
    order = np.argsort(all_centers, kind="stable")
    spd = np.repeat(np.arange(len(found), dtype=np.int64), [len(c) for c, _ in found])
    preds = np.concatenate([u for _, u in found])
    return np.stack([preds[order], all_centers[order]], axis=1), spd[order]


def dir_ego2token(g: DiGraph, v: int, k: int) -> list[list[int]]:
    """Layered causal sequence for center ``v``: [L_k, ..., L_1, L_0].

    Layer L_i holds the predecessors at shortest-path distance exactly i;
    L_0 = [v]. Empty layers stay as empty lists; members are sorted for a
    deterministic serialization (aggregation downstream is order-free).
    """
    if not 0 <= v < g.num_nodes:
        raise ValueError(f"dir_ego2token: node {v} out of range")
    dist = _reverse_bfs(g.in_adjacency(), v, k)
    layers: list[list[int]] = [[] for _ in range(k + 1)]
    for u, s in dist.items():
        layers[s].append(u)
    for layer in layers:
        layer.sort()
    return layers[::-1]


@dataclass(frozen=True)
class PreprocessArtifacts:
    """Per-graph derived structure consumed by the model.

    ``k_hop_edge_index`` rows are (predecessor u, center v) with
    ``k_hop_spd`` giving the hop distance per row; self pairs at distance 0
    are always present, so every center owns a non-empty segment.
    """

    depth: np.ndarray  # (n,) int64
    pagerank: np.ndarray  # (n,) float64, sums to 1 per graph
    k_hop_edge_index: np.ndarray  # (E, 2) int64
    k_hop_spd: np.ndarray  # (E,) int64
    k: int | float  # the hop bound; INF_HOPS when unbounded

    @property
    def num_pairs(self) -> int:
        return int(self.k_hop_spd.shape[0])


def compute_artifacts(g: DiGraph, k: int | float, batch_index: np.ndarray | None = None) -> PreprocessArtifacts:
    """Depth, PageRank, and bounded-hop predecessor pairs for one graph.

    With ``batch_index``, ``g`` is a disjoint union and PageRank is per graph.
    """
    pairs, spd = k_hop_predecessors(g, k)
    return PreprocessArtifacts(
        depth=depth_plus(g),
        pagerank=pagerank(g, batch_index=batch_index),
        k_hop_edge_index=pairs,
        k_hop_spd=spd,
        k=k if k == INF_HOPS else int(k),
    )


def compute_batch_artifacts(
    batch: GraphBatch, k: int | float, bidirectional: bool
) -> tuple[list[PreprocessArtifacts], list[PreprocessArtifacts | None]]:
    """Forward and reverse per-graph artifacts for every graph of ``batch``
    from one pass over its disjoint union; every reverse entry is None unless
    ``bidirectional``. The reverse hop pairs are derived, not searched: the
    forward pair (u, v) at distance s is the reverse pair (v, u) at distance
    s. Depth is computed once, forward, and the reverse artifacts carry it;
    only PageRank runs on the edge-reversed union.
    """
    union = DiGraph(batch.num_nodes, batch.edges, np.empty((batch.num_nodes, 0)))
    fwd = compute_artifacts(union, k, batch_index=batch.batch_index)
    if not bidirectional:
        return unbatch_artifacts(fwd, batch), [None] * batch.num_graphs
    # u reaches v in s hops iff v reaches u in s hops on the reversed graph.
    # The forward pairs are in (v, s, u) order, so a stable sort by (u, s)
    # leaves v ascending within each (u, s) run.
    spd = fwd.k_hop_spd
    order = np.argsort(fwd.k_hop_edge_index[:, 0] * (spd.max(initial=0) + 1) + spd, kind="stable")
    rev = replace(fwd, pagerank=pagerank(reverse_graph(union), batch_index=batch.batch_index),
                  k_hop_edge_index=fwd.k_hop_edge_index[order, ::-1], k_hop_spd=spd[order])
    return unbatch_artifacts(fwd, batch), unbatch_artifacts(rev, batch)


def batch_artifacts(arts: list[PreprocessArtifacts], batch: GraphBatch) -> PreprocessArtifacts:
    """Concatenate per-graph artifacts into the batch index space."""
    if len(arts) != batch.num_graphs:
        raise ValueError("batch_artifacts: artifact/graph count mismatch")
    ks = {a.k for a in arts}
    if len(ks) != 1:
        raise ValueError(f"batch_artifacts: mixed hop bounds {sorted(ks)}")
    pairs = [a.k_hop_edge_index + off for a, off in zip(arts, batch.offsets)]
    return PreprocessArtifacts(
        depth=np.concatenate([a.depth for a in arts]),
        pagerank=np.concatenate([a.pagerank for a in arts]),
        k_hop_edge_index=np.concatenate(pairs),
        k_hop_spd=np.concatenate([a.k_hop_spd for a in arts]),
        k=ks.pop(),
    )


def unbatch_artifacts(arts: PreprocessArtifacts, batch: GraphBatch) -> list[PreprocessArtifacts]:
    """Invert :func:`batch_artifacts`: split by graph, back to local indices.

    Pairs are ordered by center, so each graph's pairs form one run.
    """
    cuts = np.searchsorted(arts.k_hop_edge_index[:, 1], batch.offsets)
    ends = np.append(cuts[1:], arts.num_pairs)
    out = []
    for off, size, lo, hi in zip(batch.offsets, batch.node_counts, cuts, ends):
        out.append(
            PreprocessArtifacts(
                depth=arts.depth[off : off + size],
                pagerank=arts.pagerank[off : off + size],
                k_hop_edge_index=arts.k_hop_edge_index[lo:hi] - off,
                k_hop_spd=arts.k_hop_spd[lo:hi],
                k=arts.k,
            )
        )
    return out
