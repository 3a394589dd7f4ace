"""Pure directed-graph algorithms.

Strongly connected components and depth over arbitrary digraphs by a
level peel and one iterative Tarjan pass, PageRank as a sparse linear
system solved by Jacobi sweeps, bounded-hop predecessor extraction by
reverse BFS, and the layered ego sequentializer. All functions are pure
and safe to parallelize across graphs.

Preprocessing has one path, :func:`compute_batch_artifacts`, for one
direction or both: once per graph list, over the disjoint union of its
graphs, whose artifacts stay whole; each graph owns one run of their rows
(its nodes, and the pairs it centers), and :func:`batch_artifacts`, the
one row mover, copies the runs of any graphs, from one union or several,
into a batch's numbering. It runs the hop search and depth once, and
PageRank once, over the union or, for both directions, over the union and
its edge reversal side by side; the reversed graph's hop pairs are derived
from the forward ones by one sort, not searched. Every algorithm gives
each graph of a union the result it gives that graph alone: components,
depth and hop pairs never cross graphs, and PageRank takes the graph
ordinal per node. PageRank and the hop BFS run in numpy: PageRank writes
each graph out on the sweep where it stops and drops the finished graphs
each time the running count halves, and the BFS dedupes each level against
a sorted array of the pairs found so far. Depth peels the acyclic levels
in numpy while they are wide, and Tarjan's DFS, the one Python loop, takes
the cycles and what lies below them or past the last wide level; it is
linear, and it gives depth with no sweep per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import DiGraph, GraphBatch, _csr

INF_HOPS = math.inf  # accepted wherever a hop bound is "unbounded"


def _check_hop_bound(k, caller: str) -> None:
    """Refuse a hop bound that is neither an int >= 0 nor ``INF_HOPS``; a
    bool is not a hop count, though Python reads True as 1."""
    if isinstance(k, bool) or not (k == INF_HOPS or (isinstance(k, (int, np.integer)) and k >= 0)):
        raise ValueError(f"{caller}: bad hop bound {k!r}")


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


_DAMPING = 0.85  # PageRank's a: the share of a node's score that follows its out-edges


def _sweep_cap(tol: float) -> int:
    return max(math.ceil((math.log(tol) + math.log((1 - _DAMPING) / (2 * _DAMPING))) / math.log(_DAMPING)), 1) + 2


def pagerank(g: DiGraph, tol: float = 1e-10, batch_index: np.ndarray | None = None) -> np.ndarray:
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
    stops on its own sweep, is divided by its own sum and written out then.
    A finished graph is still swept, which changes no other graph as no edge
    leaves it, until the count of graphs still running halves; then the
    finished ones are dropped from every array (Kamvar, Haveliwala and
    Golub, "Adaptive methods for the computation of PageRank", 2004).
    Masking keeps the surviving edges in order, so every ``bincount``
    bucket adds the same terms in the same order, and a graph's scores are
    bit-identical to its scores alone. ``batch_index`` must be a 1-D
    integer array of ordinals >= 0, one per node.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"pagerank: tol must be positive and finite, got {tol}")
    n = g.num_nodes
    if batch_index is None:
        batch_index = np.zeros(n, dtype=np.int64)
    elif not (
        isinstance(batch_index, np.ndarray) and batch_index.shape == (n,) and batch_index.dtype.kind in "iu"
        and np.can_cast(batch_index.dtype, np.int64) and batch_index.min(initial=0) >= 0
    ):
        raise ValueError(f"pagerank: batch_index must be a 1-D integer array of {n} graph ordinals >= 0")
    num_graphs = int(batch_index.max()) + 1 if n else 0
    src, dst = g.edges[:, 0], g.edges[:, 1]
    if not np.array_equal(batch_index[src], batch_index[dst]):
        raise ValueError("pagerank: an edge joins two graphs of the union")
    out = np.empty(n)
    if not num_graphs:
        return out
    weight = _DAMPING / np.maximum(np.bincount(src, minlength=n), 1)  # a / outdeg
    y = np.ones(n)
    total = np.bincount(batch_index, minlength=num_graphs).astype(np.float64)  # sum of y per graph
    nodes = np.arange(n)  # union ordinal of each node still swept
    # Graph ids stay union ordinals, so `total`, `change` and the error index
    # by the caller's graph numbering however many graphs were dropped.
    active = np.ones(num_graphs, dtype=bool)
    running = num_graphs  # active graphs at the last compaction
    sweeps = _sweep_cap(tol)
    for _ in range(sweeps):
        y = 1.0 + np.bincount(dst, weights=(y * weight)[src], minlength=len(y))
        total_new = np.bincount(batch_index, weights=y, minlength=num_graphs)
        change = total_new - total  # the sum of |dy|, as no entry falls
        total = total_new
        done = active & ~(change > tol * (1.0 - _DAMPING) / (2.0 * _DAMPING) * total)
        if not done.any():
            continue
        active &= ~done
        done = done[batch_index]
        out[nodes[done]] = y[done] / total[batch_index[done]]
        count = int(np.count_nonzero(active))
        if 2 * count > running:
            continue
        if not count:
            return out
        keep = active[batch_index]
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
    _check_hop_bound(k, "k_hop_predecessors")
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


def dir_ego2token(g: DiGraph, v: int, k: int | float) -> list[list[int]]:
    """Layered causal sequence for center ``v``: [L_k, ..., L_1, L_0].

    Layer L_i holds the predecessors at shortest-path distance exactly i;
    L_0 = [v]; ``v`` is an int or numpy integer node id, not a bool. Empty
    layers stay as empty lists; members are sorted for a deterministic
    serialization (aggregation downstream is order-free).
    With ``k = INF_HOPS`` there is one layer per distance, up to the
    deepest predecessor.
    """
    _check_hop_bound(k, "dir_ego2token")
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"dir_ego2token: center {v!r} is not an int node id")
    if not 0 <= v < g.num_nodes:
        raise ValueError(f"dir_ego2token: node {v} out of range")
    dist = _reverse_bfs(g.in_adjacency(), int(v), k)
    layers: list[list[int]] = [[] for _ in range((max(dist.values()) if k == INF_HOPS else k) + 1)]
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


def compute_batch_artifacts(
    batch: GraphBatch, k: int | float, bidirectional: bool
) -> tuple[PreprocessArtifacts, PreprocessArtifacts | None]:
    """Forward and reverse artifacts of the disjoint union of ``batch``'s
    graphs, in its numbering, from one pass over it; the reverse ones are
    None unless ``bidirectional``. Pairs are sorted by center, so each
    graph's pairs are one run of rows (see :func:`batch_artifacts`).

    The hop search runs first, so a bad hop bound is refused before any
    other work. Depth and the hop pairs are computed once, forward, and the
    reverse artifacts carry the depth. The reverse hop pairs are derived,
    not searched: the forward pair (u, v) at distance s is the reverse pair
    (v, u) at distance s. PageRank is one call: over the union alone, or,
    when ``bidirectional``, over a union of twice the nodes, the batch union
    then its edge reversal as graphs ``num_graphs`` onwards.
    :func:`pagerank` gives each graph of a union the bits it gives that
    graph alone, so each direction holds what a call of its own would give.
    """
    n = batch.num_nodes
    union = DiGraph(n, batch.edges, np.empty((n, 0)))
    pairs, spd = k_hop_predecessors(union, k)
    depth = depth_plus(union)
    both, index = (
        (DiGraph(2 * n, np.concatenate([batch.edges, batch.edges[:, ::-1] + n]), np.empty((2 * n, 0))),
         np.concatenate([batch.batch_index, batch.batch_index + batch.num_graphs]))
        if bidirectional else (union, batch.batch_index)
    )
    ranks = pagerank(both, batch_index=index)
    fwd = PreprocessArtifacts(depth, ranks[:n], pairs, spd, k if k == INF_HOPS else int(k))
    if not bidirectional:
        return fwd, None
    # u reaches v in s hops iff v reaches u in s hops on the reversed graph.
    # The reverse pairs are ordered (u, s, v): one sort of the distinct keys
    # (u hops + s) n + v.
    hops = int(spd.max(initial=0)) + 1
    if n * n * hops >= 2**63:
        raise ValueError(f"compute_batch_artifacts: pair keys overflow int64 at n = {n} nodes and hops = {hops}")
    u, v = pairs[:, 0], pairs[:, 1]
    key, v = np.divmod(np.sort((u * hops + spd) * n + v), n)
    u, spd = np.divmod(key, hops)
    return fwd, replace(fwd, pagerank=ranks[n:], k_hop_edge_index=np.stack([v, u], axis=1), k_hop_spd=spd)


# One graph's rows of its union's artifacts: (the artifacts, first node, end
# node, first pair row, end pair row), the ends exclusive.
Rows = tuple[PreprocessArtifacts, int, int, int, int]


def batch_artifacts(rows: list[Rows]) -> PreprocessArtifacts:
    """The artifacts of a batch of graphs, each given by its rows of its
    union's artifacts, moved to the batch's numbering: the graphs' nodes in
    the order given, from 0, so each graph's pairs move by its new first
    node less its old one. The rows may come from different unions. A
    graph's pair rows are the pairs it centers, one run, as a union's pairs
    are sorted by center. A one-graph batch is that graph's own artifacts.
    """
    if not rows:
        raise ValueError("batch_artifacts: no graphs")
    ks = {r[0].k for r in rows}
    if len(ks) != 1:
        raise ValueError(f"batch_artifacts: mixed hop bounds {sorted(ks)}")
    depth, ranks, pairs, spd, shifts, counts = [], [], [], [], [], []
    offset = 0
    for arts, start, stop, lo, hi in rows:
        depth.append(arts.depth[start:stop])
        ranks.append(arts.pagerank[start:stop])
        pairs.append(arts.k_hop_edge_index[lo:hi])
        spd.append(arts.k_hop_spd[lo:hi])
        shifts.append(offset - start)
        counts.append(2 * (hi - lo))  # both ends of each pair move
        offset += stop - start
    # One flat add: on a batch of many small graphs it is faster than an
    # add per graph.
    moved = np.concatenate(pairs).reshape(-1) + np.repeat(shifts, counts)
    return PreprocessArtifacts(
        depth=np.concatenate(depth),
        pagerank=np.concatenate(ranks),
        k_hop_edge_index=moved.reshape(-1, 2),
        k_hop_spd=np.concatenate(spd),
        k=ks.pop(),
    )
