"""Cross-implementation equivalence suites.

Each suite pits a production path against an independently coded oracle:
brute-force reachability for components, a dense linear solve for PageRank,
direct longest-path dynamic programming for depth, the step-by-step
recurrence for the kernel table, and the explicit layered-sequence pipeline
for the message-passing scan. Suites run on randomized instances under fixed
seeds and report the maximum deviation they saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algos import (
    PreprocessArtifacts,
    condensation,
    dir_ego2token,
    depth_plus,
    k_hop_predecessors,
    pagerank,
)
from .autodiff import ParameterSet, Tensor, no_grad
from .graphs import DiGraph
from .model import ModelConfig, digraph_ssm_scan, init_weights, model_forward, model_loss
from .optim import grad_check_params
from .rng import RngStream
from .ssm import kernel_table, s4d_table, ssm_scan_reference
from .train import collate, prepare_graphs


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    detail: str

    def __post_init__(self):
        # Suites compute these with numpy; plain Python types keep the
        # result JSON-serializable.
        self.passed = bool(self.passed)
        self.max_err = float(self.max_err)

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: max err {self.max_err:.3e} ({self.detail})"


def random_digraph(stream: RngStream, max_nodes: int = 25) -> DiGraph:
    n = int(stream.integers(2, max_nodes + 1))
    p = float(stream.uniform(0.05, 0.25))
    mask = stream.uniform(size=(n, n)) < p
    np.fill_diagonal(mask, False)
    edges = np.argwhere(mask)
    return DiGraph(n, edges, stream.normal(size=(n, 3)))


def random_dag(stream: RngStream, max_nodes: int = 25) -> DiGraph:
    g = random_digraph(stream, max_nodes)
    keep = g.edges[g.edges[:, 0] < g.edges[:, 1]]
    return DiGraph(g.num_nodes, keep, g.node_features)


# -- independent oracles ---------------------------------------------------------


def _reach_sets(g: DiGraph) -> list[set[int]]:
    adj = g.out_adjacency()
    out = []
    for s in range(g.num_nodes):
        seen = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        out.append(seen)
    return out


def brute_force_scc(g: DiGraph) -> set[frozenset[int]]:
    """Mutual-reachability components via per-node BFS closures."""
    reach = _reach_sets(g)
    comps = set()
    for u in range(g.num_nodes):
        comps.add(frozenset(v for v in reach[u] if u in reach[v]))
    return comps


def partition(component: np.ndarray) -> set[frozenset[int]]:
    """The node sets of a component-id array, in :func:`brute_force_scc`'s form."""
    return {frozenset(np.flatnonzero(component == c).tolist()) for c in set(component.tolist())}


def dense_pagerank(g: DiGraph, damping: float = 0.85) -> np.ndarray:
    """Solve (I - a*M) x = (1-a)/n * 1 with dangling-adjusted column-stochastic M."""
    n = g.num_nodes
    m = np.zeros((n, n))
    outdeg = np.bincount(g.edges[:, 0], minlength=n)
    for u, v in g.edges:
        m[v, u] = 1.0 / outdeg[u]
    for u in np.flatnonzero(outdeg == 0):
        m[:, u] = 1.0 / n
    rhs = np.full(n, (1.0 - damping) / n)
    return np.linalg.solve(np.eye(n) - damping * m, rhs)


def dag_longest_path_depth(g: DiGraph) -> np.ndarray:
    """Depth on a DAG by direct DP over a topological order."""
    n = g.num_nodes
    indeg = np.bincount(g.edges[:, 1], minlength=n)
    adj = g.out_adjacency()
    depth = np.zeros(n, dtype=np.int64)
    stack = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in adj[u]:
            v = int(v)
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if seen != n:
        raise ValueError("oracle: graph is not acyclic")
    return depth


def floyd_warshall_spd(g: DiGraph) -> np.ndarray:
    """All-pairs shortest path matrix (dist[u, v] along edge direction)."""
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[u, v] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def convolve_with_table(mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """y_t = sum_{j<=t} mats[t-j] @ xs[j], the convolution form of the scan."""
    L = xs.shape[0]
    ys = np.zeros_like(xs)
    for t in range(L):
        for j in range(t + 1):
            ys[t] += mats[t - j] @ xs[j]
    return ys


def sequence_scan_oracle(
    g: DiGraph,
    fx: np.ndarray,
    params: ParameterSet,
    prefix: str,
    k: int,
    num_heads: int,
) -> np.ndarray:
    """Explicit layered-sequence pipeline, one center at a time.

    Builds each center's hop layers, aggregates per-layer signals with the
    shared attention weights (zero vector for an empty layer), feeds the
    sequence through the step-by-step recurrence, and slices per head. Reads
    ``{prefix}.wq``, ``{prefix}.wk``, ``{prefix}.wv`` and ``{prefix}.ssm.*``
    from ``params``, the weights :func:`model.digraph_ssm_scan` reads.
    Returns (n, d), head c in columns [c*d_head, (c+1)*d_head), matching the
    message-passing scan output.
    """
    n, d = fx.shape
    dh = d // num_heads
    q, kk, vv = (fx @ params[f"{prefix}.{name}"].data for name in ("wq", "wk", "wv"))
    out = np.zeros((n, d))
    for center in range(n):
        layers = dir_ego2token(g, center, k)  # [L_k, ..., L_0]
        ego = [u for layer in layers for u in layer]
        for head in range(num_heads):
            sl = slice(head * dh, (head + 1) * dh)
            logits = np.array([q[center, sl] @ kk[u, sl] / np.sqrt(dh) for u in ego])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            alpha = dict(zip(ego, weights))
            seq = np.zeros((k + 1, d))
            for pos, layer in enumerate(layers):
                for u in layer:
                    seq[pos] += alpha[u] * vv[u]
            ys = ssm_scan_reference(params, f"{prefix}.ssm", seq)
            out[center, sl] = ys[-1][sl]
    return out


# -- suites ---------------------------------------------------------------------


def suite_scc(seed: int = 0, cases: int = 120, max_nodes: int = 25) -> SuiteResult:
    stream = RngStream(seed)
    for _ in range(cases):
        g = random_digraph(stream, max_nodes)
        if partition(condensation(g)[0]) != brute_force_scc(g):
            return SuiteResult("scc", False, 1.0, f"partition mismatch on n={g.num_nodes}")
    return SuiteResult("scc", True, 0.0, f"{cases} random graphs <= {max_nodes} nodes")


def suite_pagerank(seed: int = 0, cases: int = 120, max_nodes: int = 25, tol: float = 1e-8) -> SuiteResult:
    stream = RngStream(seed)
    worst = 0.0
    for _ in range(cases):
        g = random_digraph(stream, max_nodes)
        got = pagerank(g, tol=1e-14)
        want = dense_pagerank(g)
        worst = max(worst, float(np.abs(got - want).max()), abs(float(got.sum()) - 1.0))
    return SuiteResult("pagerank", worst <= tol, worst, f"{cases} dense-solve comparisons")


def suite_depthplus(seed: int = 0, cases: int = 120, max_nodes: int = 25) -> SuiteResult:
    stream = RngStream(seed)
    for _ in range(cases):
        g = random_dag(stream, max_nodes)
        if not np.array_equal(depth_plus(g), dag_longest_path_depth(g)):
            return SuiteResult("depthplus", False, 1.0, f"DAG mismatch n={g.num_nodes}")
    return SuiteResult("depthplus", True, 0.0, f"{cases} random DAGs vs direct recurrence")


def suite_ssm_equivalence(seed: int = 0, cases: int = 100, tol: float = 1e-10) -> SuiteResult:
    stream = RngStream(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(stream.integers(1, 33))
        state = int(stream.integers(1, 17))
        length = int(stream.integers(1, 33))
        child = stream.child()
        p = ParameterSet((f"ssm.{name}", child.draw(init, shape))
                         for name, shape, init in s4d_table(state, d, 1e-3, 1e-1))
        xs = stream.normal(size=(length, d))
        got = convolve_with_table(kernel_table(p, "ssm", length - 1), xs)
        want = ssm_scan_reference(p, "ssm", xs)
        worst = max(worst, float(np.abs(got - want).max()))
    return SuiteResult(
        "ssm-equivalence", worst <= tol, worst, f"{cases} conv-vs-recurrence instances"
    )


def suite_scan_equivalence(
    seed: int = 0,
    graphs: int = 50,
    max_nodes: int = 30,
    hops: tuple[int, ...] = (1, 2, 4),
    tol: float = 1e-8,
) -> SuiteResult:
    stream = RngStream(seed)
    worst = 0.0
    d, num_heads, state = 8, 2, 4
    for i in range(graphs):
        g = random_digraph(stream, max_nodes)
        k = int(hops[i % len(hops)])
        fx = stream.normal(size=(g.num_nodes, d))
        ws = [(f"scan.{name}", stream.normal(size=(d, d))) for name in ("wq", "wk", "wv")]
        child = stream.child()
        params = ParameterSet(ws + [(f"scan.ssm.{name}", child.draw(init, shape))
                                    for name, shape, init in s4d_table(state, d, 1e-3, 1e-1)])
        pairs, spd = k_hop_predecessors(g, k)
        arts = PreprocessArtifacts(
            depth=np.zeros(g.num_nodes, np.int64),
            pagerank=np.full(g.num_nodes, 1.0 / g.num_nodes),
            k_hop_edge_index=pairs,
            k_hop_spd=spd,
            k=k,
        )
        with no_grad():
            heads = digraph_ssm_scan(Tensor(fx), arts, params, "scan", num_heads)
        want = sequence_scan_oracle(g, fx, params, "scan", k, num_heads)
        worst = max(worst, float(np.abs(heads.data - want).max()))
    return SuiteResult(
        "scan-equivalence", worst <= tol, worst,
        f"{graphs} graphs <= {max_nodes} nodes, hops {hops}",
    )


def _tiny_config(**overrides) -> ModelConfig:
    base = dict(
        in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=1,
        se_layers=1, ssm_state=4, k_hops=2, dropout=0.0, bidirectional=False,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _forward_nodes(g: DiGraph, cfg: ModelConfig, params) -> np.ndarray:
    prep = prepare_graphs([g], cfg)
    batch, fwd, rev = collate(prep)
    with no_grad():
        return model_forward(batch, fwd, rev, cfg, params, train=False).data


def suite_permutation(seed: int = 0, graphs: int = 20, tol: float = 1e-8) -> SuiteResult:
    stream = RngStream(seed)
    worst = 0.0
    for i in range(graphs):
        g = random_digraph(stream, 20)
        node_cfg = _tiny_config(task="node-regress", bidirectional=bool(i % 2))
        params = init_weights(node_cfg, stream.child())
        base = _forward_nodes(g, node_cfg, params)
        perm = stream.permutation(g.num_nodes)
        g_p = DiGraph(
            g.num_nodes,
            np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1)
            if g.num_edges else np.zeros((0, 2), np.int64),
            g.node_features[np.argsort(perm)],
        )
        permuted = _forward_nodes(g_p, node_cfg, params)
        worst = max(worst, float(np.abs(permuted[perm] - base).max()))
        # Graph-level invariance under the same relabeling.
        graph_cfg = _tiny_config(task="graph-regress")
        gparams = init_weights(graph_cfg, stream.child())
        gout = _forward_nodes(g, graph_cfg, gparams)
        gout_p = _forward_nodes(g_p, graph_cfg, gparams)
        worst = max(worst, float(np.abs(gout - gout_p).max()))
    return SuiteResult("permutation", worst <= tol, worst, f"{graphs} random relabelings")


def suite_gradcheck(seed: int = 0, tol: float = 1e-3) -> SuiteResult:
    stream = RngStream(seed)
    g = random_digraph(stream, 5)
    g = DiGraph(g.num_nodes, g.edges, g.node_features, y=stream.normal(size=g.num_nodes))
    cfg = _tiny_config(task="node-regress", hidden=8, heads=2, ssm_state=4, k_hops=2)
    params = init_weights(cfg, stream.child())
    prep = prepare_graphs([g], cfg)
    batch, fwd, rev = collate(prep)

    def loss_fn():
        return model_loss(model_forward(batch, fwd, rev, cfg, params), batch, cfg)

    report = grad_check_params(loss_fn, params, eps=1e-4, tol=tol)
    return SuiteResult(
        "gradcheck", report.passed, report.max_rel_err,
        f"full loss on a 5-node graph, {params.num_values()} parameter values",
    )


def suite_receptive_field(seed: int = 0) -> SuiteResult:
    stream = RngStream(seed)
    # Part 1: one unidirectional layer, structural encoder and fusion off.
    n, k = 8, 2
    chain = DiGraph(
        n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), stream.normal(size=(n, 3))
    )
    cfg = _tiny_config(se_layers=0, use_fusion=False, k_hops=k)
    params = init_weights(cfg, stream.child())
    base = _forward_nodes(chain, cfg, params)
    worst_leak = 0.0
    min_signal = math.inf
    src = 0
    x2 = chain.node_features.copy()
    x2[src] += 1.0
    bumped = DiGraph(n, chain.edges, x2)
    diff = np.abs(_forward_nodes(bumped, cfg, params) - base).max(axis=1)
    for v in range(n):
        spd = v - src  # chain distance
        if spd > k:
            worst_leak = max(worst_leak, float(diff[v]))
        else:
            min_signal = min(min_signal, float(diff[v]))
    part1 = worst_leak <= 1e-12 and min_signal > 1e-12

    # Part 2: shared-predecessor pathway u -> v1, u -> v2 needs two
    # bidirectional layers; a unidirectional stack stays blind to it.
    g2 = DiGraph(3, np.array([[0, 1], [0, 2]]), stream.normal(size=(3, 3)))
    x2 = g2.node_features.copy()
    x2[1] += 1.0  # perturb v1
    g2b = DiGraph(3, g2.edges, x2)
    uni = _tiny_config(se_layers=0, use_fusion=False, k_hops=1, num_layers=2)
    uni_params = init_weights(uni, stream.child())
    blind = np.abs(
        _forward_nodes(g2b, uni, uni_params)[2] - _forward_nodes(g2, uni, uni_params)[2]
    ).max()
    bi = _tiny_config(
        se_layers=0, use_fusion=False, k_hops=1, num_layers=2, bidirectional=True
    )
    bi_params = init_weights(bi, stream.child())
    seen = np.abs(
        _forward_nodes(g2b, bi, bi_params)[2] - _forward_nodes(g2, bi, bi_params)[2]
    ).max()
    part2 = blind <= 1e-12 and seen > 1e-9
    passed = part1 and part2
    return SuiteResult(
        "receptive-field", passed, worst_leak + blind,
        f"leak {worst_leak:.1e}, pathway blind {blind:.1e} vs seen {seen:.2e}",
    )


SUITES = {
    "scc": suite_scc,
    "pagerank": suite_pagerank,
    "depthplus": suite_depthplus,
    "ssm-equivalence": suite_ssm_equivalence,
    "scan-equivalence": suite_scan_equivalence,
    "permutation": suite_permutation,
    "gradcheck": suite_gradcheck,
    "receptive-field": suite_receptive_field,
}


def oracle_check(name: str) -> SuiteResult:
    """Run one named suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name]()
