import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgssm import autodiff as ad
from dgssm.algos import PreprocessArtifacts, batch_artifacts, depth_plus, k_hop_predecessors
from dgssm.autodiff import ParameterSet, ShapeError, Tensor
from dgssm.checkpoint import CheckpointError, save_arrays
from dgssm.graphs import DiGraph, batch_graphs, reverse_graph
from dgssm.model import (
    ModelConfig,
    depth_positional_encoding,
    digraph_fusion_attention,
    digraph_ssm_scan,
    dir_gated_gcn,
    encode_inputs,
    init_weights,
    load_model,
    model_forward,
    model_loss,
    param_table,
    save_model,
)
from dgssm.optim import grad_check_params
from dgssm.oracle import sequence_scan_oracle
from dgssm.rng import RngStream
from dgssm.ssm import kernel_table
from dgssm.synth import SyntheticTaskSpec, gen_synthetic
from dgssm.train import collate, evaluate_checkpoint, prepare_graphs

from conftest import conv_same_reference, fusion_composition, make_random_digraph, scan_composition, ssm_params, sum_


# -- depth positional encoding ------------------------------------------------------


def test_pe_depth_zero_alternates_zero_one():
    pe = depth_positional_encoding(np.array([0]), 6)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])


def test_pe_depth_one_d4_exact_values():
    pe = depth_positional_encoding(np.array([1]), 4)
    want = [np.sin(1.0), np.cos(1.0), np.sin(1e-2), np.cos(1e-2)]
    assert np.allclose(pe[0], want, atol=1e-12)


def test_pe_bounded_and_width():
    pe = depth_positional_encoding(np.arange(50), 32)
    assert pe.shape == (50, 32)
    assert np.all(np.abs(pe) <= 1.0)


def test_pe_odd_width_ends_on_sin():
    pe = depth_positional_encoding(np.array([0]), 5)
    assert pe.shape == (1, 5)
    assert pe[0, 4] == 0.0  # sin(0), no trailing cos column


def _per_node_encoding(depth, d):
    """The encoding computed node by node, as depth_positional_encoding did
    before it tabulated each distinct depth once."""
    depth = np.asarray(depth, dtype=np.float64).reshape(-1, 1)
    angles = depth * (1.0 / (10000.0 ** (2.0 * np.arange((d + 1) // 2) / d)))
    pe = np.zeros((depth.shape[0], d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)[:, : d // 2]
    return pe


def test_pe_table_gives_the_per_node_bits():
    # The depths of the seed-0 first batches of the benchmark's depth, chains
    # and eval workloads, then no nodes at all.
    spec = lambda task: SyntheticTaskSpec(task=task, num_graphs=512, seed=0, splits=(1.0, 0.0, 0.0))
    depth_graphs = gen_synthetic(spec("depth-regress"))["train"]
    eval_graphs = gen_synthetic(spec("ancestor-count-regress"))["train"]
    batches = [
        [depth_graphs[int(i)] for i in RngStream(0).split(3)[1].permutation(512)[:32]],
        _chains(RngStream(0)),
        [eval_graphs[int(i)] for i in RngStream(0).split(2)[1].permutation(512)[:64]],
    ]
    depths = [np.concatenate([depth_plus(g) for g in graphs]) for graphs in batches]
    assert depths[1].max() == 119  # a chain of 120 nodes
    for depth in [*depths, np.zeros(0, np.int64)]:
        got = depth_positional_encoding(depth, 32)
        assert got.shape == (depth.size, 32)
        assert got.tobytes() == _per_node_encoding(depth, 32).tobytes()


def test_pe_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="depths must be >= 0, got -1"):
        depth_positional_encoding(np.array([0, -1]), 4)


# -- gated directional GCN ----------------------------------------------------------


def _gcn_params(d, stream, prefix="enc"):
    from dgssm.autodiff import ParameterSet

    return ParameterSet(
        [(f"{prefix}.{direction}.w{j}", stream.normal(0, 0.5, (d, d)))
         for direction in ("in", "out") for j in range(1, 5)]
        + [(f"{prefix}.ln.g", np.ones(d)), (f"{prefix}.ln.b", np.zeros(d))]
    )


def test_gcn_no_edges_reduces_to_self_terms():
    stream = RngStream(0)
    d, n = 4, 3
    params = _gcn_params(d, stream)
    h = Tensor(stream.normal(size=(n, d)))
    out = dir_gated_gcn(h, np.zeros((0, 2), np.int64), params, "enc")
    mixed = 0.5 * (h.data @ params["enc.in.w1"].data + h.data @ params["enc.out.w1"].data)
    want = ad.layer_norm(
        Tensor(h.data + mixed), params["enc.ln.g"], params["enc.ln.b"]
    ).data
    assert np.allclose(out.data, want, atol=1e-12)


def test_gcn_single_edge_hand_formula():
    stream = RngStream(1)
    d = 2
    params = _gcn_params(d, stream)
    h = stream.normal(size=(2, d))
    out = dir_gated_gcn(Tensor(h), np.array([[0, 1]]), params, "enc")

    def w(tag, j):
        return params[f"enc.{tag}.w{j}"].data

    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    # In-direction: node 1 aggregates node 0; out-direction: node 0 aggregates node 1.
    res_in = h @ w("in", 1)
    res_in[1] += sig(h[1] @ w("in", 3) + h[0] @ w("in", 4)) * (h[0] @ w("in", 2))
    res_out = h @ w("out", 1)
    res_out[0] += sig(h[0] @ w("out", 3) + h[1] @ w("out", 4)) * (h[1] @ w("out", 2))
    pre = h + 0.5 * (res_in + res_out)
    mu = pre.mean(axis=1, keepdims=True)
    var = pre.var(axis=1, keepdims=True)
    want = (pre - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out.data, want, atol=1e-10)


def test_gcn_permutation_equivariance():
    stream = RngStream(2)
    g = make_random_digraph(5, max_nodes=12)
    d = 6
    params = _gcn_params(d, stream)
    h = stream.normal(size=(g.num_nodes, d))
    out = dir_gated_gcn(Tensor(h), g.edges, params, "enc").data
    perm = stream.permutation(g.num_nodes)
    edges_p = np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1) if g.num_edges else g.edges
    h_p = np.empty_like(h)
    h_p[perm] = h
    out_p = dir_gated_gcn(Tensor(h_p), edges_p, params, "enc").data
    assert np.allclose(out_p[perm], out, atol=1e-10)


def test_encode_symmetric_nodes_get_identical_rows():
    # Zero features and equal depths: nodes with the same degree profile are
    # indistinguishable, so the encoder must give them identical rows.
    cfg = ModelConfig(in_dim=2, task="node-regress", hidden=8, heads=2, se_layers=1,
                      ssm_state=4, k_hops=1, dropout=0.0)
    params = init_weights(cfg, RngStream(40))
    g = DiGraph(4, np.array([[0, 1], [2, 3]]), np.zeros((4, 2)))
    out = encode_inputs(Tensor(g.node_features), np.zeros(4, np.int64), g.edges, cfg, params)
    assert np.allclose(out.data[0], out.data[2], atol=1e-12)
    assert np.allclose(out.data[1], out.data[3], atol=1e-12)


def test_encode_inputs_matches_explicit_composition(chain3):
    cfg = ModelConfig(in_dim=2, task="node-regress", hidden=8, heads=2, se_layers=1,
                      ssm_state=4, k_hops=2, dropout=0.0)
    params = init_weights(cfg, RngStream(3))
    depth = np.array([0, 1, 2])
    x = Tensor(chain3.node_features)
    got = encode_inputs(x, depth, chain3.edges, cfg, params)
    h = ad.add(ad.matmul(x, params["encoder.proj.w"]), params["encoder.proj.b"])
    h = ad.add(h, ad.constant(depth_positional_encoding(depth, 8)))
    want = dir_gated_gcn(h, chain3.edges, params, "encoder.se0")
    assert np.allclose(got.data, want.data)
    assert got.shape == (3, 8)


# -- the scan -----------------------------------------------------------------------


def _scan_setup(g, k, d=8, heads=2, seed=4):
    stream = RngStream(seed)
    fx = Tensor(stream.normal(size=(g.num_nodes, d)))
    pairs, spd = k_hop_predecessors(g, k)
    arts = PreprocessArtifacts(
        depth=np.zeros(g.num_nodes, np.int64),
        pagerank=np.full(g.num_nodes, 1.0 / g.num_nodes),
        k_hop_edge_index=pairs,
        k_hop_spd=spd,
        k=k,
    )
    ssm = ssm_params(4, d, 1e-3, 1e-1, stream.child())
    ws = [Tensor(stream.normal(size=(d, d))) for _ in range(3)]
    return fx, arts, ssm, ws


def _scan_params(ssm, ws, extra=()):
    """A set of the ``extra`` pairs, then the scan's weights under the prefix
    "scan", named as the model names them."""
    return ParameterSet(
        list(extra)
        + [(f"scan.{name}", t) for name, t in zip(("wq", "wk", "wv"), ws)]
        + [(f"scan.{name}", t) for name, t in ssm.items()]
    )


def test_scan_isolated_node_is_hop_zero_message():
    g = DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 3)))
    fx, arts, ssm, (wq, wk, wv) = _scan_setup(g, 2)
    heads = digraph_ssm_scan(fx, arts, _scan_params(ssm, (wq, wk, wv)), "scan", 2)
    want = kernel_table(ssm, "ssm", 2)[0] @ (fx.data[0] @ wv.data)
    got = heads.data[0]
    assert np.allclose(got, want, atol=1e-12)


def test_scan_attention_normalizes_per_center_and_head():
    g = make_random_digraph(6, max_nodes=15)
    k = 3
    fx, arts, _, (wq, wk, wv) = _scan_setup(g, k)
    n, d = fx.shape
    heads = 2
    q = (fx.data @ wq.data)
    kk = (fx.data @ wk.data)
    u, v = arts.k_hop_edge_index[:, 0], arts.k_hop_edge_index[:, 1]
    dh = d // heads
    qh = q[v].reshape(-1, heads, dh)
    kh = kk[u].reshape(-1, heads, dh)
    scores = (qh * kh).sum(axis=2) / np.sqrt(dh)
    alpha = ad.segment_softmax(Tensor(scores), v, n).data
    sums = np.zeros((n, heads))
    np.add.at(sums, v, alpha)
    assert np.abs(sums - 1.0).max() <= 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_hop_attention_scan_weights_sum_to_one(heads):
    # a = -1e-15 and dt = 1 put every hop power a_bar^s within 1e-14 of 1.
    # fx's column 0 is 1, and wv and b read only that column, so every
    # message in the state is coef = (a_bar - 1) / a. Scaled by coef, rows of
    # c summing to 1 read center v's state in head h out as the sum of its
    # attention weights: every entry is 1 exactly when attention normalizes
    # per center and head.
    g = DiGraph(7, np.array([[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 3]]),
                np.zeros((7, 3)))
    k, d, state = 3, 8, 3
    pairs, spd = k_hop_predecessors(g, k)
    stream = RngStream(22)
    fx = stream.normal(size=(g.num_nodes, d))
    fx[:, 0] = 1.0
    wq, wk = (3.0 * stream.normal(size=(d, d)) for _ in range(2))
    wv, b = np.zeros((d, d)), np.zeros((state, d))
    wv[0], b[:, 0] = 1.0, 1.0
    a_log, log_dt = np.full(state, np.log(1e-15)), np.zeros(state)
    a = -np.exp(a_log)
    coef = (np.exp(a) - 1.0) / a
    c = stream.uniform(0.1, 1.0, size=(d, state))
    c /= c.sum(axis=1, keepdims=True) * coef
    y = ad.hop_attention_scan(fx, wq, wk, wv, a_log, log_dt, b, c, pairs, spd, heads)
    assert y.shape == (g.num_nodes, d)
    assert np.abs(y.data - 1.0).max() <= 1e-12


def test_scan_records_one_tape_node(monkeypatch):
    # The projections, the discretization, the power table and the scan are
    # a single node whose parents are the leaves themselves.
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 3)
    leaves = [fx, *ws, *(t for _, t in ssm.items())]
    for t in leaves:
        t.requires_grad = True
    nodes = []
    record = ad._node

    def counting_node(data, parents, backward):
        nodes.append(record(data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(ad, "_node", counting_node)
    heads = digraph_ssm_scan(fx, arts, _scan_params(ssm, ws), "scan", 2)
    assert nodes == [heads]
    assert all(p.backward is None for p in heads._record.parents)
    assert {id(p.leaf()) for p in heads._record.parents} == {id(t) for t in leaves}


def test_scan_head_slicing_layout():
    # Head c reads out through rows [c*d_h, (c+1)*d_h) of C into the same
    # columns of the (n, d) output, and into no other column.
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 2)
    params = _scan_params(ssm, ws)
    full = digraph_ssm_scan(fx, arts, params, "scan", 2).data
    c = params["scan.ssm.c"].data
    saved, d_h = c.copy(), c.shape[0] // 2
    for head in range(2):
        block = np.arange(c.shape[0]) // d_h == head
        c[~block] = 0.0
        alone = digraph_ssm_scan(fx, arts, params, "scan", 2).data
        c[...] = saved
        assert np.array_equal(alone[:, block], full[:, block])
        assert not alone[:, ~block].any()


def test_scan_matches_sequence_oracle_at_long_hops():
    # The scan-equivalence suite samples hops (1, 2, 4); on a 20-node chain
    # at k=16 most pairs sit at hops it never reaches.
    g = DiGraph(20, [(i, i + 1) for i in range(19)], RngStream(3).normal(size=(20, 3)))
    k = 16
    fx, arts, ssm, (wq, wk, wv) = _scan_setup(g, k)
    params = _scan_params(ssm, (wq, wk, wv))
    heads = digraph_ssm_scan(fx, arts, params, "scan", 2)
    want = sequence_scan_oracle(g, fx.data, params, "scan", k, 2)
    assert np.abs(heads.data - want).max() <= 1e-8


def test_scan_rejects_artifact_table_mismatch():
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=1,
                      se_layers=0, ssm_state=4, k_hops=1, dropout=0.0, bidirectional=True)
    params = init_weights(cfg, RngStream(9))
    g = make_random_digraph(9, max_nodes=8)
    batch, fwd, rev = _prepared_batch([g], cfg)
    _, deep_fwd, deep_rev = _prepared_batch([g], ModelConfig(**{**asdict(cfg), "k_hops": 3}))
    _, flat_fwd, flat_rev = _prepared_batch([g], ModelConfig(**{**asdict(cfg), "k_hops": 0}))
    model_forward(batch, fwd, rev, cfg, params)
    for arts in ((deep_fwd, rev), (fwd, deep_rev)):
        with pytest.raises(ValueError, match="k=3 > config k_hops=1"):
            model_forward(batch, *arts, cfg, params)
    # Shallower artifacts would run without error, on fewer hops than the config's.
    for arts in ((flat_fwd, rev), (fwd, flat_rev)):
        with pytest.raises(ValueError, match="k=0 < config k_hops=1"):
            model_forward(batch, *arts, cfg, params)


@pytest.mark.parametrize("k", [0, 1, 3, 16])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_scan_gradients_match_finite_differences(heads, k):
    # A 3-cycle feeding a chain, a self-loop and an isolated node.
    g = DiGraph(8, [(0, 1), (1, 2), (2, 0), (2, 5), (5, 6), (6, 7), (3, 3)], np.zeros((8, 3)))
    fx, arts, ssm, ws = _scan_setup(g, k)
    params = _scan_params(ssm, ws, [("fx", fx)])
    weights = RngStream(5).normal(size=(8, 8))

    def loss():
        return sum_(ad.mul(digraph_ssm_scan(fx, arts, params, "scan", heads), weights))

    report = grad_check_params(loss, params, eps=1e-5, tol=1e-6)
    assert report.passed, str(report)


def _scan_outputs(scan, args, pairs, spd, heads, probe):
    """Output and the eight input gradients of ``scan`` against ``probe``."""
    ts = [Tensor(a, requires_grad=True) for a in args]
    out = scan(*ts, pairs, spd, heads)
    sum_(ad.mul(out, ad.constant(probe))).backward()
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("case", ["chains-k16", "random-k3"])
def test_scan_matches_its_composition(case):
    # A batch of chains with a skip edge every 7 nodes at k=16, and a batch
    # of random digraphs: the fused op against the scan composed op by op.
    stream = RngStream(31)
    if case == "chains-k16":
        edges = [(j, j + 1) for j in range(29)] + [(j, j + 3) for j in range(0, 27, 7)]
        graphs, k = [DiGraph(30, edges, stream.normal(size=(30, 3))) for _ in range(3)], 16
    else:
        graphs, k = [make_random_digraph(seed) for seed in range(40, 46)], 3
    batch = batch_graphs(graphs)
    pairs, spd = k_hop_predecessors(DiGraph(batch.num_nodes, batch.edges, batch.node_features), k)
    d_in, d, heads, state = 5, 8, 2, 4
    ssm = ssm_params(state, d, 1e-2, 1.0, stream.child())
    args = [stream.normal(size=(batch.num_nodes, d_in)),
            *(stream.normal(size=(d_in, d)) for _ in range(3)),
            *(t.data for _, t in ssm.items())]
    probe = stream.normal(size=(batch.num_nodes, d))
    got, want = (
        _scan_outputs(scan, args, pairs, spd, heads, probe)
        for scan in (ad.hop_attention_scan, scan_composition)
    )
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_scan_where_a_bar_underflows_keeps_hop_zero_alone():
    # dt a from -800 to -1200: a_bar = exp(dt a) underflows to 0, so a_bar^0
    # is 1 and every later hop carries nothing. Outputs and gradients are
    # finite and equal the composition's, whose hop power exp(s dt a) takes
    # no log, and each center reads only its own message, by its attention
    # share: y_v = alpha_vv C_h b_bar (fx_v wv) per head h, b_bar = B / -a.
    stream = RngStream(37)
    g = make_random_digraph(42)
    pairs, spd = k_hop_predecessors(g, 3)
    n, d_in, d, heads = g.num_nodes, 5, 8, 2
    fx, wq, wk, wv = stream.normal(size=(n, d_in)), *(stream.normal(size=(d_in, d)) for _ in range(3))
    a_log, log_dt = np.log([8.0, 10.0, 12.0]), np.full(3, np.log(100.0))
    b, c = stream.normal(size=(3, d)), stream.normal(size=(d, 3))
    args = [fx, wq, wk, wv, a_log, log_dt, b, c]
    probe = stream.normal(size=(n, d))
    got, want = (
        _scan_outputs(scan, args, pairs, spd, heads, probe)
        for scan in (ad.hop_attention_scan, scan_composition)
    )
    for a, w in zip(got, want):
        assert np.all(np.isfinite(a))
        assert np.abs(a - w).max() <= 1e-12 * np.abs(w).max()
    u, v = pairs.T
    scores = ((fx @ wq)[v] * (fx @ wk)[u]).reshape(-1, heads, d // heads).sum(axis=2) / np.sqrt(d // heads)
    weight = np.exp(scores)
    alpha = weight / np.stack([np.bincount(v, weights=w, minlength=n) for w in weight.T], axis=1)[v]
    alpha_self = np.zeros((n, heads))
    alpha_self[v[spd == 0]] = alpha[spd == 0]
    message = (fx @ wv) @ (b / np.exp(a_log)[:, None]).T  # (n, D)
    heads_out = np.einsum("nh,hjs,ns->nhj", alpha_self, c.reshape(heads, d // heads, 3), message)
    assert np.allclose(got[0], heads_out.reshape(n, d), rtol=1e-12, atol=0)


@pytest.mark.parametrize("column", [0, 1, 2], ids=["pred", "center", "spd"])
def test_scan_rejects_fractional_pair_ids(column):
    # A cast to int64 would truncate 0.5 to the valid id 0.
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 2)
    table = np.column_stack([arts.k_hop_edge_index, arts.k_hop_spd]).astype(np.float64)
    table[0, column] += 0.5
    with pytest.raises(ShapeError, match="hop_attention_scan: .* must be integers"):
        ad.hop_attention_scan(fx, *ws, *(t for _, t in ssm.items()), table[:, :2], table[:, 2], 2)


def test_scan_rejects_pairs_not_sorted_by_center():
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 2)
    pairs, spd = arts.k_hop_edge_index[::-1], arts.k_hop_spd[::-1]
    with pytest.raises(ShapeError, match="hop_attention_scan: pairs are not sorted by center"):
        ad.hop_attention_scan(fx, *ws, *(t for _, t in ssm.items()), pairs, spd, 2)


@pytest.mark.parametrize("column,value", [(0, -1), (0, "n"), (1, "n"), (2, -1)],
                         ids=["negative-pred", "pred-n", "center-n", "negative-spd"])
def test_scan_rejects_pair_ids_out_of_range(column, value):
    # Unchecked, take() would wrap a negative predecessor or hop around to
    # the last row, and an id past the last node would fail inside numpy.
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 2)
    table = np.column_stack([arts.k_hop_edge_index, arts.k_hop_spd])
    table[-1, column] = g.num_nodes if value == "n" else value
    with pytest.raises(ShapeError, match=r"hop_attention_scan: .*\(ids in \[0, n\)\)"):
        ad.hop_attention_scan(fx, *ws, *(t for _, t in ssm.items()), table[:, :2], table[:, 2], 2)


# -- the bits of a first training step at benchmark size -----------------------------


def _chains(stream):
    """8 chains of 120 nodes with a skip edge j -> j+3 every 7 nodes."""
    edges = [(j, j + 1) for j in range(119)] + [(j, j + 3) for j in range(0, 117, 7)]
    return [DiGraph(120, edges, stream.normal(size=(120, 3)), y=stream.normal(size=120))
            for _ in range(8)]


# Each run's seed-0 first step, set up as the benchmark's train-depth-k4 and
# train-chains-k16 workloads set up (4,750 and 19,832 hop pairs per scan):
# SHA-256 prefixes of the predictions, the loss, and every gradient in
# param_table order. Recorded with numpy 2.4.6 and its bundled OpenBLAS on
# x86-64: another BLAS build may round the matmuls differently.
FIRST_STEP_DIGESTS = {
    "depth-k4": ("66fe3e693943e33c", "3bfac38010b5b9b8", "153d3ebd63d3a737"),
    "chains-k16": ("6d1ed329e161b62c", "ce71792e842db162", "7d51a1c852391072"),
}


def _first_step_inputs(run: str):
    """(cfg, params, batch, fwd, rev, dropout stream) of ``run``'s seed-0
    first step."""
    base = dict(in_dim=3, hidden=32, heads=4, se_layers=1, ssm_state=8, task="node-regress")
    if run == "depth-k4":
        cfg = ModelConfig(**base, num_layers=2, k_hops=4, dropout=0.1, bidirectional=True)
        spec = SyntheticTaskSpec(task="depth-regress", num_graphs=512, seed=0, splits=(1.0, 0.0, 0.0))
        graphs, batch_size = gen_synthetic(spec)["train"], 32
    else:
        cfg = ModelConfig(**base, num_layers=1, k_hops=16, dropout=0.0, bidirectional=False)
        graphs, batch_size = _chains(RngStream(0)), 8
    init_stream, order_stream, drop_stream = RngStream(0).split(3)
    prepared = prepare_graphs(graphs, cfg)
    params = init_weights(cfg, init_stream)
    first = order_stream.permutation(len(prepared))[:batch_size]
    return cfg, params, *collate([prepared[int(i)] for i in first]), drop_stream


def first_step_digests(run: str) -> tuple[str, str, str]:
    """The digests of ``run``'s seed-0 first step, in FIRST_STEP_DIGESTS' form."""
    cfg, params, batch, fwd, rev, drop_stream = _first_step_inputs(run)
    preds = model_forward(batch, fwd, rev, cfg, params, train=True, stream=drop_stream.child())
    loss = model_loss(preds, batch, cfg)
    loss.backward()
    grads = hashlib.sha256()
    for _, t in params.items():
        grads.update(np.ascontiguousarray(t.grad).tobytes())
    return tuple(h.hexdigest()[:16] for h in
                 (hashlib.sha256(preds.data.tobytes()), hashlib.sha256(loss.data.tobytes()), grads))


@pytest.mark.parametrize("run", sorted(FIRST_STEP_DIGESTS))
def test_first_training_step_gives_its_pinned_bits(run):
    # OpenBLAS splits a backward matmul by its thread count, and the last
    # bits of a gradient follow the split: on 1 thread, depth-k4's
    # predictions and loss match, but 1,405 of its 39,821 gradient entries
    # differ, each by at most 4.4e-16. The digests were recorded on a 2-vCPU
    # host, where OpenBLAS runs 2 threads by default, so the step runs in a
    # child process with 2 threads pinned, whatever the caller pins.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path}
    code = f"from test_model import first_step_digests; print(*first_step_digests({run!r}))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert tuple(child.stdout.split()) == FIRST_STEP_DIGESTS[run]


def test_chains_first_step_tape_holds_only_what_backward_reads():
    # What the chains step's forward and loss leave allocated: every op's
    # closure with the arrays it reads, and the predictions and loss. When
    # each tape node also held its parent tensors, and so every op output,
    # this was 28 MB.
    cfg, params, batch, fwd, rev, drop_stream = _first_step_inputs("chains-k16")
    tracemalloc.start()
    try:
        preds = model_forward(batch, fwd, rev, cfg, params, train=True, stream=drop_stream.child())
        loss = model_loss(preds, batch, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad and held < 22e6


# -- fusion attention ---------------------------------------------------------------


def _fusion_weights(stream, c):
    """The fusion's weights under the prefix "fusion", named as the model
    names them."""
    k2 = 3 if c >= 3 else 1
    shapes = [("nd.w", (1, 2, 7)), ("nd.b", (1,)), ("nc.w", (1, 2, k2)), ("nc.b", (1,)),
              ("dc.w", (1, 2, 3, 3)), ("dc.b", (1,)), ("pr.w", (1,)), ("pr.b", (1,))]
    return ParameterSet([(f"fusion.{name}", stream.normal(0, 0.3, shape)) for name, shape in shapes])


def _columns(x):
    """(n, dh, C) -> (n, d) with head c in columns [c*dh, (c+1)*dh), the
    layout the scan and the fusion take and return."""
    return x.transpose(0, 2, 1).reshape(x.shape[0], -1)


@pytest.mark.parametrize("n,dh,c", [(5, 4, 2), (7, 2, 4), (3, 8, 8), (1, 4, 2)])
def test_fusion_preserves_shape(n, dh, c):
    stream = RngStream(10)
    x = Tensor(stream.normal(size=(n, dh * c)))
    pr = np.full(n, 1.0 / n)
    out = digraph_fusion_attention(x, pr, np.zeros(n, np.int64), 1, _fusion_weights(stream, c),
                                   "fusion", c)
    assert out.shape == (n, dh * c)


@pytest.mark.parametrize("misaligned", ["pagerank", "batch_index"])
def test_fusion_misalignment_raises_the_op_error(misaligned):
    # The model layer leaves the check to the op, whose error gives every shape.
    stream = RngStream(10)
    args = {"pagerank": np.full(5, 0.2), "batch_index": np.zeros(5, np.int64)}
    args[misaligned] = args[misaligned][:4]
    with pytest.raises(ad.ShapeError, match=r"cross_axis_fusion: x \(5, 8\), heads 2, pagerank"):
        digraph_fusion_attention(Tensor(stream.normal(size=(5, 8))), args["pagerank"],
                                 args["batch_index"], 1, _fusion_weights(stream, 2), "fusion", 2)


def _fusion_reference(x, pagerank, batch_index, num_graphs, w):
    """The fusion in the layout of the paper: each branch rotates x so that
    the axis it compresses leads, Z-pools that axis, convolves, gates the
    rotated x and rotates the branch back; the output is the branch mean."""
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    conv = lambda t, name: sig(conv_same_reference(t, w[f"fusion.{name}.w"].data,
                                                   w[f"fusion.{name}.b"].data))

    def zpool_first(t):  # (first, rows, cols) -> (rows, 2, cols)
        return np.stack([t.max(axis=0), t.mean(axis=0)], axis=1)

    x_c = x.transpose(2, 0, 1)  # (C, n, dh)
    branch1 = (x_c * conv(zpool_first(x_c), "nd").transpose(1, 0, 2)).transpose(1, 2, 0)
    x_d = x.transpose(1, 0, 2)  # (dh, n, C)
    branch2 = (x_d * conv(zpool_first(x_d), "nc").transpose(1, 0, 2)).transpose(1, 0, 2)
    branch3 = np.zeros_like(x)
    logits = pagerank * w["fusion.pr.w"].data[0] + w["fusion.pr.b"].data[0]
    for gi in range(num_graphs):
        rows = batch_index == gi
        if not rows.any():
            continue
        e = np.exp(logits[rows] - logits[rows].max())
        xw = x[rows] * (e / e.sum())[:, None, None]
        pooled = np.stack([xw.max(axis=0), xw.mean(axis=0)])[None]  # (1, 2, dh, C)
        branch3[rows] = x[rows] * conv(pooled, "dc")[0, 0]
    return (branch1 + branch2 + branch3) / 3.0


def test_fusion_single_node_pools_duplicate():
    stream = RngStream(11)
    x = Tensor(stream.normal(size=(1, 4, 2)))
    w = _fusion_weights(stream, 2)
    pr = np.array([1.0])
    batch_index = np.zeros(1, np.int64)
    out = digraph_fusion_attention(Tensor(_columns(x.data)), pr, batch_index, 1, w, "fusion", 2)
    # w_p for a single node is 1, so the pooled max and mean channels both
    # equal x itself.
    assert np.allclose(out.data, _columns(_fusion_reference(x.data, pr, batch_index, 1, w)),
                       atol=1e-12)


def _tied_fusion_batch(stream, dh, c):
    """Graphs of 3, 0, 1, 1 and 4 nodes. In the tied copy, nodes 0-5 reach
    their max over heads or over features twice, and the last graph holds
    two equal nodes of equal PageRank."""
    sizes = [3, 0, 1, 1, 4]
    batch_index = np.repeat(np.arange(len(sizes)), sizes)
    n = len(batch_index)
    x = stream.normal(size=(n, dh, c))
    pagerank = stream.uniform(0.1, 1.0, size=n)
    tied = x.copy()
    if c > 1:
        tied[:4, :, :2] = tied[:4].max(axis=2, keepdims=True)
    if dh > 1:
        tied[2:6, :2, :] = tied[2:6].max(axis=1, keepdims=True)
    tied[-1], pagerank[-1] = tied[-2], pagerank[-2]
    return x, tied, pagerank, batch_index, len(sizes)


@pytest.mark.parametrize("heads,dh", [(1, 8), (2, 4), (4, 2), (8, 1)])
def test_fusion_matches_numpy_reference(heads, dh):
    stream = RngStream(19)
    x, tied, pr, batch_index, num_graphs = _tied_fusion_batch(stream, dh, heads)
    w = _fusion_weights(stream, heads)
    for data in (x, tied):
        out = digraph_fusion_attention(Tensor(_columns(data)), pr, batch_index, num_graphs, w,
                                       "fusion", heads).data
        want = _columns(_fusion_reference(data, pr, batch_index, num_graphs, w))
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    # Finite differences step across a tie, so the gradients are checked on
    # the untied batch.
    params = ParameterSet([("x", _columns(x)), *w.items()])
    probe = ad.constant(stream.normal(size=params["x"].shape))

    def loss():
        out = digraph_fusion_attention(params["x"], pr, batch_index, num_graphs, params, "fusion",
                                       heads)
        return sum_(ad.mul(out, probe))

    report = grad_check_params(loss, params, eps=1e-5, tol=1e-6)
    assert report.passed, str(report)


def _fusion_grads(fusion, data, pr, batch_index, num_graphs, w, heads, probe):
    """Output, x gradient and weight gradients of ``fusion`` on ``data``."""
    x = Tensor(data, requires_grad=True)
    w.zero_grad()
    out = fusion(x, pr, batch_index, num_graphs, w, "fusion", heads)
    sum_(ad.mul(out, ad.constant(probe))).backward()
    return [out.data, x.grad] + [t.grad for _, t in w.items()]


@pytest.mark.parametrize("heads,dh", [(1, 8), (2, 4), (4, 2), (8, 1)])
def test_fusion_ties_route_gradients_like_the_composition(heads, dh):
    # The tied batch reaches its max over heads or features twice on nodes
    # 0-5 and its per-graph max twice in the last graph. The fused op sends
    # each of those gradients to the earliest maximum, as the op-by-op
    # composition does. pr.b's gradient is 0 in exact arithmetic, so the
    # bound is absolute where the gradient is below 1.
    stream = RngStream(19)
    _, tied, pr, batch_index, num_graphs = _tied_fusion_batch(stream, dh, heads)
    w = _fusion_weights(stream, heads)
    tied = _columns(tied)
    probe = stream.normal(size=tied.shape)
    got, want = (
        _fusion_grads(f, tied, pr, batch_index, num_graphs, w, heads, probe)
        for f in (digraph_fusion_attention, fusion_composition)
    )
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("layout", ["every-other-column", "scan-layout"])
def test_fusion_strided_input_bit_identical(layout):
    # The scan hands the fusion the F-ordered (n, d) view of its (d, n) array.
    stream = RngStream(20)
    x, _, pr, batch_index, num_graphs = _tied_fusion_batch(stream, 4, 3)
    w = _fusion_weights(stream, 3)
    x = _columns(x)
    probe = stream.normal(size=x.shape)
    strided = np.asfortranarray(x) if layout == "scan-layout" else np.repeat(x, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    got, want = (
        _fusion_grads(digraph_fusion_attention, data, pr, batch_index, num_graphs, w, 3, probe)
        for data in (strided, np.ascontiguousarray(strided))
    )
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_scan_and_fusion_return_views_of_one_feature_major_buffer():
    # Each op's (n, d) output is a view whose transpose is a C-contiguous
    # (d, n) array, so the matmul by wo reads it without a copy, with or
    # without the fusion block.
    g = make_random_digraph(8, max_nodes=10)
    fx, arts, ssm, ws = _scan_setup(g, 2)
    heads = digraph_ssm_scan(fx, arts, _scan_params(ssm, ws), "scan", 2)
    fused = digraph_fusion_attention(heads, arts.pagerank, np.zeros(g.num_nodes, np.int64), 1,
                                     _fusion_weights(RngStream(21), 2), "fusion", 2)
    for t in (heads, fused):
        assert t.shape == (g.num_nodes, fx.shape[1])
        assert t.data.base is not None and t.data.T.flags.c_contiguous


def test_fusion_batch_isolation_bit_identical():
    stream = RngStream(12)
    n1, n2, dh, c = 6, 5, 4, 2
    x1 = stream.normal(size=(n1, dh * c))
    x2 = stream.normal(size=(n2, dh * c))
    w = _fusion_weights(stream, c)
    batch_index = np.concatenate([np.zeros(n1, np.int64), np.ones(n2, np.int64)])
    pr = np.concatenate([np.full(n1, 1 / n1), np.full(n2, 1 / n2)])
    base = digraph_fusion_attention(
        Tensor(np.concatenate([x1, x2])), pr, batch_index, 2, w, "fusion", c
    ).data
    x2b = x2 + stream.normal(size=x2.shape)
    bumped = digraph_fusion_attention(
        Tensor(np.concatenate([x1, x2b])), pr, batch_index, 2, w, "fusion", c
    ).data
    assert np.array_equal(base[:n1], bumped[:n1])
    assert not np.array_equal(base[n1:], bumped[n1:])


# -- layers and the full model --------------------------------------------------------


def _prepared_batch(graphs, cfg):
    return collate(prepare_graphs(graphs, cfg))


def test_edgeless_bidirectional_scans_match_with_tied_weights():
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=1,
                      se_layers=0, ssm_state=4, k_hops=2, dropout=0.0, bidirectional=True)
    params = init_weights(cfg, RngStream(13))
    # Tie reverse weights to forward weights.
    for name in params.names():
        if ".rev." in name:
            params[name].data = params[name.replace(".rev.", ".fwd.")].data.copy()
    g = DiGraph(4, np.zeros((0, 2), np.int64), RngStream(14).normal(size=(4, 3)))
    batch, fwd, rev = _prepared_batch([g], cfg)
    h = encode_inputs(Tensor(batch.node_features), fwd.depth, batch.edges, cfg, params)
    out_f = digraph_ssm_scan(h, fwd, params, "layers.0.fwd", cfg.heads)
    out_r = digraph_ssm_scan(h, rev, params, "layers.0.rev", cfg.heads)
    assert np.array_equal(out_f.data, out_r.data)


@pytest.mark.parametrize(
    "task,num_classes,want_shape",
    [
        ("node-classify", 3, (11, 3)),
        ("node-regress", 0, (11, 1)),
        ("graph-classify", 4, (2, 4)),
        ("graph-regress", 0, (2, 1)),
    ],
)
def test_model_output_shapes(task, num_classes, want_shape):
    stream = RngStream(15)
    g1 = make_random_digraph(20, max_nodes=8)
    g2 = make_random_digraph(21, max_nodes=8)
    n = g1.num_nodes + g2.num_nodes
    want = (n, want_shape[1]) if task.startswith("node") else want_shape
    if task == "node-classify":
        ys = [stream.integers(0, num_classes, g.num_nodes) for g in (g1, g2)]
    elif task == "node-regress":
        ys = [stream.normal(size=g.num_nodes) for g in (g1, g2)]
    elif task == "graph-classify":
        ys = [int(stream.integers(0, num_classes)) for _ in range(2)]
    else:
        ys = [float(stream.normal()) for _ in range(2)]
    gs = [DiGraph(g.num_nodes, g.edges, g.node_features, y=y) for g, y in zip((g1, g2), ys)]
    cfg = ModelConfig(in_dim=3, task=task, num_classes=num_classes, hidden=8, heads=2,
                      num_layers=1, se_layers=1, ssm_state=4, k_hops=2, dropout=0.1)
    params = init_weights(cfg, stream.child())
    batch, fwd, rev = _prepared_batch(gs, cfg)
    out = model_forward(batch, fwd, rev, cfg, params)
    assert out.shape == want
    loss = model_loss(out, batch, cfg)
    assert loss.size == 1 and np.isfinite(loss.item())


def test_eval_mode_deterministic():
    g = make_random_digraph(30, max_nodes=12)
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=2,
                      se_layers=1, ssm_state=4, k_hops=2, dropout=0.5, bidirectional=True)
    params = init_weights(cfg, RngStream(16))
    batch, fwd, rev = _prepared_batch([g], cfg)
    a = model_forward(batch, fwd, rev, cfg, params).data
    b = model_forward(batch, fwd, rev, cfg, params).data
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(in_dim=3, task="node-regress", hidden=10, heads=4)
    with pytest.raises(ValueError, match="task"):
        ModelConfig(in_dim=3, task="bogus")
    with pytest.raises(ValueError, match="num_classes"):
        ModelConfig(in_dim=3, task="node-classify", num_classes=1)
    with pytest.raises(ValueError):
        ModelConfig(in_dim=3, task="node-regress", dt_min=0.5, dt_max=0.1)


@pytest.mark.parametrize(
    "field,value,low",
    [("heads", 0, 1), ("hidden", 0, 1), ("in_dim", 0, 1), ("ssm_state", 0, 1),
     ("num_layers", -1, 0), ("se_layers", -1, 0), ("k_hops", -1, 0)],
)
def test_config_rejects_sizes_the_model_cannot_build(field, value, low):
    # heads=0 used to die as a bare ZeroDivisionError, and num_layers=-1
    # built a model with no layers.
    with pytest.raises(ValueError, match=f"^{field} must be >= {low}, got {value}$"):
        ModelConfig(**{"in_dim": 3, "task": "node-regress", field: value})


@pytest.mark.parametrize(
    "field,value,kind",
    [("heads", 4.0, "int"), ("hidden", True, "int"), ("k_hops", "4", "int"),
     ("use_fusion", "no", "bool"), ("bidirectional", "yes", "bool"), ("use_depth_pe", 1, "bool"),
     ("dropout", "0.1", "float"), ("dt_max", False, "float")],
)
def test_config_rejects_values_of_the_wrong_type(field, value, kind):
    # heads=4.0 used to construct and then die as a bare TypeError in the
    # forward pass, and use_fusion="no" switched the fusion block on.
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value!r}$"):
        ModelConfig(**{"in_dim": 3, "task": "node-regress", field: value})


@pytest.mark.parametrize("field", ["dt_max", "dt_min", "dropout"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400], ids=["inf", "nan", "huge-int"])
def test_config_rejects_non_finite_floats(field, value):
    # dt_max=inf used to construct and then die as a bare OverflowError in
    # init_weights, and an int past float range as one in the type check.
    with pytest.raises(ValueError, match=f"^{field} must be a finite float, got {value!r:.40}$"):
        ModelConfig(**{"in_dim": 3, "task": "node-regress", field: value})


def test_config_accepts_no_layers():
    cfg = ModelConfig(in_dim=3, task="node-regress", num_layers=0, se_layers=0)
    assert cfg.num_layers == cfg.se_layers == 0


def test_feature_dim_mismatch_raises():
    g = make_random_digraph(31, max_nodes=6)
    cfg = ModelConfig(in_dim=5, task="node-regress", hidden=8, heads=2, k_hops=1)
    params = init_weights(cfg, RngStream(17))
    batch, fwd, rev = _prepared_batch([g], cfg)
    with pytest.raises(ValueError, match="in_dim"):
        model_forward(batch, fwd, rev, cfg, params)


def test_checkpoint_round_trip_preserves_predictions(tmp_path):
    g = make_random_digraph(32, max_nodes=10)
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=1,
                      se_layers=1, ssm_state=4, k_hops=2, bidirectional=True)
    params = init_weights(cfg, RngStream(18))
    batch, fwd, rev = _prepared_batch([g], cfg)
    want = model_forward(batch, fwd, rev, cfg, params).data
    path = tmp_path / "model.ckpt"
    save_model(path, cfg, params, extra_meta={"note": "test"})
    cfg2, params2, opt_arrays, meta = load_model(path)
    assert meta["note"] == "test"
    assert asdict(cfg2) == asdict(cfg)
    assert params2.names() == params.names()
    got = model_forward(batch, fwd, rev, cfg2, params2).data
    assert np.array_equal(want, got)


@pytest.mark.parametrize("task", ["node-regress", "graph-regress"])
@pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bi"])
@pytest.mark.parametrize("se_layers", [0, 1], ids=["se0", "se1"])
@pytest.mark.parametrize("use_fusion", [False, True], ids=["no-fusion", "fusion"])
def test_the_weight_table_is_what_the_forward_reads(use_fusion, se_layers, bidirectional, task):
    # A weight that no path reads holds no gradient, and AdamW.step refuses
    # it: use_fusion=False used to register every branch's fusion weights.
    cfg = ModelConfig(in_dim=3, task=task, hidden=8, heads=2, num_layers=1, se_layers=se_layers,
                      ssm_state=4, k_hops=2, bidirectional=bidirectional, use_fusion=use_fusion)
    graphs = [make_random_digraph(seed, max_nodes=10) for seed in (40, 41)]
    graphs = [DiGraph(g.num_nodes, g.edges, g.node_features,
                      y=np.arange(g.num_nodes) * 0.5 if task == "node-regress" else 1.5)
              for g in graphs]
    params = init_weights(cfg, RngStream(0))
    batch, fwd, rev = _prepared_batch(graphs, cfg)
    model_loss(model_forward(batch, fwd, rev, cfg, params), batch, cfg).backward()
    assert {name for name, t in params.items() if t.grad is not None} == {
        name for name, _, _ in param_table(cfg)
    }


_CKPT_CFG = ModelConfig(in_dim=3, task="graph-regress", hidden=8, heads=2, num_layers=1,
                        se_layers=1, ssm_state=4, k_hops=2)


def _edited_checkpoint(path, edit):
    """A checkpoint of ``_CKPT_CFG`` whose arrays and meta ``edit`` changed in place."""
    arrays = {f"param.{n}": t.data.copy() for n, t in init_weights(_CKPT_CFG, RngStream(0)).items()}
    arrays["opt.step"] = np.array([3.0])
    meta = {"config": asdict(_CKPT_CFG)}
    edit(arrays, meta)
    save_arrays(path, arrays, meta)
    return path


def _set_nan(arrays, meta):
    arrays["param.head.b1"][0] = np.nan


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda a, m: m.pop("config"), "the meta block has no model config"),
        (lambda a, m: m["config"].update(width=8), "invalid model config .*unknown ModelConfig key 'width'"),
        (lambda a, m: m["config"].update(hidden=7), "invalid model config .*not divisible by heads"),
        (lambda a, m: m["config"].update(heads=2.0), r"invalid model config \(heads must be int, got 2.0\)"),
        (lambda a, m: m["config"].update(use_fusion="no"), "invalid model config .*use_fusion must be bool"),
        (lambda a, m: a.pop("param.layers.0.fwd.wq"), "parameter 'layers.0.fwd.wq' is missing"),
        (lambda a, m: a.update({"param.extra.w": np.zeros(2)}), "unknown parameter 'extra.w'"),
        (lambda a, m: a.update({"param.head.w2": np.zeros((3, 1))}),
         r"parameter 'head.w2' has shape \(3, 1\), but the config builds \(8, 1\)"),
        (_set_nan, "array 'param.head.b1' holds a non-finite value"),
        (lambda a, m: a.update({"opt.m": np.array([np.inf])}), "array 'opt.m' holds a non-finite value"),
    ],
    ids=["no-config", "unknown-key", "bad-value", "float-size", "string-switch", "missing", "unknown-param", "shape", "nan", "inf-opt"],
)
def test_load_model_checks_the_checkpoint_against_its_config(tmp_path, edit, error):
    path = _edited_checkpoint(tmp_path / "m.ckpt", edit)
    with pytest.raises(CheckpointError, match=f"m.ckpt: {error}"):
        load_model(path)


def test_load_model_keeps_optimizer_arrays(tmp_path):
    cfg, params, opt_arrays, _ = load_model(_edited_checkpoint(tmp_path / "m.ckpt", lambda a, m: None))
    assert cfg == _CKPT_CFG and opt_arrays == {"step": np.array([3.0])}
    assert params.names() == init_weights(cfg, RngStream(0)).names()


def _assert_flat_views(params):
    for name, t in params.items():
        assert np.shares_memory(t.data, params.flat), name
    assert params.flat.flags.c_contiguous and params.flat.size == sum(t.size for _, t in params.items())


def test_init_and_load_give_views_of_one_buffer(tmp_path):
    params = init_weights(_CKPT_CFG, RngStream(0))
    _assert_flat_views(params)
    _, loaded, _, _ = load_model(_edited_checkpoint(tmp_path / "m.ckpt", lambda a, m: None))
    _assert_flat_views(loaded)
    assert np.array_equal(loaded.flat, params.flat)


def test_load_model_takes_the_config_order_whatever_the_file_order(tmp_path):
    def reverse(arrays, meta):
        items = list(arrays.items())[::-1]
        arrays.clear()
        arrays.update(items)

    want = init_weights(_CKPT_CFG, RngStream(0))
    _, params, opt_arrays, _ = load_model(_edited_checkpoint(tmp_path / "m.ckpt", reverse))
    assert params.names() == want.names() and opt_arrays == {"step": np.array([3.0])}
    assert np.array_equal(params.flat, want.flat)
    _assert_flat_views(params)


@pytest.fixture(scope="module")
def _ckpt_bytes(tmp_path_factory):
    path = _edited_checkpoint(tmp_path_factory.mktemp("ckpt") / "m.ckpt", lambda a, m: None)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_checkpoint_error(_ckpt_bytes, data):
    # Cut the file anywhere, or flip a bit of or overwrite one byte of its
    # header (everything before the float64 payload).
    path, good = _ckpt_bytes
    payload_values = init_weights(_CKPT_CFG, RngStream(0)).flat.size + 1  # and opt.step
    header = len(good) - 8 * payload_values
    kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if kind == "truncate":
        bad = good[: data.draw(st.integers(0, len(good) - 1))]
    else:
        at = data.draw(st.integers(0, header - 1))
        byte = good[at] ^ (1 << data.draw(st.integers(0, 7))) if kind == "flip" else data.draw(st.integers(0, 255))
        bad = good[:at] + bytes([byte]) + good[at + 1 :]
    cut = path.with_name("cut.ckpt")
    cut.write_bytes(bad)
    if bad == good:
        load_model(cut)
    else:
        with pytest.raises(CheckpointError):
            load_model(cut)


def test_eval_refuses_nan_weights(tmp_path):
    # NaN weights used to evaluate to mse nan and pearson_r 0.0 without an error.
    path = _edited_checkpoint(tmp_path / "m.ckpt", _set_nan)
    with pytest.raises(CheckpointError, match="non-finite"):
        evaluate_checkpoint(path, [DiGraph(2, np.array([[0, 1]]), np.zeros((2, 3)), y=1.0)] * 2)


@pytest.mark.parametrize("task", ["node-regress", "node-classify"])
def test_node_loss_rejects_batch_without_nodes(task):
    graphs = [DiGraph(0, np.zeros((0, 2), np.int64), np.zeros((0, 3)), y=np.zeros(0))] * 2
    cfg = ModelConfig(in_dim=3, task=task, num_classes=2, hidden=4, heads=2, num_layers=1,
                      ssm_state=2, k_hops=1, dropout=0.0)
    params = init_weights(cfg, RngStream(20))
    batch, fwd, rev = _prepared_batch(graphs, cfg)
    out = model_forward(batch, fwd, rev, cfg, params)
    with pytest.raises(ValueError, match=f"{task}.*no nodes"):
        model_loss(out, batch, cfg)


@st.composite
def _small_graph(draw, graph_level):
    n = draw(st.integers(0, 4))
    edges = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))) if n else [])
    x = RngStream(draw(st.integers(0, 1000))).normal(size=(n, 3))
    y = float(x.sum()) if graph_level else x[:, 0].copy()
    return DiGraph(n, np.array(edges, np.int64).reshape(-1, 2), x, y=y)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    graph_level=st.booleans(),
    k=st.integers(0, 2),
    heads=st.sampled_from([1, 2]),
)
def test_degenerate_inputs_forward_backward(data, graph_level, k, heads):
    # n = 0 or 1, no edges (every node dangling), self-loops, k = 0 and
    # single-graph batches, through a bidirectional model and backward().
    graphs = data.draw(st.lists(_small_graph(graph_level), min_size=1, max_size=3))
    if not graph_level and sum(g.num_nodes for g in graphs) == 0:
        graphs.append(DiGraph(1, np.zeros((0, 2), np.int64), np.ones((1, 3)), y=np.ones(1)))
    task = "graph-regress" if graph_level else "node-regress"
    cfg = ModelConfig(in_dim=3, task=task, hidden=4, heads=heads, num_layers=1, se_layers=1,
                      ssm_state=2, k_hops=k, dropout=0.0, bidirectional=True)
    params = init_weights(cfg, RngStream(19))
    batch, fwd, rev = _prepared_batch(graphs, cfg)
    out = model_forward(batch, fwd, rev, cfg, params)
    assert out.shape == ((len(graphs) if graph_level else batch.num_nodes), 1)
    assert np.all(np.isfinite(out.data))
    model_loss(out, batch, cfg).backward()
    for name, t in params.items():
        assert t.grad is not None and t.grad.shape == t.shape and np.all(np.isfinite(t.grad)), name
    # Batch isolation: each graph alone gives its rows of the batched output.
    for i, g in enumerate(graphs):
        alone = model_forward(*_prepared_batch([g], cfg), cfg, params).data
        rows = out.data[i : i + 1] if graph_level else out.data[batch.batch_index == i]
        assert np.abs(rows - alone).max(initial=0.0) <= 1e-9
