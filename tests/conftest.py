from math import prod

import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.algos import INF_HOPS, PreprocessArtifacts, depth_plus, k_hop_predecessors, pagerank
from dgssm.graphs import DiGraph
from dgssm.optim import GradCheckReport, grad_check_params
from dgssm.rng import RngStream
from dgssm.ssm import s4d_table


def make_random_digraph(seed: int, max_nodes: int = 25, feat_dim: int = 3) -> DiGraph:
    stream = RngStream(seed)
    n = int(stream.integers(2, max_nodes + 1))
    p = float(stream.uniform(0.05, 0.3))
    mask = stream.uniform(size=(n, n)) < p
    np.fill_diagonal(mask, False)
    return DiGraph(n, np.argwhere(mask), stream.normal(size=(n, feat_dim)))


def compute_artifacts(g: DiGraph, k) -> PreprocessArtifacts:
    """Depth, PageRank and bounded-hop predecessor pairs of one graph, each
    computed on the graph alone: the per-graph reference for
    ``compute_batch_artifacts``."""
    pairs, spd = k_hop_predecessors(g, k)
    return PreprocessArtifacts(depth_plus(g), pagerank(g), pairs, spd, k if k == INF_HOPS else int(k))


def ssm_params(state: int, width: int, dt_min: float, dt_max: float,
               seed: int | RngStream) -> ad.ParameterSet:
    """Standalone S4D weights under the prefix "ssm", drawn as the model
    draws a block's: ``s4d_table``'s rows from ``seed``'s stream, in order."""
    stream = seed if isinstance(seed, RngStream) else RngStream(seed)
    return ad.ParameterSet((f"ssm.{name}", stream.draw(init, shape))
                           for name, shape, init in s4d_table(state, width, dt_min, dt_max))


def conv_same_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The textbook "same" convolution of x (B, C_in, *S) by w (C_out, C_in,
    *K) plus b: a loop over kernel taps on a zero-padded input."""
    spatial, kernel = x.shape[2:], w.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(k // 2, k // 2) for k in kernel])
    out = np.zeros((x.shape[0], w.shape[0]) + spatial) + b.reshape((1, -1) + (1,) * len(spatial))
    for tap in np.ndindex(*kernel):
        window = xp[(slice(None), slice(None)) + tuple(slice(t, t + s) for t, s in zip(tap, spatial))]
        out += np.einsum("bc...,oc->bo...", window, w[(slice(None), slice(None)) + tap])
    return out


# Ops that no model path runs, built on ad._node like the library's own: the
# test compositions below use them, and test_autodiff checks them.


def exp(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = np.exp(a.data)
    return ad._node(out_data, (a,), lambda g: (g * out_data,))


def sum_(a, axis=None, keepdims: bool = False) -> ad.Tensor:
    a = ad.as_tensor(a)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return ad._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def softmax(a, axis: int = -1) -> ad.Tensor:
    a = ad.as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return ad._node(s, (a,), bwd)


def reshape(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    return ad._node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes: tuple[int, ...]) -> ad.Tensor:
    """Permute axes; ``axes`` maps output axis i to input axis axes[i]."""
    a = ad.as_tensor(a)
    inv = np.argsort(axes)
    return ad._node(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def grad_check(f, x: ad.Tensor, eps: float = 1e-4, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar ``f(x)`` with central differences."""
    return grad_check_params(lambda: f(x), ad.ParameterSet([("x", x)]), eps, tol)


def _first_max(t: ad.Tensor, axis: int) -> ad.Tensor:
    """Max over ``axis`` as a tape node that routes the gradient to the first
    maximum."""
    def bwd(g):
        onehot = np.zeros_like(t.data)
        np.put_along_axis(onehot, np.expand_dims(t.data.argmax(axis=axis), axis), 1.0, axis=axis)
        return (onehot * np.expand_dims(g, axis),)

    return ad._node(t.data.max(axis=axis), (t,), bwd)


def _conv_ops(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """conv_same_reference of x (B, C_in, *S) by w (1, C_in, *K) plus b,
    composed of autodiff ops, flattened to (B, |S|). The kernel's taps times
    a one-hot map, read off the reference's response to a unit kernel and a
    unit input, give the band matrix; one matmul applies it."""
    batch, c_in, *spatial = x.shape
    kernel = w.shape[2:]
    size, taps = prod(spatial), prod(kernel)
    onehot = np.zeros((taps, size, size))
    for t in range(taps):
        for i in range(size):
            onehot[t, i] = conv_same_reference(
                np.eye(size)[i].reshape([1, 1] + spatial),
                np.eye(taps)[t].reshape((1, 1) + kernel),
                np.zeros(1),
            ).ravel()
    band = ad.matmul(reshape(w, (c_in, taps)), ad.constant(onehot.reshape(taps, -1)))
    return ad.add(ad.matmul(reshape(x, (batch, -1)), reshape(band, (c_in * size, size))), b)


def fusion_composition(x, pagerank, batch_index, num_graphs, params, prefix, heads) -> ad.Tensor:
    """The fusion block composed of autodiff ops node by node, as the model
    ran it before the block became one op: Z-pools of a first-max and a
    mean, three convolutions, three sigmoids, and the per-graph softmax,
    max and mean through the segment ops, on x (n, d) read as (n, dh, heads).
    The weights are read from ``params`` by prefix, as the model's block
    reads them."""
    n, d = x.shape
    dh, c = d // heads, heads
    x = transpose(reshape(x, (n, c, dh)), (0, 2, 1))  # (n, dh, C)
    w = lambda name: params[f"{prefix}.{name}"]

    def zpool(axis):
        shape = (n, 1, x.shape[3 - axis])
        return ad.concat([reshape(_first_max(x, axis), shape), reshape(ad.mul(sum_(x, axis=axis), 1.0 / x.shape[axis]), shape)], axis=1)

    gate_nd = reshape(ad.sigmoid(_conv_ops(zpool(2), w("nd.w"), w("nd.b"))), (n, dh, 1))
    gate_nc = reshape(ad.sigmoid(_conv_ops(zpool(1), w("nc.w"), w("nc.b"))), (n, 1, c))
    logits = ad.add(ad.mul(ad.constant(pagerank.reshape(-1, 1)), w("pr.w")), w("pr.b"))
    xw = ad.mul(x, reshape(ad.segment_softmax(logits, batch_index, num_graphs), (n, 1, 1)))
    pooled = ad.concat([
        reshape(ad.segment_max(xw, batch_index, num_graphs), (num_graphs, 1, dh, c)),
        reshape(ad.segment_mean(xw, batch_index, num_graphs), (num_graphs, 1, dh, c)),
    ], axis=1)
    gate_dc = reshape(ad.sigmoid(_conv_ops(pooled, w("dc.w"), w("dc.b"))), (num_graphs, dh, c))
    gates = ad.add(ad.add(gate_nd, gate_nc), ad.gather_rows(gate_dc, batch_index))
    return reshape(transpose(ad.mul(ad.mul(x, gates), 1.0 / 3.0), (0, 2, 1)), (n, d))


def scan_composition(fx, wq, wk, wv, a_log, log_dt, b, c, pairs, spd, heads: int) -> ad.Tensor:
    """hop_attention_scan composed of autodiff ops node by node: the ZOH as
    coef = (a_bar - 1) * (-exp(-a_log)), per-pair gathers, a per-head
    segment softmax, the hop power a_bar^s as exp(s * dt * a), a segment
    sum of the weighted messages and a per-head readout through C into the
    head's column block of the (n, d) output."""
    n = fx.shape[0]
    d, state = c.shape
    dh = d // heads
    u, v = pairs[:, 0], pairs[:, 1]
    dt_a = ad.mul(exp(log_dt), ad.mul(exp(a_log), -1.0))
    coef = ad.mul(ad.add(exp(dt_a), -1.0), ad.mul(exp(ad.mul(a_log, -1.0)), -1.0))
    b_bar = ad.mul(b, reshape(coef, (state, 1)))
    bv = ad.matmul(ad.matmul(fx, wv), transpose(b_bar, (1, 0)))  # (n, D)
    qk = ad.mul(ad.gather_rows(ad.matmul(fx, wq), v), ad.gather_rows(ad.matmul(fx, wk), u))
    head_of = np.repeat(np.eye(heads), dh, axis=0) / np.sqrt(dh)  # (d, heads)
    alpha = ad.segment_softmax(ad.matmul(qk, ad.constant(head_of)), v, n)  # (E, heads)
    hop_power = exp(ad.mul(ad.constant(spd.reshape(-1, 1).astype(float)), reshape(dt_a, (1, state))))
    m = ad.mul(ad.gather_rows(bv, u), hop_power)  # (E, D)
    weighted = ad.mul(reshape(alpha, (-1, heads, 1)), reshape(m, (-1, 1, state)))
    z = transpose(ad.segment_sum(weighted, v, n), (1, 0, 2))  # (heads, n, D)
    c_heads = reshape(c, (heads, dh, state))
    return ad.concat([
        ad.matmul(reshape(ad.gather_rows(z, [h]), (n, state)),
                  transpose(reshape(ad.gather_rows(c_heads, [h]), (dh, state)), (1, 0)))
        for h in range(heads)
    ], axis=1)


def layer_norm_reference(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer norm over the last axis, composed step by step: mean, center,
    variance, scale by (var + eps)^-1/2, then gain and bias."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gain + bias


@pytest.fixture
def chain3() -> DiGraph:
    return DiGraph(3, np.array([[0, 1], [1, 2]]), np.arange(6, dtype=float).reshape(3, 2))
