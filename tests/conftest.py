from math import prod

import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.graphs import DiGraph
from dgssm.rng import RngStream


def make_random_digraph(seed: int, max_nodes: int = 25, feat_dim: int = 3) -> DiGraph:
    stream = RngStream(seed)
    n = int(stream.integers(2, max_nodes + 1))
    p = float(stream.uniform(0.05, 0.3))
    mask = stream.uniform(size=(n, n)) < p
    np.fill_diagonal(mask, False)
    return DiGraph(n, np.argwhere(mask), stream.normal(size=(n, feat_dim)))


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
    band = ad.matmul(ad.reshape(w, (c_in, taps)), ad.constant(onehot.reshape(taps, -1)))
    return ad.add(ad.matmul(ad.reshape(x, (batch, -1)), ad.reshape(band, (c_in * size, size))), b)


def fusion_composition(x, pagerank, batch_index, num_graphs, w) -> ad.Tensor:
    """The fusion block composed of autodiff ops node by node, as the model
    ran it before the block became one op: Z-pools of a first-max and a
    mean, three convolutions, three sigmoids, and the per-graph softmax,
    max and mean through the segment ops."""
    n, dh, c = x.shape

    def zpool(axis):
        shape = (n, 1, x.shape[3 - axis])
        return ad.concat([_first_max(x, axis).reshape(shape), ad.mean(x, axis=axis).reshape(shape)], axis=1)

    gate_nd = ad.sigmoid(_conv_ops(zpool(2), w.nd_w, w.nd_b)).reshape(n, dh, 1)
    gate_nc = ad.sigmoid(_conv_ops(zpool(1), w.nc_w, w.nc_b)).reshape(n, 1, c)
    logits = ad.add(ad.mul(ad.constant(pagerank.reshape(-1, 1)), w.pr_w), w.pr_b)
    xw = ad.mul(x, ad.segment_softmax(logits, batch_index, num_graphs).reshape(n, 1, 1))
    pooled = ad.concat([
        ad.segment_max(xw, batch_index, num_graphs).reshape(num_graphs, 1, dh, c),
        ad.segment_mean(xw, batch_index, num_graphs).reshape(num_graphs, 1, dh, c),
    ], axis=1)
    gate_dc = ad.sigmoid(_conv_ops(pooled, w.dc_w, w.dc_b)).reshape(num_graphs, dh, c)
    gates = ad.add(ad.add(gate_nd, gate_nc), ad.gather_rows(gate_dc, batch_index))
    return ad.mul(ad.mul(x, gates), 1.0 / 3.0)


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
