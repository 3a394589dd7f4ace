import numpy as np
import pytest

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
