"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap row-major float64 numpy arrays. Each operation records its
parents and a closure that maps the incoming gradient to per-parent
gradients; ``backward()`` on a scalar replays the graph in reverse
topological order and accumulates gradients onto leaf tensors with
``requires_grad``.

Graph sparsity is handled by index-based segment operations (sum / mean /
max / softmax keyed by an index vector) rather than sparse matrices.
Elementwise ops broadcast by numpy trailing-axis rules; gradients of
broadcast inputs are reduced back to the input shape. The model only relies
on the patterns (n,d)+(d,), (n,d)*(n,1), (n,1)*(1,), (D,1)*(D,d),
(K+1,1)*(1,D), the fusion's (n,dh,1)+(n,1,C) and (n,dh,C)*(n,1,1), and
scalar ops, all covered by that rule.

The model's hop scan is one op, ``hop_attention_scan``: per-head attention
over each center's (predecessor, hop) pairs, hop-decayed messages summed in
the diagonal SSM state and read out through C. It records a single tape
node whose backward is written out in closed form, instead of the gathers,
broadcasts and segment ops it would otherwise be composed from.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A dense array node in a reverse-mode gradient graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff ------------------------------------------------------------
    def backward(self) -> None:
        """Backpropagate from a scalar; leaf grads accumulate until zeroed."""
        if self.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                key = id(p)
                grads[key] = pg if key not in grads else grads[key] + pg

    # -- operator sugar --------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A non-trainable tensor (gradient sink)."""
    return Tensor(x, requires_grad=False)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = as_tensor(a)
    return _node(
        a.data**p, (a,), lambda g: (g * p * a.data ** (p - 1),)
    )


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


# -- linear algebra and structure ------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return _node(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),)
    )


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    """Permute axes; ``axes`` maps output axis i to input axis axes[i]."""
    a = as_tensor(a)
    inv = np.argsort(axes)
    return _node(
        np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),)
    )


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def gather_rows(a, idx) -> Tensor:
    """Select rows (leading-axis entries) by an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return _node(
        a.data[idx], (a,), lambda g: (_seg_reduce(g, idx, a.shape[0], np.add),)
    )


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[i] for i in axis]))
    else:
        count = a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; ties route the gradient to the first maximum."""
    a = as_tensor(a)
    out = a.data.max(axis=axis, keepdims=True)

    def bwd(g):
        onehot = np.zeros_like(a.data)
        np.put_along_axis(onehot, np.expand_dims(a.data.argmax(axis=axis), axis), 1.0, axis=axis)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (onehot * gg,)

    return _node(out if keepdims else out.squeeze(axis), (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _node(s, (a,), bwd)


# -- segment operations (variable-length groups keyed by an index vector) -------
#
# Reductions go through argsort + ufunc.reduceat rather than np.add.at: the
# index vectors here are large (one entry per k-hop pair) and reduceat is the
# vectorized path. Already-sorted keys (the common case: pairs are emitted
# center-ascending) skip the argsort.


def _group(seg: np.ndarray):
    """(perm, sorted_seg, group_starts, group_ids); perm None if pre-sorted."""
    if seg.size == 0:
        return None, seg, np.zeros(0, np.intp), np.zeros(0, np.int64)
    if np.all(seg[1:] >= seg[:-1]):
        perm, s = None, seg
    else:
        perm = np.argsort(seg, kind="stable")
        s = seg[perm]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1]))).astype(np.intp)
    return perm, s, starts, s[starts]


def _reduce_groups(x: np.ndarray, groups, num: int, ufunc, axis: int = 0) -> np.ndarray:
    """Reduce ``x`` along ``axis`` over the groups of a ``_group`` result."""
    fill = 0.0 if ufunc is np.add else -np.inf
    shape = list(x.shape)
    shape[axis] = num
    out = np.full(shape, fill, dtype=x.dtype)
    if x.shape[axis] == 0:
        return out
    perm, _, starts, ids = groups
    xs = x if perm is None else np.take(x, perm, axis=axis)
    where = [slice(None)] * x.ndim
    where[axis] = ids
    out[tuple(where)] = ufunc.reduceat(xs, starts, axis=axis)
    return out


def _seg_reduce(x: np.ndarray, seg: np.ndarray, num: int, ufunc) -> np.ndarray:
    return _reduce_groups(x, _group(seg), num, ufunc)


def _check_segments(a: Tensor, seg: np.ndarray) -> np.ndarray:
    seg = np.asarray(seg, dtype=np.int64)
    if seg.ndim != 1 or seg.shape[0] != a.shape[0]:
        raise ShapeError(
            f"segment op: index length {seg.shape} does not match rows {a.shape}"
        )
    return seg


def segment_sum(a, seg, num_segments: int) -> Tensor:
    a = as_tensor(a)
    seg = _check_segments(a, seg)
    return _node(
        _seg_reduce(a.data, seg, num_segments, np.add),
        (a,),
        lambda g: (g[seg],),
    )


def segment_mean(a, seg, num_segments: int) -> Tensor:
    a = as_tensor(a)
    seg = _check_segments(a, seg)
    counts = np.bincount(seg, minlength=num_segments).astype(a.data.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (a.ndim - 1))
    return _node(
        _seg_reduce(a.data, seg, num_segments, np.add) / counts,
        (a,),
        lambda g: ((g / counts)[seg],),
    )


def segment_max(a, seg, num_segments: int) -> Tensor:
    """Per-segment elementwise max over rows; empty segments yield 0.

    Ties route the gradient to the earliest row attaining the max: a second
    max-reduction over negated row numbers, with -inf for every row below
    its segment's max, finds that row per segment and feature. The backward
    builds that mask, so a forward-only call never pays for it; zeroing the
    empty segments does not disturb it, since no row belongs to one.
    """
    a = as_tensor(a)
    seg = _check_segments(a, seg)
    out = _seg_reduce(a.data, seg, num_segments, np.maximum)
    out[np.bincount(seg, minlength=num_segments) == 0] = 0.0

    def bwd(g):
        rows = np.arange(a.shape[0], dtype=np.float64).reshape((-1,) + (1,) * (a.ndim - 1))
        neg_rows = np.where(a.data == out[seg], -rows, -np.inf)
        first = -rows == _seg_reduce(neg_rows, seg, num_segments, np.maximum)[seg]
        return (np.where(first, g[seg], 0.0),)

    return _node(out, (a,), bwd)


def segment_softmax(a, seg, num_segments: int) -> Tensor:
    """Softmax normalized within each segment of the leading axis."""
    a = as_tensor(a)
    seg = _check_segments(a, seg)
    mx = _seg_reduce(a.data, seg, num_segments, np.maximum)
    mx = np.where(np.isinf(mx), 0.0, mx)
    e = np.exp(a.data - mx[seg])
    denom = _seg_reduce(e, seg, num_segments, np.add)
    s = e / denom[seg]

    def bwd(g):
        dot = _seg_reduce(g * s, seg, num_segments, np.add)
        return (s * (g - dot[seg]),)

    return _node(s, (a,), bwd)


def hop_attention_scan(q, k, bv, powers, c, pairs, spd, heads: int) -> Tensor:
    """Attention-weighted hop scan in a diagonal state, as one tape node.

    For a pair e = (u, v) of predecessor u and center v at hop distance
    s = spd[e], and head h of width dh = d / heads:

        alpha[h, e] = softmax over the pairs of v of <q_v, k_u>_h / sqrt(dh)
        z[h, :, v]  = sum over the pairs of v of alpha[h, e] * bv_u * powers[s]
        y[v, j, h]  = sum_i c[h*dh + j, i] * z[h, i, v]

    with q, k (n, d), bv (n, D), powers (K+1, D) and c (d, D); returns y,
    shape (n, dh, heads). Per-pair arrays are kept feature-major, (F, E),
    so every segment reduction runs along a contiguous last axis; the
    backward is written out in closed form rather than taped op by op.
    """
    q, k, bv, powers, c = (as_tensor(t) for t in (q, k, bv, powers, c))
    pairs = np.asarray(pairs, dtype=np.int64)
    spd = np.asarray(spd, dtype=np.int64)
    n, d = q.shape
    state = bv.shape[-1]
    if (
        k.shape != (n, d) or bv.shape != (n, state) or c.shape != (d, state)
        or powers.ndim != 2 or powers.shape[1] != state or d % heads
        or pairs.ndim != 2 or pairs.shape[1] != 2 or spd.shape != (pairs.shape[0],)
    ):
        raise ShapeError(
            f"hop_attention_scan: q {q.shape}, k {k.shape}, bv {bv.shape}, "
            f"powers {powers.shape}, c {c.shape}, pairs {pairs.shape}, "
            f"spd {spd.shape}, heads {heads}"
        )
    dh = d // heads
    e = pairs.shape[0]
    scale = 1.0 / np.sqrt(dh)
    u, v = np.ascontiguousarray(pairs.T)
    by_center = _group(v)

    # Gather along the last axis of a contiguous feature-major table. take()
    # keeps the pair axis contiguous; fancy indexing ``t[:, idx]`` would
    # return a transposed layout with the pair axis strided.
    def at(table, idx):
        return np.ascontiguousarray(table).take(idx, axis=-1)

    qg, kg = at(q.data.T, v), at(k.data.T, u)  # (d, E)
    scores = (qg * kg).reshape(heads, dh, e).sum(axis=1) * scale  # (heads, E)
    ex = np.exp(scores - at(_reduce_groups(scores, by_center, n, np.maximum, axis=1), v))
    alpha = ex / at(_reduce_groups(ex, by_center, n, np.add, axis=1), v)
    bvg, pg = at(bv.data.T, u), at(powers.data.T, spd)  # (D, E)
    m = bvg * pg
    z = _reduce_groups(alpha[:, None, :] * m, by_center, n, np.add, axis=2)  # (heads, D, n)
    c_heads = c.data.reshape(heads, dh, state)
    y = np.einsum("hsn,hjs->nhj", z, c_heads)

    def bwd(g):
        gy = g.transpose(0, 2, 1)  # (n, heads, dh)
        gz = np.einsum("nhj,hjs->hsn", gy, c_heads)
        gc = np.einsum("nhj,hsn->hjs", gy, z).reshape(d, state)
        gzv = at(gz, v)  # (heads, D, E)
        galpha = np.einsum("hse,se->he", gzv, m)
        gm = np.einsum("he,hse->se", alpha, gzv)
        dot = _reduce_groups(galpha * alpha, by_center, n, np.add, axis=1)
        gscores = (alpha * (galpha - at(dot, v)) * scale)[:, None, :]  # (heads, 1, E)
        gq = _reduce_groups(
            (gscores * kg.reshape(heads, dh, e)).reshape(d, e), by_center, n, np.add, axis=1
        )

        # Keyed by predecessor and by hop, the keys are unsorted: bincount
        # each feature row rather than argsort and permute the pairs.
        def keyed_sum(key, num, rows):
            return np.stack([np.bincount(key, weights=r, minlength=num) for r in rows])

        by_pred = keyed_sum(u, n, np.concatenate([
            (gscores * qg.reshape(heads, dh, e)).reshape(d, e), gm * pg,
        ]))  # (d + D, n)
        gpowers = keyed_sum(spd, powers.shape[0], gm * bvg)
        return gq.T, by_pred[:d].T, by_pred[d:].T, gpowers.T, gc

    return _node(y.transpose(0, 2, 1), (q, k, bv, powers, c), bwd)


# -- normalization, convolution, dropout ----------------------------------------


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs features {a.shape}"
        )
    mu = mean(a, axis=-1, keepdims=True)
    centered = sub(a, mu)
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def conv_same(x, w, b) -> Tensor:
    """Zero-padded "same" convolution over any number of spatial axes.

    x (B, C_in, *S) * w (C_out, C_in, *K) + b (C_out,) -> (B, C_out, *S),
    every K odd. The kernel is laid out as the banded (C_in |S|, C_out |S|)
    matrix it spans, so the forward is one matmul and the backward two,
    plus one bincount per (C_out, C_in) pair to sum the matrix gradient
    back onto the taps.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    spatial, kernel = x.shape[2:], w.shape[2:]
    if (
        x.ndim < 3 or w.ndim != x.ndim or x.shape[1] != w.shape[1]
        or b.shape != w.shape[:1] or any(k % 2 == 0 for k in kernel)
    ):
        raise ShapeError(f"conv_same: x {x.shape}, w {w.shape}, b {b.shape}")
    batch, c_in = x.shape[:2]
    c_out = w.shape[0]
    size, taps = int(np.prod(spatial)), int(np.prod(kernel))
    # tap[i, o]: the flat kernel tap joining input position i to output
    # position o, or ``taps`` (a zero weight) where the kernel misses i.
    k = np.array(kernel).reshape(-1, 1, 1)
    pos = np.indices(spatial).reshape(len(spatial), size)
    off = pos[:, :, None] - pos[:, None, :] + k // 2  # (axes, |S|, |S|)
    inside = ((off >= 0) & (off < k)).all(axis=0)
    tap = np.where(inside, np.ravel_multi_index(off, kernel, mode="clip"), taps)
    w_taps = np.pad(w.data.reshape(c_out, c_in, taps), ((0, 0), (0, 0), (0, 1)))
    band = w_taps[:, :, tap].transpose(1, 2, 0, 3).reshape(c_in * size, c_out * size)
    x2 = x.data.reshape(batch, c_in * size)
    out = (x2 @ band).reshape(batch, c_out, size) + b.data[:, None]

    def bwd(g):
        g2 = g.reshape(batch, c_out * size)
        g_band = (x2.T @ g2).reshape(c_in, size, c_out, size).transpose(2, 0, 1, 3)
        gw = np.stack([
            np.bincount(tap.ravel(), weights=row.ravel(), minlength=taps + 1)[:taps]
            for row in g_band.reshape(c_out * c_in, size, size)
        ])
        gb = g.reshape(batch, c_out, size).sum(axis=(0, 2))
        return (g2 @ band.T).reshape(x.shape), gw.reshape(w.shape), gb

    return _node(out.reshape((batch, c_out) + spatial), (x, w, b), bwd)


def dropout(a, p: float, train: bool, stream: RngStream | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = as_tensor(a)
    if not train or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if stream is None:
        raise ValueError("dropout: an RngStream is required in train mode")
    mask = (stream.uniform(size=a.shape) >= p) / (1.0 - p)
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


# -- losses ----------------------------------------------------------------------


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over all entries."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: {pred.shape} vs {target.shape}")
    diff = sub(pred, target)
    return mean(mul(diff, diff))


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs labels {labels.shape}"
        )
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logprob = z - logsumexp
    loss = -logprob[np.arange(n), labels].mean()

    def bwd(g):
        grad = np.exp(logprob)
        grad[np.arange(n), labels] -= 1.0
        return (g * grad / n,)

    return _node(np.asarray(loss), (logits,), bwd)


class ParameterSet:
    """Named trainable tensors with a stable iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t.requires_grad = True
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.size for t in self._params.values())
