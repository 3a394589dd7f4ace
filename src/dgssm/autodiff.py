"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap row-major float64 numpy arrays. Each operation records its
parents and a closure that maps the incoming gradient to per-parent
gradients; ``backward()`` on a scalar accumulates gradients onto leaf
tensors with ``requires_grad``. Every tensor is numbered as it is created,
and an op's output is always newer than its inputs, so the tape is a
Wengert list: ``backward()`` replays the nodes that carry a gradient
newest first, and each node runs once all of its consumers have.

Recording is on by default. Inside ``with no_grad():`` every op returns a
plain tensor with no parents and no closure, so a forward-only pass keeps
no op's saved arrays alive past its consumers (the idiom of
``torch.no_grad``); the arithmetic, and so every output, is the same. The
flag is module-global, not per thread. A recorded graph keeps every closure,
and the forward arrays it holds, until its last tensor is dropped, so
``backward()`` may run over one graph more than once; leaf gradients
accumulate until zeroed. Dropping each closure as soon as backward has run
it lowered peak memory but made training steps slower
(``BENCH_no-grad.json``), so it is not done.

Graph sparsity is handled by index-based segment operations (sum / mean /
max / softmax keyed by an index vector) rather than sparse matrices. A keyed
sum is one flat bincount; every other grouped reduction, in the segment ops
and the fused ops alike, goes through one reduceat path, with one softmax
within groups and one rule that routes a max's gradient to the earliest
entry at the max; an empty group reduces to 0.
Elementwise ops broadcast by numpy trailing-axis rules; gradients of
broadcast inputs are reduced back to the input shape. The model only relies
on the pattern (n,d)+(d,) and scalar ops, both covered by that rule.

Two of the model's blocks are fused ops. Each records a single tape node
whose backward is written out in closed form, instead of the gathers,
broadcasts, pools and segment ops it would otherwise be composed from:

- ``hop_attention_scan``: the q/k/v projections, the zero-order-hold
  discretization of the diagonal SSM, per-head attention over each center's
  (predecessor, hop) pairs, and hop-decayed messages summed in the SSM
  state and read out through C;
- ``cross_axis_fusion``: the fusion block's three sigmoid gates over Z-pools
  of the head and feature axes and a PageRank-weighted pool per graph, each
  a banded-matmul convolution.

The two losses, ``mse_loss`` and ``cross_entropy``, are one closed-form node
each as well.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math

import numpy as np

from .rng import RngStream


_created = itertools.count()
_recording = True  # read by _node; switched off by no_grad()


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; restores the previous state on exit."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """A dense array node in a reverse-mode gradient graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = next(_created)  # creation order: parents precede children

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

    # -- autodiff ------------------------------------------------------------
    def backward(self) -> None:
        """Backpropagate from a scalar; leaf grads accumulate until zeroed."""
        if self.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            return
        grads = {self: np.ones_like(self.data)}
        pending = [(-self._seq, self)]
        while pending:
            node = heapq.heappop(pending)[1]
            g = grads.pop(node)
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                if p in grads:
                    grads[p] = grads[p] + pg
                else:
                    grads[p] = pg
                    heapq.heappush(pending, (-p._seq, p))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A non-trainable tensor (gradient sink)."""
    return Tensor(x, requires_grad=False)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
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
    idx = _check_ids("gather_rows", idx, a.shape[0])
    return _node(
        a.data[idx], (a,), lambda g: (_seg_reduce(g, idx, a.shape[0]),)
    )


# -- segment operations (variable-length groups keyed by an index vector) -------
#
# A keyed sum over the leading axis is one np.bincount over flattened
# (key * width + column) ids. Edge keys give about one row per segment, where
# ufunc.reduceat pays per segment and per column: on a 2-vCPU host, a
# (1088, 32) sum keyed by edge targets took 640 us by argsort + reduceat and
# 150 us by bincount. Every other grouped reduction (maxima, softmax, and the
# fused ops' sums over few long segments sorted by center or graph) goes
# through _group + reduceat: the scan's feature-major (32, 19832) sum into
# 960 centers took 610 us that way and 2.5 ms by bincount, and the fusion's
# (737, 8, 4) sum into 32 graphs 48 us against 79 us. Already-sorted keys
# (pairs are emitted center-ascending) skip the argsort. Either way a key's
# reduction reads only that key's rows, so it does not depend on the rows of
# any other key, and an empty group reduces to 0.


def _group(seg: np.ndarray):
    """(perm, group_starts, group_ids) of ids >= 0; perm None if pre-sorted."""
    perm = None if np.all(seg[1:] >= seg[:-1]) else np.argsort(seg, kind="stable")
    s = seg if perm is None else seg[perm]
    starts = np.flatnonzero(np.concatenate((s[:1] >= 0, s[1:] != s[:-1])))
    return perm, starts, s[starts]


def _reduce_groups(x: np.ndarray, groups, num: int, ufunc, axis: int = 0) -> np.ndarray:
    """Reduce ``x`` along ``axis`` over the groups of a ``_group`` result;
    an empty group gives 0."""
    out = np.zeros(x.shape[:axis] + (num,) + x.shape[axis + 1:], dtype=x.dtype)
    perm, starts, ids = groups
    if ids.size:
        xs = x if perm is None else np.take(x, perm, axis=axis)
        out[(slice(None),) * axis + (ids,)] = ufunc.reduceat(xs, starts, axis=axis)
    return out


def _softmax_in_groups(x: np.ndarray, groups, num: int, at, axis: int = 0):
    """Softmax of ``x`` within groups along ``axis``, and the map from its
    gradient to x's; ``at`` gathers a per-group table back onto x."""
    ex = np.exp(x - at(_reduce_groups(x, groups, num, np.maximum, axis)))
    s = ex / at(_reduce_groups(ex, groups, num, np.add, axis))
    return s, lambda g: s * (g - at(_reduce_groups(g * s, groups, num, np.add, axis)))


def _first_at_max(x: np.ndarray, mx: np.ndarray, groups, num: int, at, axis: int = 0) -> np.ndarray:
    """Where ``x`` first reaches its group's max ``mx`` along ``axis``: a
    second max over negated positions, -inf for every entry below the max."""
    neg = -np.arange(x.shape[axis], dtype=np.float64).reshape((-1,) + (1,) * (x.ndim - 1 - axis))
    first_at = _reduce_groups(np.where(x == at(mx), neg, -np.inf), groups, num, np.maximum, axis)
    return neg == at(first_at)


def _seg_reduce(x: np.ndarray, seg: np.ndarray, num: int) -> np.ndarray:
    """Sum the rows of ``x`` keyed by ``seg``, ids already in [0, num)."""
    width = math.prod(x.shape[1:])
    keys = (seg[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(keys, weights=x.ravel(), minlength=num * width)
    return out.reshape((num, *x.shape[1:]))


def _int_ids(op: str, ids, what: str = "ids") -> np.ndarray:
    """``ids`` as an int64 array; a ShapeError naming ``op`` if one is not a
    whole number, which a cast would otherwise truncate to a valid id."""
    raw = np.asarray(ids)
    if raw.dtype.kind not in "biu" and (
        raw.dtype.kind != "f" or not np.isfinite(raw).all() or (raw % 1).any()
    ):
        raise ShapeError(f"{op}: {what} must be integers, got non-integer {raw.dtype} values")
    return raw.astype(np.int64)


def _check_ids(op: str, ids, num: int) -> np.ndarray:
    """``ids`` as a 1-D int64 array; a ShapeError naming ``op`` if one is
    not an integer or is outside [0, num)."""
    ids = _int_ids(op, ids)
    if ids.ndim != 1:
        raise ShapeError(f"{op}: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= num):
        raise ShapeError(f"{op}: ids span [{ids.min()}, {ids.max()}], outside [0, {num})")
    return ids


def _check_segments(op: str, a: Tensor, seg, num_segments: int) -> np.ndarray:
    seg = _check_ids(op, seg, num_segments)
    if seg.shape[0] != a.shape[0]:
        raise ShapeError(f"{op}: index length {seg.shape} does not match rows {a.shape}")
    return seg


def segment_sum(a, seg, num_segments: int) -> Tensor:
    a = as_tensor(a)
    seg = _check_segments("segment_sum", a, seg, num_segments)
    return _node(
        _seg_reduce(a.data, seg, num_segments),
        (a,),
        lambda g: (g[seg],),
    )


def segment_mean(a, seg, num_segments: int) -> Tensor:
    a = as_tensor(a)
    seg = _check_segments("segment_mean", a, seg, num_segments)
    counts = np.bincount(seg, minlength=num_segments).astype(a.data.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (a.ndim - 1))
    return _node(
        _seg_reduce(a.data, seg, num_segments) / counts,
        (a,),
        lambda g: ((g / counts)[seg],),
    )


def segment_max(a, seg, num_segments: int) -> Tensor:
    """Per-segment elementwise max over rows; an empty segment yields 0.

    Ties route the gradient to the earliest row attaining the max, per
    segment and feature (``_first_at_max``, which the fusion's graph max
    shares). The backward builds that mask, so a forward-only call never
    pays for it.
    """
    a = as_tensor(a)
    seg = _check_segments("segment_max", a, seg, num_segments)
    groups, at = _group(seg), lambda t: t[seg]
    out = _reduce_groups(a.data, groups, num_segments, np.maximum)

    def bwd(g):
        first = _first_at_max(a.data, out, groups, num_segments, at)
        return (np.where(first, g[seg], 0.0),)

    return _node(out, (a,), bwd)


def segment_softmax(a, seg, num_segments: int) -> Tensor:
    """Softmax normalized within each segment of the leading axis."""
    a = as_tensor(a)
    seg = _check_segments("segment_softmax", a, seg, num_segments)
    s, grad = _softmax_in_groups(a.data, _group(seg), num_segments, lambda t: t[seg])
    return _node(s, (a,), lambda g: (grad(g),))


def hop_attention_scan(fx, wq, wk, wv, a_log, log_dt, b, c, pairs, spd, heads: int) -> Tensor:
    """The whole attention-weighted hop scan in a diagonal state, as one tape node.

    The SSM is discretized by zero-order hold, a = -exp(a_log),
    dt = exp(log_dt), a_bar = exp(dt a), b_bar = (a_bar - 1) / a * b, and
    every message is projected into the state once, bv = (fx wv) b_bar^T.
    For a pair e = (u, v) of predecessor u and center v at hop distance
    s = spd[e], and head h of width dh = d / heads:

        alpha[h, e] = softmax over the pairs of v of <q_v, k_u>_h / sqrt(dh)
        z[h, :, v]  = sum over the pairs of v of alpha[h, e] * bv_u * a_bar^s
        y[v, h*dh + j] = sum_i c[h*dh + j, i] * z[h, i, v]

    with q = fx wq, k = fx wk, fx (n, d_in), wq, wk, wv (d_in, d), a_log and
    log_dt (D,), b (D, d) and c (d, D); returns y, shape (n, d), as the
    F-ordered view of a C-contiguous (d, n) array, which a matmul reads
    without a copy. The pairs must be sorted by center: a center-keyed table
    is gathered by np.repeat over per-center counts. The power table
    exp(s log a_bar) has a column per hop up to max(spd); through it, a
    message m = bv_u a_bar^s with gradient gm adds gm m s to the gradient of
    dt a. Per-node tables are feature-major, (F, n), the projections being
    w^T fx^T, and so are per-pair arrays, (F, E), so each gather and segment
    reduction runs along a contiguous last axis; the backward is written out
    in closed form.
    """
    fx, wq, wk, wv, a_log, log_dt, b, c = map(as_tensor, (fx, wq, wk, wv, a_log, log_dt, b, c))
    pairs = _int_ids("hop_attention_scan", pairs, "pairs")
    spd = _int_ids("hop_attention_scan", spd, "spd")
    d, state = c.shape if c.ndim == 2 else (-1, -1)
    if (
        d < 0 or fx.ndim != 2 or any(w.shape != (fx.shape[1], d) for w in (wq, wk, wv))
        or a_log.shape != (state,) or log_dt.shape != (state,) or b.shape != (state, d)
        or heads < 1 or d % heads
        or pairs.ndim != 2 or pairs.shape[1] != 2 or spd.shape != (pairs.shape[0],)
        or pairs.size and (pairs.min() < 0 or pairs.max() >= fx.shape[0] or spd.min() < 0)
    ):
        raise ShapeError(
            f"hop_attention_scan: fx {fx.shape}, wq/wk/wv {wq.shape}/{wk.shape}/{wv.shape}, "
            f"a_log {a_log.shape}, log_dt {log_dt.shape}, b {b.shape}, c {c.shape}, "
            f"pairs {pairs.shape} (ids in [0, n)), spd {spd.shape} (>= 0), heads {heads}"
        )
    n, e, dh = fx.shape[0], pairs.shape[0], d // heads
    scale = 1.0 / np.sqrt(dh)
    u, v = np.ascontiguousarray(pairs.T)
    by_center, counts = _group(v), np.bincount(v, minlength=n)
    if by_center[0] is not None:
        raise ShapeError("hop_attention_scan: pairs are not sorted by center (column 1)")

    a = -np.exp(a_log.data)
    dt = np.exp(log_dt.data)
    a_bar = np.exp(dt * a)
    coef = (a_bar - 1.0) / a
    b_bar = coef.reshape(-1, 1) * b.data
    powers = np.exp(np.log(a_bar)[:, None] * np.arange(spd.max(initial=0) + 1.0))  # (D, K+1)
    xv = wv.data.T @ fx.data.T  # (d, n)
    bv = b_bar @ xv  # (D, n)

    # Gathers along the pair axis: each center's pairs are one run. Every
    # table is computed feature-major and C-contiguous, (F, n), so take()
    # keeps the pair axis contiguous, where t[:, idx] would not.
    at_center = functools.partial(np.repeat, repeats=counts, axis=-1)

    qh = at_center(wq.data.T @ fx.data.T).reshape(heads, dh, e)  # (heads, dh, E)
    kh = (wk.data.T @ fx.data.T).take(u, axis=-1).reshape(heads, dh, e)
    scores = np.einsum("hje,hje->he", qh, kh) * scale  # (heads, E)
    alpha, alpha_grad = _softmax_in_groups(scores, by_center, n, at_center, axis=1)
    bvg, pg = bv.take(u, axis=-1), powers.take(spd, axis=-1)  # (D, E)
    m = bvg * pg
    z = _reduce_groups(alpha[:, None, :] * m, by_center, n, np.add, axis=2)  # (heads, D, n)
    c_heads = c.data.reshape(heads, dh, state)
    y = np.matmul(c_heads, z)  # (heads, dh, n)

    def bwd(g):
        gy = g.T.reshape(heads, dh, n)
        gz = np.matmul(c_heads.transpose(0, 2, 1), gy)  # (heads, D, n)
        gc = np.matmul(gy, z.transpose(0, 2, 1)).reshape(d, state)
        gzv = at_center(gz)  # (heads, D, E)
        galpha = np.einsum("hse,se->he", gzv, m)
        gm = np.einsum("he,hse->se", alpha, gzv)
        gscores = (alpha_grad(galpha) * scale)[:, None, :]  # (heads, 1, E)
        gq = _reduce_groups((gscores * kh).reshape(d, e), by_center, n, np.add, axis=1)

        # Keyed by predecessor, unsorted: a bincount per row of one buffer.
        rows = np.empty((d + state, e))
        np.multiply(gscores, qh, out=rows[:d].reshape(heads, dh, e))
        np.multiply(gm, pg, out=rows[d:])
        by_pred = np.stack([np.bincount(u, weights=r, minlength=n) for r in rows])  # (d + D, n)

        # Through bv = (fx wv) b_bar^T, the projections and the ZOH, where
        # d a_bar / d(dt a) = a_bar, d coef / d a_bar = 1 / a, and the hop
        # powers a_bar^s = exp(s dt a) add sum_e gm bvg s a_bar^s = sum_e gm m s.
        gk, gbv = by_pred[:d].T, by_pred[d:].T
        gxv = gbv @ b_bar
        gb_bar = gbv.T @ xv.T  # (D, d)
        gcoef = (gb_bar * b.data).sum(axis=1)
        gda = gcoef * a_bar / a + np.einsum("se,se,e->s", gm, m, spd)
        gfx = gq.T @ wq.data.T + gk @ wk.data.T + gxv @ wv.data.T
        g_log_dt = gda * dt * a
        return (gfx, fx.data.T @ gq.T, fx.data.T @ gk, fx.data.T @ gxv,
                g_log_dt - gcoef * coef, g_log_dt, coef.reshape(-1, 1) * gb_bar, gc)

    return _node(y.reshape(d, n).T, (fx, wq, wk, wv, a_log, log_dt, b, c), bwd)


def _zpool_grad(x: np.ndarray, mx: np.ndarray, g_max, g_mean, axis: int) -> np.ndarray:
    """Gradient with respect to x of a Z-pool of x along ``axis``: every
    entry gets ``g_mean`` (already divided by the axis length), and the first
    entry along the axis reaching the max ``mx`` also gets ``g_max``; later
    ties get nothing."""
    hits = np.moveaxis(x, axis, 0) == mx
    seen = hits[0].copy()
    for h in hits[1:]:
        h &= ~seen
        seen |= h
    return np.moveaxis(np.where(hits, g_max + g_mean, g_mean), 0, axis)


@functools.lru_cache(maxsize=16)
def _tap_map(kernel: tuple[int, ...], spatial: tuple[int, ...]) -> np.ndarray:
    """The (prod(kernel), |S| |S|) one-hot matrix whose row t marks the flat
    (input i, output o) positions that the flat kernel tap t joins in a
    zero-padded "same" convolution. Read-only, as every call shares it."""
    k = np.array(kernel).reshape(-1, 1, 1)
    size = math.prod(spatial)
    pos = np.indices(spatial).reshape(len(spatial), size)
    off = pos[:, :, None] - pos[:, None, :] + k // 2  # (axes, |S|, |S|)
    inside = ((off >= 0) & (off < k)).all(axis=0)
    tap = np.ravel_multi_index(off, kernel, mode="clip")
    onehot = (inside & (tap == np.arange(math.prod(kernel)).reshape(-1, 1, 1))).astype(np.float64)
    onehot = onehot.reshape(-1, size * size)
    onehot.flags.writeable = False
    return onehot


def _conv_band(w: np.ndarray, spatial: tuple[int, ...]):
    """A zero-padded "same" convolution by w (C_out, C_in, *K), every K odd,
    over the spatial shape S, as the banded (C_in |S|, C_out |S|) matrix it
    spans: a (B, C_in |S|) input times the matrix is the (B, C_out |S|)
    output. The matrix is w's taps times the one-hot tap map. Returns it and
    ``fold``, which sums a gradient with respect to the matrix back onto w's
    taps with the map's transpose."""
    c_out, c_in, *kernel = w.shape
    onehot = _tap_map(tuple(kernel), tuple(spatial))
    size = math.prod(spatial)
    band = (w.reshape(c_out * c_in, -1) @ onehot).reshape(c_out, c_in, size, size)
    band = band.transpose(1, 2, 0, 3).reshape(c_in * size, c_out * size)

    def fold(g_band):
        rows = g_band.reshape(c_in, size, c_out, size).transpose(2, 0, 1, 3)
        return (rows.reshape(c_out * c_in, size * size) @ onehot.T).reshape(w.shape)

    return band, fold


def cross_axis_fusion(
    x, pagerank, batch_index, num_graphs: int, nd_w, nd_b, nc_w, nc_b, dc_w, dc_b, pr_w, pr_b,
    heads: int,
) -> Tensor:
    """Cross-axis fusion attention over x (n, d), as one tape node.

    x holds C = ``heads`` heads of width dh = d / C, column h*dh + j holding
    feature j of head h, as the scan writes it; below, x[v] is node v's
    (dh, C) block. Three sigmoid gates recalibrate x, each a "same"
    convolution of a max-and-mean pool (the Z-pool of triplet attention,
    Misra et al., arXiv 2010.03045):

        g_nd (n, dh)    = sigmoid(conv_nd(Z-pool of x over C) + nd_b)
        g_nc (n, C)     = sigmoid(conv_nc(Z-pool of x over dh) + nc_b)
        g_dc (G, dh, C) = sigmoid(conv_dc(max and mean over graph g's
                                   nodes of w_p x) + dc_b)
        out[v]          = x[v] * (g_nd[v, :, None] + g_nc[v, None, :]
                                  + g_dc[batch_index[v]]) / 3

    where w_p is the softmax over each graph's nodes of pagerank * pr_w +
    pr_b, and an empty graph pools to 0. The kernels are nd_w (1, 2, K),
    nc_w (1, 2, K') and dc_w (1, 2, K, K), every K odd, and the biases,
    pr_w and pr_b are (1,). Each convolution is one banded matmul, the band
    being the kernel's taps times a cached one-hot tap map. The op runs in
    the scan's (C, dh, n) layout, so every pool, gate and per-graph
    reduction runs along the contiguous node axis, and returns the (n, d)
    view of that layout, as the scan does. A max routes its gradient to the
    earliest maximum along the axis or over a graph's nodes; the backward is
    written out in closed form.
    """
    x, nd_w, nd_b, nc_w, nc_b, dc_w, dc_b, pr_w, pr_b = (
        as_tensor(t) for t in (x, nd_w, nd_b, nc_w, nc_b, dc_w, dc_b, pr_w, pr_b)
    )
    pagerank = np.asarray(pagerank, dtype=np.float64)
    batch_index = _int_ids("cross_axis_fusion", batch_index, "batch_index")
    kernels = (nd_w, nc_w, dc_w)
    if (
        x.ndim != 2 or heads < 1 or x.shape[1] % heads
        or pagerank.shape != x.shape[:1] or batch_index.shape != x.shape[:1]
        or [w.ndim for w in kernels] != [3, 3, 4] or any(w.shape[:2] != (1, 2) for w in kernels)
        or any(k % 2 == 0 for w in kernels for k in w.shape[2:])
        or any(t.shape != (1,) for t in (nd_b, nc_b, dc_b, pr_w, pr_b))
        or batch_index.size and (batch_index.min() < 0 or batch_index.max() >= num_graphs)
    ):
        raise ShapeError(
            f"cross_axis_fusion: x {x.shape}, heads {heads}, pagerank {pagerank.shape}, "
            f"batch_index {batch_index.shape} (ids in [0, {num_graphs})), "
            f"kernels {[w.shape for w in kernels]}, "
            f"biases and pr {[t.shape for t in (nd_b, nc_b, dc_b, pr_w, pr_b)]}"
        )
    n, dh, c = x.shape[0], x.shape[1] // heads, heads
    # On the scan's output X is a view of the scan's own (d, n) array, not a
    # copy.
    X = np.ascontiguousarray(x.data.T.reshape(c, dh, n))
    max_c, max_dh = X.max(axis=0), X.max(axis=1)  # (dh, n), (C, n)
    pool_nd = np.concatenate([max_c, X.sum(axis=0) * (1.0 / c)])
    pool_nc = np.concatenate([max_dh, X.sum(axis=1) * (1.0 / dh)])
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    band_nd, fold_nd = _conv_band(nd_w.data, (dh,))
    band_nc, fold_nc = _conv_band(nc_w.data, (c,))
    gate_nd = sig(band_nd.T @ pool_nd + nd_b.data)  # (dh, n)
    gate_nc = sig(band_nc.T @ pool_nc + nc_b.data)  # (C, n)

    by_graph = _group(batch_index)
    at_node = lambda table: table.take(batch_index, axis=-1)
    w_p, wp_grad = _softmax_in_groups(pagerank * pr_w.data + pr_b.data, by_graph, num_graphs, at_node)
    xw = X * w_p
    gmax = _reduce_groups(xw, by_graph, num_graphs, np.maximum, axis=2)  # (C, dh, G)
    sizes = np.maximum(np.bincount(batch_index, minlength=num_graphs), 1.0)
    gavg = _reduce_groups(xw, by_graph, num_graphs, np.add, axis=2) / sizes
    # The (feature, head) convolution reads its pool as (2, dh, C) per graph.
    pool_dc = np.stack([gmax, gavg]).transpose(0, 2, 1, 3).reshape(2 * dh * c, num_graphs)
    band_dc, fold_dc = _conv_band(dc_w.data, (dh, c))
    gate_dc = sig(band_dc.T @ pool_dc + dc_b.data)  # (dh C, G)

    gates = gate_nd + gate_nc[:, None] + at_node(gate_dc.reshape(dh, c, -1).transpose(1, 0, 2))

    def bwd(g):
        g = np.ascontiguousarray(g.T.reshape(c, dh, n)) * (1.0 / 3.0)
        gx = g * gates
        gg = g * X

        def conv_grads(g_gate, gate, pool, band, fold):
            g_pre = g_gate * gate * (1.0 - gate)
            return band @ g_pre, fold(pool @ g_pre.T), g_pre.sum().reshape(1)

        g_pool, gw_nd, gb_nd = conv_grads(gg.sum(axis=0), gate_nd, pool_nd, band_nd, fold_nd)
        gx += _zpool_grad(X, max_c, g_pool[:dh], g_pool[dh:] * (1.0 / c), 0)
        g_pool, gw_nc, gb_nc = conv_grads(gg.sum(axis=1), gate_nc, pool_nc, band_nc, fold_nc)
        gx += _zpool_grad(X, max_dh, g_pool[:c], g_pool[c:] * (1.0 / dh), 1)

        g_gate = _reduce_groups(gg, by_graph, num_graphs, np.add, axis=2)
        g_gate = g_gate.transpose(1, 0, 2).reshape(dh * c, num_graphs)
        g_pool, gw_dc, gb_dc = conv_grads(g_gate, gate_dc, pool_dc, band_dc, fold_dc)
        g_max, g_sum = g_pool.reshape(2, dh, c, num_graphs).transpose(0, 2, 1, 3)
        first = _first_at_max(xw, gmax, by_graph, num_graphs, at_node, axis=2)
        gxw = np.where(first, at_node(g_max), 0.0) + at_node(g_sum / sizes)
        gx += gxw * w_p
        g_logits = wp_grad((gxw * X).reshape(c * dh, n).sum(axis=0))
        g_pr_w, g_pr_b = (g_logits * pagerank).sum().reshape(1), g_logits.sum().reshape(1)
        return gx.reshape(c * dh, n).T, gw_nd, gb_nd, gw_nc, gb_nc, gw_dc, gb_dc, g_pr_w, g_pr_b

    out = ((X * gates) * (1.0 / 3.0)).reshape(c * dh, n).T
    return _node(out, (x, nd_w, nd_b, nc_w, nc_b, dc_w, dc_b, pr_w, pr_b), bwd)


# -- normalization, dropout -------------------------------------------------------


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale and shift, as one tape node.

    With xhat = (a - mean) / sqrt(var + eps) per row of width d, eps = 1e-5,
    the input gradient is the closed form  (gx - mean(gx) - xhat *
    mean(gx * xhat)) / sqrt(var + eps)  for gx = g * gain (Ba et al., arXiv
    1607.06450).
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs features {a.shape}"
        )
    scale = 1.0 / a.shape[-1]
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + 1e-5) ** -0.5
    xhat = centered * inv

    def bwd(g):
        gx = g * gain.data
        dot = (gx * xhat).sum(axis=-1, keepdims=True) * scale
        ga = inv * (gx - gx.sum(axis=-1, keepdims=True) * scale - xhat * dot)
        return ga, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)

    return _node(xhat * gain.data + bias.data, (a, gain, bias), bwd)


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
    if pred.size == 0:
        raise ShapeError(f"mse_loss: no entries to average in shape {pred.shape}")
    diff = pred.data - target.data
    scale = 1.0 / diff.size

    def bwd(g):
        gd = (g * scale) * diff
        gd = gd + gd
        return (gd, -gd)

    return _node((diff * diff).sum() * scale, (pred, target), bwd)


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
    """Named trainable tensors with a stable iteration order, stored in one
    contiguous float64 buffer, ``flat``.

    The set is built once from ordered ``(name, value)`` pairs. A value is an
    array, or a tensor that the set adopts. Every tensor's ``.data`` is then a
    view of its slice of ``flat``, in that order, so a whole-set update is one
    op on ``flat`` (AdamW's step, or ``flat[...] = saved`` to restore a
    snapshot). Rebinding a tensor's ``.data`` detaches it from ``flat``;
    write into the view instead.
    """

    def __init__(self, items=()):
        self._params: dict[str, Tensor] = {}
        for name, value in items:
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            t = value if isinstance(value, Tensor) else Tensor(value)
            t.requires_grad = True
            self._params[name] = t
        self.flat = np.empty(sum(t.size for t in self._params.values()))
        for t, view in zip(self._params.values(), self.views(self.flat).values()):
            view[...] = t.data
            t.data = view

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """``buf``, laid out like ``flat``, as one view per parameter, by name."""
        out, offset = {}, 0
        for name, t in self._params.items():
            out[name] = buf[offset : offset + t.size].reshape(t.shape)
            offset += t.size
        return out

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return self.flat.size
