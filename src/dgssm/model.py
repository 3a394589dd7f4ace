"""The directed-graph SSM layer stack.

Data flow per layer: node features are encoded once (input projection +
depth positional encoding + gated directional GCN layers), then each layer
runs the hop-structured scan: multi-head attention weights over every node's
bounded-hop predecessor set select messages that are carried into the
diagonal SSM state, decayed by a_bar^s for their hop distance s, summed per
center and read out through C; the result is recalibrated by fusion
attention across (node, feature, head) axes, projected, and passed through
residual / layer-norm / feed-forward blocks. The scan and the fusion both
take and return (n, d) with head c in columns [c*d_head, (c+1)*d_head), so
the projection reads their output as it is. A
bidirectional layer runs an independent second scan on the edge-reversed
graph (its own weights, preprocessing, and PageRank) and merges by
concatenation + projection.
"""

from __future__ import annotations

import functools
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .algos import PreprocessArtifacts
from .autodiff import ParameterSet, Tensor
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .graphs import GraphBatch
from .rng import RngStream
from .ssm import s4d_table

TASKS = ("node-classify", "node-regress", "graph-classify", "graph-regress")
_FLOAT_MAX = sys.float_info.max


def _fits(value, hint) -> bool:
    """Whether ``value`` is of the resolved annotation ``hint``: an int that
    is not a bool, a finite float (an int in float range counts), a bool, a
    str, None, an optional, a fixed tuple or a config dataclass."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:  # NaN, inf, and an int past float range fail the bound
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX
    if hint in (bool, str, type(None)) or is_dataclass(hint):
        return isinstance(value, hint)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and Ellipsis not in args:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    raise TypeError(f"no field check for the annotation {hint!r}")


@functools.cache
def _field_hints(cls) -> dict[str, tuple]:
    """Field name -> (resolved annotation, its text, whether it is required)
    for the dataclass ``cls``; resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.type, f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def check_field_types(config) -> None:
    """Reject a config field whose value is not of its annotation, with a
    ``ValueError`` naming the field. A float size, a string switch or an
    infinite rate would otherwise construct, then fail deep inside a run or
    silently switch a block on."""
    for name, (hint, text, _) in _field_hints(type(config)).items():
        value = getattr(config, name)
        if not _fits(value, hint):
            real = hint is float and isinstance(value, (int, float)) and not isinstance(value, bool)
            raise ValueError(f"{name} must be {'a finite float' if real else text}, got {value!r:.40}")


def from_dict(cls, data):
    """Build the config dataclass ``cls`` from JSON-like ``data``: a nested
    config field from a dict and a fixed-tuple field from a list. A
    non-object, an unknown key or a missing key is a ``ValueError`` naming
    it; ``cls`` checks the values themselves."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r:.40}")
    hints = _field_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ValueError(f"unknown {cls.__name__} key {key!r}; expected one of {sorted(hints)}")
        hint = hints[key][0]
        if is_dataclass(hint) and isinstance(value, dict):
            value = from_dict(hint, value)
        elif typing.get_origin(hint) is tuple and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    for key, (_, _, required) in hints.items():
        if required and key not in kwargs:
            raise ValueError(f"{cls.__name__} key {key!r} is missing")
    return cls(**kwargs)


@dataclass
class ModelConfig:
    """Hyperparameters for the full stack."""

    in_dim: int
    task: str
    num_classes: int = 0
    hidden: int = 64
    heads: int = 4
    num_layers: int = 2
    se_layers: int = 1  # 0 disables the structural encoder (probe configs)
    ssm_state: int = 8
    dt_min: float = 1e-3
    dt_max: float = 1e-1
    k_hops: int = 4
    dropout: float = 0.1
    bidirectional: bool = False
    use_depth_pe: bool = True
    use_fusion: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name, low in (("in_dim", 1), ("hidden", 1), ("heads", 1), ("ssm_state", 1),
                          ("num_layers", 0), ("se_layers", 0), ("k_hops", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min} and {self.dt_max}")
        if self.task.endswith("classify") and self.num_classes < 2:
            raise ValueError(f"classification tasks need num_classes >= 2, got {self.num_classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")



def depth_positional_encoding(depth: np.ndarray, d: int) -> np.ndarray:
    """Sinusoidal encoding of non-negative integer depths, width exactly ``d``.

    Column 2i holds sin(depth / 10000^(2i/d)); column 2i+1 the matching cos.
    Odd widths end on a sin column. The rows are computed once for each
    depth in 0..max(depth) and gathered per node.
    """
    depth = np.asarray(depth, dtype=np.int64).reshape(-1)
    if depth.size and depth.min() < 0:
        raise ValueError(f"depth_positional_encoding: depths must be >= 0, got {depth.min()}")
    n_pairs = (d + 1) // 2
    freq = 1.0 / (10000.0 ** (2.0 * np.arange(n_pairs) / d))
    angles = np.arange(depth.max(initial=-1) + 1.0)[:, None] * freq
    table = np.zeros((angles.shape[0], d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : d // 2]
    return table[depth]


# -- weight construction ---------------------------------------------------------


def _lin(rows: int, cols: int) -> tuple:
    return (rows, cols), ("normal", 1.0 / np.sqrt(rows))


def _branch2_kernel(heads: int) -> int:
    # Conv along the head/channel axis needs an odd kernel no wider than C.
    return 3 if heads >= 3 else 1


def param_table(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], tuple]]:
    """(name, shape, initializer) of every trainable tensor, in registration
    and draw order, under stable dotted names: exactly the weights the
    forward reads, so a branch has ``fusion.*`` rows only under
    ``use_fusion``. Draws no random numbers: it is the one source of names
    and shapes for :func:`init_weights` and :func:`load_model`."""
    d, h = cfg.hidden, cfg.heads
    zeros, ones = ("fill", 0.0), ("fill", 1.0)
    rows: list[tuple[str, tuple[int, ...], tuple]] = []

    def add(name, shape, init):
        rows.append((name, shape, init))

    add("encoder.proj.w", *_lin(cfg.in_dim, d))
    add("encoder.proj.b", (d,), zeros)
    for i in range(cfg.se_layers):
        for direction in ("in", "out"):
            for j in range(1, 5):
                add(f"encoder.se{i}.{direction}.w{j}", *_lin(d, d))
        add(f"encoder.se{i}.ln.g", (d,), ones)
        add(f"encoder.se{i}.ln.b", (d,), zeros)

    directions = ("fwd", "rev") if cfg.bidirectional else ("fwd",)
    for li in range(cfg.num_layers):
        for tag in directions:
            pre = f"layers.{li}.{tag}"
            for name in ("wq", "wk", "wv", "wo"):
                add(f"{pre}.{name}", *_lin(d, d))
            for name, shape, init in s4d_table(cfg.ssm_state, d, cfg.dt_min, cfg.dt_max):
                add(f"{pre}.ssm.{name}", shape, init)
            if cfg.use_fusion:
                k2 = _branch2_kernel(h)
                add(f"{pre}.fusion.nd.w", (1, 2, 7), ("normal", 1.0 / np.sqrt(14)))
                add(f"{pre}.fusion.nd.b", (1,), zeros)
                add(f"{pre}.fusion.nc.w", (1, 2, k2), ("normal", 1.0 / np.sqrt(2 * k2)))
                add(f"{pre}.fusion.nc.b", (1,), zeros)
                add(f"{pre}.fusion.dc.w", (1, 2, 3, 3), ("normal", 1.0 / np.sqrt(18)))
                add(f"{pre}.fusion.dc.b", (1,), zeros)
                add(f"{pre}.fusion.pr.w", (1,), ("normal", 1.0))
                add(f"{pre}.fusion.pr.b", (1,), zeros)
        if cfg.bidirectional:
            add(f"layers.{li}.bi.w", *_lin(2 * d, d))
        add(f"layers.{li}.ln1.g", (d,), ones)
        add(f"layers.{li}.ln1.b", (d,), zeros)
        add(f"layers.{li}.ffn.w1", *_lin(d, 2 * d))
        add(f"layers.{li}.ffn.b1", (2 * d,), zeros)
        add(f"layers.{li}.ffn.w2", *_lin(2 * d, d))
        add(f"layers.{li}.ffn.b2", (d,), zeros)
        add(f"layers.{li}.ln2.g", (d,), ones)
        add(f"layers.{li}.ln2.b", (d,), zeros)

    out_width = cfg.num_classes if cfg.task.endswith("classify") else 1
    if cfg.task.startswith("node"):
        add("head.w1", *_lin(d, out_width))
        add("head.b1", (out_width,), zeros)
    else:
        add("head.w1", *_lin(d, d))
        add("head.b1", (d,), zeros)
        add("head.w2", *_lin(d, out_width))
        add("head.b2", (out_width,), zeros)
    return rows


def init_weights(cfg: ModelConfig, stream: RngStream) -> ParameterSet:
    """All trainable tensors of :func:`param_table`, drawn in its order."""
    return ParameterSet((name, stream.draw(init, shape)) for name, shape, init in param_table(cfg))


# -- building blocks -------------------------------------------------------------


def dir_gated_gcn(
    h: Tensor,
    edges: np.ndarray,
    params: ParameterSet,
    prefix: str,
) -> Tensor:
    """One gated directional graph-convolution layer.

    Both edge directions are aggregated with separate weights:
    center update  h W1 + sum_j gate(v, j) * (h_j W2)  with
    gate = sigmoid(h_v W3 + h_j W4); the two directional results are
    averaged, added to the residual, and layer-normalized.
    """
    n = h.shape[0]

    def one_direction(tag: str, centers: np.ndarray, neighbors: np.ndarray) -> Tensor:
        w = {j: params[f"{prefix}.{tag}.w{j}"] for j in range(1, 5)}
        self_term = ad.matmul(h, w[1])
        gate = ad.sigmoid(
            ad.add(
                ad.gather_rows(ad.matmul(h, w[3]), centers),
                ad.gather_rows(ad.matmul(h, w[4]), neighbors),
            )
        )
        msg = ad.mul(gate, ad.gather_rows(ad.matmul(h, w[2]), neighbors))
        return ad.add(self_term, ad.segment_sum(msg, centers, n))

    src, dst = edges[:, 0], edges[:, 1]
    res_in = one_direction("in", dst, src)  # messages along edge direction
    res_out = one_direction("out", src, dst)  # messages against edge direction
    combined = ad.mul(ad.add(res_in, res_out), 0.5)
    return ad.layer_norm(
        ad.add(h, combined), params[f"{prefix}.ln.g"], params[f"{prefix}.ln.b"]
    )


def encode_inputs(
    x: Tensor,
    depth: np.ndarray,
    edges: np.ndarray,
    cfg: ModelConfig,
    params: ParameterSet,
) -> Tensor:
    """Project raw features to width d, add the depth encoding, then run the
    structural encoder layers."""
    h = ad.add(ad.matmul(x, params["encoder.proj.w"]), params["encoder.proj.b"])
    if cfg.use_depth_pe:
        h = ad.add(h, ad.constant(depth_positional_encoding(depth, cfg.hidden)))
    for i in range(cfg.se_layers):
        h = dir_gated_gcn(h, edges, params, f"encoder.se{i}")
    return h


def digraph_ssm_scan(
    fx: Tensor,
    artifacts: PreprocessArtifacts,
    params: ParameterSet,
    prefix: str,
    num_heads: int,
) -> Tensor:
    """Attention-selective scan over bounded-hop predecessor sets.

    Per head c, attention weights are a segment softmax over each center's
    whole predecessor set (self pair included, all hop distances jointly):

        alpha(u, v) ~ exp(<fx_v Wq, fx_u Wk>_c / sqrt(d_head))

    A message fx_u Wv that travels s hops is transformed by the diagonal SSM
    C diag(a_bar)^s B_bar. The scan applies it in the D-dimensional state:
    each node's message is projected once into the state, each pair scales
    it by a_bar^s, the alpha-weighted pairs are summed per center and head,
    and head c is read out through its rows of C. The projections, the
    zero-order-hold discretization, the power table and the scan are one op
    with a closed-form backward, :func:`autodiff.hop_attention_scan`, given
    the weights named ``{prefix}.<name>`` in ``params``, in the op's order.
    Returns (n, d), head c in columns [c*d_head, (c+1)*d_head).
    """
    names = ("wq", "wk", "wv", "ssm.a_log", "ssm.log_dt", "ssm.b", "ssm.c")
    return ad.hop_attention_scan(
        fx, *(params[f"{prefix}.{name}"] for name in names),
        artifacts.k_hop_edge_index, artifacts.k_hop_spd, num_heads,
    )


def digraph_fusion_attention(
    x: Tensor,
    pagerank: np.ndarray,
    batch_index: np.ndarray,
    num_graphs: int,
    params: ParameterSet,
    prefix: str,
    num_heads: int,
) -> Tensor:
    """Cross-axis recalibration of the scan's output (N, D), read as
    (N, D_h, C) with C = ``num_heads`` heads in column blocks of width D_h.

    Three sigmoid gates: (1) compress the head axis, convolve along
    features, one gate per node and feature; (2) compress the feature axis,
    convolve along heads, one gate per node and head; (3) weight nodes by a
    per-graph softmax over a learned scalar map of PageRank, pool max+mean
    per graph, convolve 3x3 over (feature, head), and broadcast the gate
    back to that graph's nodes. The output is x times the mean of the three
    gates, in x's (N, D) layout; pooling is keyed by batch index so graphs in
    a batch never mix.
    The block is one op with a closed-form backward,
    :func:`autodiff.cross_axis_fusion`, given the weights named
    ``{prefix}.<name>`` in ``params``, in the op's order.
    """
    names = ("nd.w", "nd.b", "nc.w", "nc.b", "dc.w", "dc.b", "pr.w", "pr.b")
    return ad.cross_axis_fusion(
        x, pagerank, batch_index, num_graphs, *(params[f"{prefix}.{name}"] for name in names),
        num_heads,
    )


def dirgraphssm_layer(
    h: Tensor,
    arts_fwd: PreprocessArtifacts,
    arts_rev: PreprocessArtifacts | None,
    batch_index: np.ndarray,
    num_graphs: int,
    cfg: ModelConfig,
    params: ParameterSet,
    layer_index: int,
    train: bool = False,
    stream: RngStream | None = None,
) -> Tensor:
    """One full layer: scan(s) + fusion + projection + residual/norm/FFN."""
    if cfg.bidirectional and arts_rev is None:
        raise ValueError("bidirectional layer requires reverse-graph artifacts")

    def scan_branch(tag: str, arts: PreprocessArtifacts) -> Tensor:
        pre = f"layers.{layer_index}.{tag}"
        heads = digraph_ssm_scan(h, arts, params, pre, cfg.heads)
        if cfg.use_fusion:
            heads = digraph_fusion_attention(
                heads, arts.pagerank, batch_index, num_graphs, params, f"{pre}.fusion", cfg.heads
            )
        return ad.matmul(heads, params[f"{pre}.wo"])

    y = scan_branch("fwd", arts_fwd)
    if cfg.bidirectional:
        y_rev = scan_branch("rev", arts_rev)
        y = ad.matmul(ad.concat([y, y_rev], axis=1), params[f"layers.{layer_index}.bi.w"])

    pre = f"layers.{layer_index}"
    y = ad.dropout(y, cfg.dropout, train, stream.child() if train and stream else None)
    h1 = ad.layer_norm(ad.add(h, y), params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
    f = ad.add(
        ad.matmul(
            ad.relu(ad.add(ad.matmul(h1, params[f"{pre}.ffn.w1"]), params[f"{pre}.ffn.b1"])),
            params[f"{pre}.ffn.w2"],
        ),
        params[f"{pre}.ffn.b2"],
    )
    f = ad.dropout(f, cfg.dropout, train, stream.child() if train and stream else None)
    return ad.layer_norm(ad.add(h1, f), params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])


def model_forward(
    batch: GraphBatch,
    arts_fwd: PreprocessArtifacts,
    arts_rev: PreprocessArtifacts | None,
    cfg: ModelConfig,
    params: ParameterSet,
    train: bool = False,
    stream: RngStream | None = None,
) -> Tensor:
    """Predictions for a batch: (n, classes), (n, 1), (G, classes) or (G, 1)."""
    if batch.node_features.shape[1] != cfg.in_dim:
        raise ValueError(
            f"feature dim {batch.node_features.shape[1]} != config in_dim {cfg.in_dim}"
        )
    for arts in (arts_fwd, arts_rev):
        if arts is not None and arts.k != cfg.k_hops:
            sign = ">" if arts.k > cfg.k_hops else "<"
            raise ValueError(f"artifacts built with k={arts.k} {sign} config k_hops={cfg.k_hops}")
    x = ad.constant(batch.node_features)
    h = encode_inputs(x, arts_fwd.depth, batch.edges, cfg, params)
    for li in range(cfg.num_layers):
        h = dirgraphssm_layer(
            h, arts_fwd, arts_rev, batch.batch_index, batch.num_graphs,
            cfg, params, li, train=train, stream=stream,
        )
    if cfg.task.startswith("node"):
        return ad.add(ad.matmul(h, params["head.w1"]), params["head.b1"])
    pooled = ad.segment_mean(h, batch.batch_index, batch.num_graphs)
    z = ad.relu(ad.add(ad.matmul(pooled, params["head.w1"]), params["head.b1"]))
    return ad.add(ad.matmul(z, params["head.w2"]), params["head.b2"])


def model_loss(predictions: Tensor, batch: GraphBatch, cfg: ModelConfig) -> Tensor:
    """Task loss: cross-entropy for classification, MSE for regression."""
    if cfg.task.startswith("node") and batch.num_nodes == 0:
        raise ValueError(f"model_loss: task {cfg.task!r} has no loss on a batch with no nodes")
    labels = batch.labels()
    if cfg.task.endswith("classify"):
        return ad.cross_entropy(predictions, labels)
    return ad.mse_loss(predictions, labels.reshape(-1, 1))


# -- checkpointing ----------------------------------------------------------------


def save_model(
    path: str | Path,
    cfg: ModelConfig,
    params: ParameterSet,
    opt_arrays: dict[str, np.ndarray] | None = None,
    extra_meta: dict | None = None,
) -> None:
    arrays = {f"param.{name}": t.data for name, t in params.items()}
    if opt_arrays:
        arrays.update({f"opt.{name}": arr for name, arr in opt_arrays.items()})
    meta = {"config": asdict(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, arrays, meta)


def load_model(path: str | Path) -> tuple[ModelConfig, ParameterSet, dict, dict]:
    """Returns (config, params, optimizer arrays, meta).

    Raises :class:`CheckpointError` naming the file and the first mismatch
    when the meta block has no valid model config, the ``param.*`` names or
    shapes differ from the config's :func:`param_table`, or an array holds a
    non-finite value. The parameters are copied into their own buffer in
    the table's order, whatever the file's order, so they keep no other
    array of the file alive.
    """
    arrays, meta = load_arrays(path)
    if not isinstance(meta, dict) or "config" not in meta:
        raise CheckpointError(f"{path}: the meta block has no model config")
    try:
        cfg = from_dict(ModelConfig, meta["config"])
    except ValueError as e:
        raise CheckpointError(f"{path}: invalid model config ({e})") from e
    want = {name: shape for name, shape, _ in param_table(cfg)}
    opt_arrays: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        if name.startswith("param."):
            name = name[len("param.") :]
            if name not in want:
                raise CheckpointError(f"{path}: unknown parameter {name!r} for the config")
            if arr.shape != want[name]:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {arr.shape}, "
                                      f"but the config builds {want[name]}")
        elif name.startswith("opt."):
            opt_arrays[name[len("opt.") :]] = arr
    missing = [name for name in want if f"param.{name}" not in arrays]
    if missing:
        raise CheckpointError(f"{path}: parameter {missing[0]!r} is missing for the config")
    # One pass over all values; ``arrays`` holds at least the parameters here.
    if not np.isfinite(np.concatenate(list(arrays.values()), axis=None)).all():
        name = next(name for name, arr in arrays.items() if not np.isfinite(arr).all())
        raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
    params = ParameterSet((name, arrays[f"param.{name}"]) for name in want)
    return cfg, params, opt_arrays, meta
