"""Directed-graph containers, batching, and JSON-lines I/O.

Graphs are immutable after construction: edge and feature arrays are frozen,
so instances can be shared freely across threads and cached preprocessing
stays valid.

File format (one graph per line):

    {"n": int, "edges": [[src, dst], ...], "x": [[float, ...], ...],
     "y": int | float | [int, ...] (optional), "id": str (optional),
     "node_ids": [str, ...] (optional)}

``n`` (below 2**63) and every edge endpoint must be JSON integers (not
floats, strings or booleans), every edge a pair, every feature and label
JSON numbers (not strings or booleans; features in float range), ``id`` a
JSON string and ``node_ids`` a list of ``n`` strings; anything else raises
:class:`GraphFormatError` naming the line. An
optional ``"e"`` key (per-edge features) is accepted and ignored. External
string node ids, when given, are a sidecar table and never used for
indexing. A 0-node graph's ``"x": []`` has no rows to give its feature
width, so it loads with the width of the file's other graphs, or width 0 in
a file of only 0-node graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


_INT64_MAX = np.iinfo(np.int64).max
_KEY_MAX_N = math.isqrt(_INT64_MAX)  # up to here, src * n + dst < n**2 fits in int64


class GraphFormatError(ValueError):
    """Raised for malformed or inconsistent graph files."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _edge_array(edges) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array of (src, dst) rows. Only an
    (m, 2) array of whole numbers, or an empty list, is taken: a (2, m)
    array read row-major would pair the wrong endpoints, and a cast would
    truncate 1.5 to a valid node."""
    try:
        raw = np.asarray(edges)
    except ValueError as e:  # ragged rows
        raise GraphFormatError(f"edges must be an (m, 2) array of (src, dst) pairs ({e})") from e
    if raw.shape == (0,):
        return np.zeros((0, 2), np.int64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphFormatError(f"edges must be an (m, 2) array of (src, dst) pairs; got shape {raw.shape}")
    if raw.dtype == np.int64:
        return raw.view()  # a view, so freezing it leaves the caller's array writable
    if raw.dtype.kind == "f":
        bad = raw[~np.isfinite(raw) | (raw % 1 != 0)]
        if bad.size:
            raise GraphFormatError(f"edge endpoints must be whole numbers; got {bad[0]:g}")
    elif raw.dtype.kind not in "iu":
        raise GraphFormatError(f"edge endpoints must be whole numbers; got {raw.dtype} values")
    return raw.astype(np.int64)


def _feature_array(x) -> np.ndarray:
    """``x`` as a float64 array. Only integer and float numbers are taken:
    numpy would parse "1.5", read True as 1 and drop an imaginary part. A
    list is checked value by value, an array by its dtype."""
    raw = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    if raw.dtype == object:
        number = (int, float, np.integer, np.floating)
        bad = [v for v in raw.flat if isinstance(v, bool) or not isinstance(v, number)]
        if bad:
            raise GraphFormatError(f"node_features must be integer or float numbers; got {bad[0]!r:.40}")
        try:
            return raw.astype(np.float64)
        except OverflowError as e:  # an int past float range
            raise GraphFormatError(f"node_features must be float64 numbers ({e})") from e
    if raw.dtype.kind not in "iuf":
        raise GraphFormatError(f"node_features must be integer or float numbers; got {raw.dtype} values")
    return raw.astype(np.float64, copy=False)


@dataclass(frozen=True)
class DiGraph:
    """A directed graph with node features and an optional label.

    ``num_nodes`` is an int or numpy integer in [0, 2**63), kept as an int.
    ``node_features`` holds integer or float numbers, kept as float64.
    ``graph_id`` is a string or None, and ``node_ids`` None or a list or
    tuple of ``num_nodes`` strings. ``y`` is either a 1-D per-node label
    array of length ``num_nodes``, a graph-level scalar (an int class, a
    float target or a 0-d array), or None; a label of any other shape, or
    with values that are not integer or float numbers, raises
    :class:`GraphFormatError`.
    """

    num_nodes: int
    edges: np.ndarray  # (m, 2) int64 (src, dst); asymmetric adjacency
    node_features: np.ndarray  # (n, f) float64
    y: np.ndarray | int | float | None = None
    graph_id: str | None = None
    node_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.num_nodes
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= _INT64_MAX:
            raise GraphFormatError(f"num_nodes must be an integer in [0, 2**63), got {n!r:.40}")
        n = int(n)
        edges = _edge_array(self.edges)
        x = _feature_array(self.node_features)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphFormatError(f"edge endpoint out of range [0, {n})")
        if n <= _KEY_MAX_N:
            keys = np.sort(edges[:, 0] * n + edges[:, 1])
            same = keys[1:] == keys[:-1]
        else:  # the key would wrap; compare sorted rows
            rows = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            same = np.all(rows[1:] == rows[:-1], axis=1)
        if np.any(same):
            raise GraphFormatError("duplicate (src, dst) edge pairs")
        if x.ndim != 2 or x.shape[0] != n:
            raise GraphFormatError(
                f"node_features must be (num_nodes, f); got {x.shape} for n={n}"
            )
        if not np.all(np.isfinite(x)):
            raise GraphFormatError("node_features must be finite (found NaN or inf)")
        if self.graph_id is not None and not isinstance(self.graph_id, str):
            raise GraphFormatError(f"graph_id must be a string or None, got {self.graph_id!r:.40}")
        ids = self.node_ids
        if ids is not None:
            if not isinstance(ids, (tuple, list)) or not all(isinstance(t, str) for t in ids):
                raise GraphFormatError(f"node_ids must be a list or tuple of strings, got {ids!r:.80}")
            if len(ids) != n:
                raise GraphFormatError(f"{len(ids)} node ids for {n} nodes")
        if self.y is not None:
            try:
                y = np.asarray(self.y)
            except ValueError as e:  # ragged rows
                raise GraphFormatError(f"label must be a scalar or one per node ({e})") from e
            if y.dtype.kind not in "iuf":
                raise GraphFormatError(f"label values must be integer or float numbers; got {self.y!r:.80}")
            if y.shape not in ((), (n,)):
                raise GraphFormatError(
                    f"label must be a scalar or one per node; got shape {y.shape} for n={n}"
                )
            if isinstance(self.y, (list, tuple, np.ndarray)):
                object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "edges", _frozen(edges))
        object.__setattr__(self, "node_features", _frozen(x))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def out_adjacency(self) -> list[np.ndarray]:
        """Out-neighbour index arrays, one per node."""
        return _adjacency(self.edges[:, 0], self.edges[:, 1], self.num_nodes)

    def in_adjacency(self) -> list[np.ndarray]:
        """In-neighbour (predecessor) index arrays, one per node."""
        return _adjacency(self.edges[:, 1], self.edges[:, 0], self.num_nodes)


def _csr(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Compressed rows: ``values[indptr[i]:indptr[i + 1]]`` are the values keyed i."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, values[np.argsort(keys, kind="stable")]


def _adjacency(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    indptr, values = _csr(keys, values, n)
    return [values[indptr[i] : indptr[i + 1]] for i in range(n)]


def reverse_graph(g: DiGraph) -> DiGraph:
    """Return the graph with every edge direction inverted; node data kept."""
    return DiGraph(
        num_nodes=g.num_nodes,
        edges=g.edges[:, ::-1].copy(),
        node_features=g.node_features,
        y=g.y,
        graph_id=g.graph_id,
        node_ids=g.node_ids,
    )


@dataclass(frozen=True)
class GraphBatch:
    """Several graphs concatenated into one node/edge index space."""

    num_graphs: int
    num_nodes: int
    edges: np.ndarray  # (M, 2) shifted into the concatenated index space
    node_features: np.ndarray  # (N, f)
    batch_index: np.ndarray  # (N,) graph ordinal per node, non-decreasing
    offsets: np.ndarray  # (num_graphs,) node-index offset per graph
    node_counts: np.ndarray  # (num_graphs,)
    ys: tuple = ()

    def __post_init__(self):
        for name in ("edges", "node_features", "batch_index", "offsets", "node_counts"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name))))
        if np.any(np.diff(self.batch_index) < 0):
            raise GraphFormatError("batch_index must be non-decreasing")
        if self.edges.size:
            same = self.batch_index[self.edges[:, 0]] == self.batch_index[self.edges[:, 1]]
            if not np.all(same):
                raise GraphFormatError("edge crosses two graphs in a batch")

    def labels(self) -> np.ndarray:
        """The batch's labels in order: one per node for node-labelled
        graphs, one per graph for scalar labels."""
        return np.concatenate([np.atleast_1d(y) for y in self.ys])


def batch_graphs(gs: list[DiGraph]) -> GraphBatch:
    """Concatenate graphs; node indices are shifted by per-graph offsets."""
    if not gs:
        raise ValueError("batch_graphs: empty graph list")
    f = gs[0].feature_dim
    if any(g.feature_dim != f for g in gs):
        raise GraphFormatError("batch_graphs: non-uniform feature dimension")
    counts = np.array([g.num_nodes for g in gs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return GraphBatch(
        num_graphs=len(gs),
        num_nodes=int(counts.sum()),
        edges=np.concatenate([g.edges + off for g, off in zip(gs, offsets)]),
        node_features=np.concatenate([g.node_features for g in gs]),
        batch_index=np.repeat(np.arange(len(gs)), counts),
        offsets=offsets,
        node_counts=counts,
        ys=tuple(g.y for g in gs),
    )


def _is_int(value) -> bool:
    """A JSON integer: ``true``, ``2.0`` and ``"2"`` are not (bool is an int subclass)."""
    return type(value) is int


def _graph_from_record(rec: dict, lineno: int) -> DiGraph:
    try:
        n = rec["n"]
        if not _is_int(n):
            raise GraphFormatError(f"n must be an integer, got {n!r}")
        edges = rec.get("edges", [])
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
                raise GraphFormatError(f"edge {e!r} is not a pair of integers")
        for row in rec["x"]:  # exact types, since bool is an int subclass
            if not (isinstance(row, list) and all(type(t) in (int, float) for t in row)):
                raise GraphFormatError(f"feature row {row!r} is not a list of numbers")
        y = rec.get("y")
        labels = y if isinstance(y, list) else [y]
        if y is not None and not all(type(t) in (int, float) for t in labels):
            raise GraphFormatError(f"label {y!r} is neither a number nor a list of numbers")
        graph_id = rec.get("id")
        if graph_id is not None and type(graph_id) is not str:
            raise GraphFormatError(f"id {graph_id!r} is not a string")
        node_ids = rec.get("node_ids")
        if node_ids is not None and not (
            isinstance(node_ids, list) and len(node_ids) == n and all(type(t) is str for t in node_ids)
        ):
            raise GraphFormatError(f"node_ids {node_ids!r} is not a list of {n} strings")
        return DiGraph(
            num_nodes=n,
            edges=edges,
            node_features=rec["x"] or np.zeros((0, 0)),
            y=y,
            graph_id=graph_id,
            node_ids=tuple(node_ids) if node_ids else None,
        )
    except (KeyError, TypeError, ValueError, GraphFormatError) as e:
        raise GraphFormatError(f"line {lineno}: {e}") from e


def load_graphs(path: str | Path) -> list[DiGraph]:
    """Load a JSON-lines graph file; fails on the first malformed record."""
    out: list[DiGraph] = []
    width = None  # feature width of the first graph with nodes
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"line {lineno}: invalid JSON ({e})") from e
            g = _graph_from_record(rec, lineno)
            if g.num_nodes and width is None:
                width = g.feature_dim
            elif g.num_nodes and g.feature_dim != width:
                raise GraphFormatError(
                    f"line {lineno}: feature dimension {g.feature_dim} != {width}"
                )
            out.append(g)
    return [g if g.num_nodes else replace(g, node_features=np.zeros((0, width or 0))) for g in out]


def save_graphs(gs: list[DiGraph], path: str | Path) -> None:
    """Write graphs as JSON lines; `load_graphs(save_graphs(gs))` is identity.

    Graphs with nodes must share one feature width, as ``load_graphs``
    requires; otherwise :class:`GraphFormatError` is raised before the file
    is opened.
    """
    sized = [(i, g.feature_dim) for i, g in enumerate(gs) if g.num_nodes]
    for i, width in sized[1:]:
        if width != sized[0][1]:
            raise GraphFormatError(
                f"save_graphs: graph {i} has feature dimension {width}, "
                f"but graph {sized[0][0]} has {sized[0][1]}"
            )
    with open(path, "w") as fh:
        for g in gs:
            rec: dict = {
                "n": g.num_nodes,
                "edges": g.edges.tolist(),
                "x": g.node_features.tolist(),
            }
            if g.y is not None:
                rec["y"] = np.asarray(g.y).tolist()
            if g.graph_id is not None:
                rec["id"] = g.graph_id
            if g.node_ids is not None:
                rec["node_ids"] = list(g.node_ids)
            fh.write(json.dumps(rec) + "\n")
