"""Directed-graph containers, batching, and JSON-lines I/O.

Graphs are immutable after construction: edge and feature arrays are frozen,
so instances can be shared freely across threads and cached preprocessing
stays valid.

File format (one graph per line):

    {"n": int, "edges": [[src, dst], ...], "x": [[float, ...], ...],
     "y": int | float | [int, ...] (optional), "id": str (optional),
     "node_ids": [str, ...] (optional)}

The keys hold :class:`DiGraph`'s ``num_nodes``, ``edges``,
``node_features``, ``y``, ``graph_id`` and ``node_ids``, and the constructor
checks their values by its own rules. One rule holds for files only: every
edge endpoint is a JSON integer (``DiGraph`` takes 1.0 from code). Every
error is a :class:`GraphFormatError` that starts with ``line N:``. An
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
    """Raised for a malformed graph, built in code or read from a file."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_NUMBER = (int, float, np.integer, np.floating)
_EDGE_RULE = "edge endpoints must be whole numbers"


def _array(value, rule: str) -> np.ndarray:
    """``value`` as an array: an array as a view, so that freezing the result
    leaves the caller's array writable; anything else as an object array of
    its values, for :func:`_numbers` to check one by one."""
    if isinstance(value, np.ndarray):
        return value.view()
    try:
        return np.array(value, dtype=object)
    except ValueError as e:  # nested arrays of mismatched shapes
        raise GraphFormatError(f"{rule} ({e})") from e


def _numbers(value, rule: str, dtype=None) -> np.ndarray:
    """``value`` as an array of integer or float numbers (as ``dtype`` if
    given), else a :class:`GraphFormatError` that starts with ``rule``. A
    list is checked value by value, since numpy would parse "1.5", read True
    as 1 and drop an imaginary part; an array is checked by its dtype."""
    raw = _array(value, rule)
    if raw.dtype == object:
        if any(issubclass(t, bool) or not issubclass(t, _NUMBER) for t in set(map(type, raw.flat))):
            bad = next(v for v in raw.flat if isinstance(v, bool) or not isinstance(v, _NUMBER))
            raise GraphFormatError(f"{rule}; got {bad!r:.40}")
        try:
            raw = raw.astype(dtype) if dtype else np.array(raw.tolist())
        except OverflowError as e:  # an int past float range
            raise GraphFormatError(f"{rule} in {np.dtype(dtype)} range ({e})") from e
    if raw.dtype.kind not in "iuf":
        raise GraphFormatError(f"{rule}; got {raw.dtype} values")
    return raw if dtype is None else raw.astype(dtype, copy=False)


def _edge_array(edges, n: int) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array of distinct (src, dst) rows in
    ``[0, n)``. Only an (m, 2) array of whole numbers, or an empty list, is
    taken: a (2, m) array read row-major would pair the wrong endpoints, and
    a cast would truncate 1.5 to a valid node."""
    raw = _array(edges, _EDGE_RULE)
    if raw.shape == (0,):
        return np.zeros((0, 2), np.int64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphFormatError(f"edges must be an (m, 2) array of (src, dst) pairs; got shape {raw.shape}")
    raw = _numbers(raw, _EDGE_RULE)
    if raw.dtype.kind == "f":
        bad = raw[~np.isfinite(raw) | (raw % 1 != 0)]
        if bad.size:
            raise GraphFormatError(f"{_EDGE_RULE}; got {bad[0]:g}")
    if raw.size and (raw.min() < 0 or raw.max() >= n):  # before the cast, which could wrap
        raise GraphFormatError(f"edge endpoint out of range [0, {n})")
    edges = raw.astype(np.int64, copy=False)
    if n <= _KEY_MAX_N:
        keys = np.sort(edges[:, 0] * n + edges[:, 1])
        same = keys[1:] == keys[:-1]
    else:  # the key would wrap; compare sorted rows
        rows = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        same = np.all(rows[1:] == rows[:-1], axis=1)
    if np.any(same):
        raise GraphFormatError("duplicate (src, dst) edge pairs")
    return edges


@dataclass(frozen=True)
class DiGraph:
    """A directed graph with node features and an optional label; this
    constructor is the one check of every field, in code and from files.

    ``num_nodes`` is an int or numpy integer in [0, 2**63), kept as an int.
    ``edges`` is an (m, 2) array of distinct whole-number (src, dst) pairs
    in [0, num_nodes), or an empty list, kept as int64. ``node_features`` is
    a (num_nodes, f) array of finite integer or float numbers, kept as
    float64. ``y`` is None, a graph-level scalar (an int class, a float
    target or a 0-d array) or one integer or float label per node.
    ``graph_id`` is a string or None, and ``node_ids`` None or a list or
    tuple of ``num_nodes`` strings, kept as a tuple. A list is checked value
    by value (no bool, str, None or complex) and an array by its dtype; an
    array is kept as a read-only view, so the caller's own stays writable.
    Anything else raises :class:`GraphFormatError` naming the field.
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
        edges = _edge_array(self.edges, n)
        x = _numbers(self.node_features, "node_features must be integer or float numbers", np.float64)
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
                raise GraphFormatError(f"node_ids must be one string per node; got {len(ids)} for n={n}")
            object.__setattr__(self, "node_ids", tuple(ids))
        if self.y is not None:
            y = _numbers(self.y, "label values must be integer or float numbers")
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
    """Several graphs concatenated into one node/edge index space. Each
    array is kept as a read-only view, so the caller's own stays writable."""

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
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name)).view()))
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


def _graph_from_line(line: bytes) -> DiGraph:
    """The graph a file line holds; :class:`DiGraph` checks every value.
    Endpoints must be JSON integers, the one rule for files only: in code,
    ``DiGraph`` takes whole floats such as 1.0."""
    try:
        rec = json.loads(line)
    except ValueError as e:  # not JSON, or not UTF-8
        raise GraphFormatError(f"invalid JSON ({e})") from e
    if not isinstance(rec, dict):
        raise GraphFormatError(f"a graph record must be a JSON object, got {type(rec).__name__}")
    for key in ("n", "x"):
        if key not in rec:
            raise GraphFormatError(f"missing key {key!r}")
    n, x = rec["n"], rec["x"]
    edges = _array(rec.get("edges", []), _EDGE_RULE)
    if float in set(map(type, edges.flat)):
        bad = next(v for v in edges.flat if type(v) is float)
        raise GraphFormatError(f"edge endpoints must be JSON integers; got {bad!r}")
    return DiGraph(
        num_nodes=n,
        edges=edges,
        node_features=np.zeros((0, 0)) if x == [] else x,
        y=rec.get("y"),
        graph_id=rec.get("id"),
        node_ids=rec.get("node_ids"),
    )


def load_graphs(path: str | Path) -> list[DiGraph]:
    """Load a JSON-lines graph file; fails on the first malformed record
    with a :class:`GraphFormatError` that starts with its line number."""
    out: list[DiGraph] = []
    width = None  # feature width of the first graph with nodes
    with open(path, "rb") as fh:  # bytes, so that a line that is not UTF-8 is invalid JSON
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                g = _graph_from_line(line)
            except (TypeError, ValueError) as e:
                raise GraphFormatError(f"line {lineno}: {e}") from e
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
