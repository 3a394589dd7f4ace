"""Span tracer that times the library's layers from outside.

``Tracer.install`` replaces each public function named in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent span, unit). The
replacement is made in every ``dgssm`` module namespace that holds the
original function, so calls through names imported with ``from .x import y``
are traced too. Nothing under ``src/`` is changed.

Backward time is charged directly: while a model block, the kernel table, a
segment op or ``gather_rows`` is running, every tape node it creates has its
backward closure wrapped, and ``Tensor.backward`` later records each closure
call as a span named after that owner (``<owner>.backward``). Time a span
does not spend in its child spans is its self time; the self time of a
unit's root span is the part of the unit no layer span covers.

A unit is one timed op or one set-up. Spans are kept in memory and written
out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

SEGMENT_OPS = ("segment_sum", "segment_mean", "segment_max", "segment_softmax")


def _scan_name(tracer: "Tracer", args) -> str:
    rev = tracer.rev_artifacts
    return "model.scan_rev" if rev is not None and args[1] is rev else "model.scan_fwd"


def _fusion_name(tracer: "Tracer", args) -> str:
    rev = tracer.rev_artifacts
    return "model.fusion_rev" if rev is not None and args[1] is rev.pagerank else "model.fusion_fwd"


def _layer_name(tracer: "Tracer", args) -> str:
    # Remember the layer's reverse artifacts so that its scan and fusion
    # spans can tell the two directions apart.
    tracer.rev_artifacts = args[2]
    return "model.layer"


# (module, attribute, span name or name(tracer, args), owner of tape nodes,
#  hook(tracer, args, result) called after the call). An owner of True means
# the span name; nodes created under no owner are charged to
# ``autodiff.backward`` itself.
TARGETS = [
    ("dgssm.algos", "k_hop_predecessors", "algos.k_hop_predecessors", None,
     lambda t, a, r: t.count("algos.pairs", len(r[1]))),
    ("dgssm.algos", "depth_plus", "algos.depth_plus", None, None),
    ("dgssm.algos", "pagerank", "algos.pagerank", None, None),
    ("dgssm.algos", "batch_artifacts", "algos.batch_artifacts", None, None),
    ("dgssm.graphs", "batch_graphs", "graphs.batch_graphs", None, None),
    ("dgssm.graphs", "reverse_graph", "graphs.reverse_graph", None, None),
    ("dgssm.ssm", "kernel_table", "ssm.kernel_table", True, None),
    ("dgssm.autodiff", "gather_rows", "autodiff.gather_rows", True, None),
    *[
        ("dgssm.autodiff", op, "autodiff.segment", True,
         lambda t, a, r: t.count("autodiff.segment.calls", 1))
        for op in SEGMENT_OPS
    ],
    ("dgssm.autodiff", "Tensor.backward", "autodiff.backward", None, None),
    ("dgssm.model", "encode_inputs", "model.encoder", True, None),
    ("dgssm.model", "digraph_ssm_scan", _scan_name, True,
     lambda t, a, r: t.count("model.scan.pairs", a[1].num_pairs)),
    ("dgssm.model", "digraph_fusion_attention", _fusion_name, True, None),
    ("dgssm.model", "dirgraphssm_layer", _layer_name, "model.layer_self", None),
    ("dgssm.model", "model_forward", "model.forward", "model.head", None),
    ("dgssm.model", "model_loss", "model.loss", "model.head", None),
    ("dgssm.optim", "AdamW.step", "optim.adamw_step", None, None),
    ("dgssm.checkpoint", "load_arrays", "checkpoint.load", None, None),
    ("dgssm.train", "collate", "train.collate", None, None),
    ("dgssm.train", "prepare_graphs", "train.prepare_graphs", None, None),
    ("dgssm.train", "predict_dataset", "train.predict_dataset", None, None),
]

# Per-layer metrics: (name, unit, kind, span names or count name).
# "self" sums self time, "total" sums whole span time (children included),
# "count" sums a count; all per unit.
LAYER_METRICS = [
    ("algos.k_hop_predecessors_s", "s", "self", ["algos.k_hop_predecessors"]),
    ("algos.depth_plus_s", "s", "self", ["algos.depth_plus"]),
    ("algos.pagerank_s", "s", "self", ["algos.pagerank"]),
    ("algos.pairs", "count", "count", ["algos.pairs"]),
    ("algos.batch_artifacts_s", "s", "self", ["algos.batch_artifacts"]),
    ("graphs.batch_graphs_s", "s", "self", ["graphs.batch_graphs"]),
    ("graphs.reverse_graph_s", "s", "self", ["graphs.reverse_graph"]),
    ("ssm.kernel_table.forward_s", "s", "self", ["ssm.kernel_table"]),
    ("ssm.kernel_table.backward_s", "s", "self", ["ssm.kernel_table.backward"]),
    ("autodiff.backward_s", "s", "self", ["autodiff.backward"]),
    ("autodiff.segment.forward_s", "s", "self", ["autodiff.segment"]),
    ("autodiff.segment.backward_s", "s", "self", ["autodiff.segment.backward"]),
    ("autodiff.segment.calls", "count", "count", ["autodiff.segment.calls"]),
    ("autodiff.gather_rows.forward_s", "s", "self", ["autodiff.gather_rows"]),
    ("autodiff.gather_rows.backward_s", "s", "self", ["autodiff.gather_rows.backward"]),
    ("autodiff.tape_nodes", "count", "count", ["autodiff.tape_nodes"]),
    *[
        metric
        for block, forward_spans in (
            ("encoder", ["model.encoder"]),
            ("scan_fwd", ["model.scan_fwd"]),
            ("scan_rev", ["model.scan_rev"]),
            ("fusion_fwd", ["model.fusion_fwd"]),
            ("fusion_rev", ["model.fusion_rev"]),
            ("layer_self", ["model.layer"]),
            ("head", ["model.forward", "model.loss"]),
        )
        for metric in (
            (f"model.{block}.forward_s", "s", "self", forward_spans),
            (f"model.{block}.backward_s", "s", "self", [f"model.{block}.backward"]),
        )
    ],
    ("model.scan.pairs", "count", "count", ["model.scan.pairs"]),
    ("optim.adamw_step_s", "s", "self", ["optim.adamw_step"]),
    ("checkpoint.load_s", "s", "self", ["checkpoint.load"]),
    ("train.collate_s", "s", "total", ["train.collate"]),
    ("train.prepare_graphs_s", "s", "total", ["train.prepare_graphs"]),
    ("train.predict_dataset_s", "s", "total", ["train.predict_dataset"]),
    ("unattributed_s", "s", "self", ["op"]),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in flat arrays rather than lists of objects so
        # that the garbage collector, which the library keeps busy, does not
        # have to walk them: name id, start, end, parent span, unit.
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._unit_of = array("i")
        self.units: list[str] = []  # "setup" or "op", by unit id
        self.counts: list[dict[str, float]] = []  # by unit id
        self.rev_artifacts = None  # reverse artifacts of the layer being run
        self._stack: list[tuple[int, str | None]] = []  # (span index, owner)
        self._unit: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def _open(self, name: str, owner: str | None = None) -> int:
        parent, outer = self._stack[-1] if self._stack else (-1, None)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self._name)
        self._stack.append((i, owner or outer))
        self._name.append(nid)
        self._parent.append(parent)
        self._unit_of.append(self._unit)
        self._end.append(0.0)
        self._start.append(clock())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = clock()
        self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[self._unit][name] += n

    @contextmanager
    def unit(self, kind: str):
        """Root span of one op or one set-up."""
        self._unit = len(self.units)
        self.units.append(kind)
        self.counts.append(defaultdict(float))
        i = self._open(kind)
        try:
            yield
        finally:
            self._close(i)
            self._unit = None

    def _wrap(self, fn, name, owner, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            span = name(self, args) if callable(name) else name
            i = self._open(span, span if owner is True else owner)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook:
                hook(self, args, out)
            return out

        return traced

    def _timed_closure(self, fn, name: str):
        def timed(g):
            if self._unit is None:
                return fn(g)
            i = self._open(name)
            try:
                return fn(g)
            finally:
                self._close(i)

        return timed

    def _node_hook(self, fn):
        @functools.wraps(fn)
        def traced(data, parents, backward):
            out = fn(data, parents, backward)
            if self._unit is not None and out._backward is not None:
                self.count("autodiff.tape_nodes", 1)
                owner = self._stack[-1][1]
                if owner:
                    out._backward = self._timed_closure(out._backward, owner + ".backward")
            return out

        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "dgssm" or n.startswith("dgssm.")]
        for modname, attr, name, owner, hook in TARGETS:
            module = sys.modules[modname]
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, original, self._wrap(original, name, owner, hook))
            else:
                original = getattr(module, attr)
                self._replace(modules, original, self._wrap(original, name, owner, hook))
        node = sys.modules["dgssm.autodiff"]._node
        self._replace(modules, node, self._node_hook(node))

    def _replace(self, modules, original, wrapped) -> None:
        """Replace ``original`` under every name any module binds it to."""
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, original, wrapped)

    def _set(self, holder, key: str, original, value) -> None:
        self._restore.append((holder, key, original))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------
    def _per_unit(self):
        """(self seconds, total seconds) by span name, one dict pair per unit."""
        spans = list(zip(self._name, self._start, self._end, self._parent, self._unit_of))
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, unit in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs = [defaultdict(float) for _ in self.units]
        totals = [defaultdict(float) for _ in self.units]
        for i, (nid, t0, t1, parent, unit) in enumerate(spans):
            name = self.names[nid]
            selfs[unit][name] += t1 - t0 - child[i]
            totals[unit][name] += t1 - t0
        return selfs, totals

    def layer_metrics(self) -> tuple[dict[str, dict], dict[str, str]]:
        """Median per op of every layer metric, and the scope it came from.

        A metric none of whose spans or counts occur in any op (preprocessing
        on the training workloads, which happens once in set-up) is taken per
        set-up instead; one that occurs in neither reads 0.
        """
        selfs, totals = self._per_unit()
        by_kind = {"self": selfs, "total": totals, "count": self.counts}
        units = range(len(self.units))
        per_unit: dict[str, list[float]] = {}
        present: dict[str, set[int]] = {}
        for name, _, kind, sources in LAYER_METRICS:
            table = by_kind[kind]
            per_unit[name] = [sum(table[u].get(s, 0.0) for s in sources) for u in units]
            present[name] = {u for u in units if any(s in table[u] for s in sources)}
        # Preprocessing throughput: hop pairs per second of prepare_graphs.
        prep = [totals[u].get("train.prepare_graphs", 0.0) for u in units]
        per_unit["algos.pairs_per_s"] = [p / t if t else 0.0 for p, t in zip(per_unit["algos.pairs"], prep)]
        present["algos.pairs_per_s"] = present["algos.pairs"]

        metrics, scopes = {}, {}
        for name, unit in [(m[0], m[1]) for m in LAYER_METRICS] + [("algos.pairs_per_s", "1/s")]:
            scope = next((k for k in ("op", "setup") if any(self.units[u] == k for u in present[name])), None)
            vals = [per_unit[name][u] for u in units if self.units[u] == scope]
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
            scopes[name] = scope or "absent"
        return metrics, scopes

    def dump(self, path: Path, meta: dict) -> None:
        t0 = self._start[0] if self._start else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "span_fields": ["name", "start_s", "end_s", "parent", "unit"],
                    "names": self.names,
                    "units": self.units,
                    "counts": self.counts,
                    "spans": [
                        [n, a - t0, b - t0, p, u]
                        for n, a, b, p, u in zip(self._name, self._start, self._end, self._parent, self._unit_of)
                    ],
                },
                fh,
            )
