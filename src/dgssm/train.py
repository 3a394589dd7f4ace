"""Training and evaluation loops.

Runs are bit-reproducible under (seed, config, dataset): parameter init,
batch order, and dropout all draw from one splittable stream. Preprocessing
(depth, PageRank and hop pairs, plus the edge-reversed graph's PageRank and
hop pairs when bidirectional) is computed once per graph list, over the
disjoint union of its graphs, and kept whole: each prepared graph holds its
node and pair-row ranges of the union's artifacts, and a batch copies its
graphs' rows into its own numbering. The reversed graph's hop pairs are
derived from the forward pairs, not searched. Every graph list is checked
before it is preprocessed: it must be non-empty, of the model's feature
width, and labelled as the task needs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as M
from .algos import PreprocessArtifacts, Rows, batch_artifacts, compute_batch_artifacts
from .autodiff import ParameterSet, no_grad
from .graphs import DiGraph, GraphBatch, batch_graphs
from .model import (
    ModelConfig,
    check_field_types,
    init_weights,
    load_model,
    model_forward,
    model_loss,
    save_model,
)
from .optim import AdamW
from .rng import RngStream


@dataclass
class RunConfig:
    model: ModelConfig
    lr: float = 1e-3
    weight_decay: float = 1e-6
    betas: tuple[float, float] = (0.9, 0.999)
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    out_dir: str | None = None
    patience: int = 20

    def __post_init__(self):
        check_field_types(self)
        if not all(0.0 <= x < 1.0 for x in self.betas):
            raise ValueError(f"betas must be in [0, 1), got {self.betas}")
        if self.lr < 0.0 or self.weight_decay < 0.0:
            raise ValueError(f"lr and weight_decay must be >= 0, got {self.lr} and {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError(f"epochs and patience must be >= 0, got {self.epochs} and {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Prepared:
    """A graph and its rows of its list's preprocessing, per direction: the
    list's union artifacts and the graph's node and pair-row ranges in them
    (``rev_rows`` is None with one direction)."""

    graph: DiGraph
    fwd_rows: Rows
    rev_rows: Rows | None

    @property
    def fwd(self) -> PreprocessArtifacts:
        """The graph's own forward artifacts, numbered from 0."""
        return batch_artifacts([self.fwd_rows])

    @property
    def rev(self) -> PreprocessArtifacts | None:
        """The graph's own reverse artifacts, numbered from 0, or None."""
        return None if self.rev_rows is None else batch_artifacts([self.rev_rows])


def _rows(arts: PreprocessArtifacts, bounds: list[int]) -> list[Rows]:
    """Each graph's rows of union artifacts, graph i holding the nodes from
    ``bounds[i]`` to ``bounds[i + 1]``. The pairs are sorted by center, so
    one ``searchsorted`` of the bounds cuts them into each graph's run."""
    cuts = np.searchsorted(arts.k_hop_edge_index[:, 1], bounds).tolist()
    return list(zip([arts] * (len(bounds) - 1), bounds, bounds[1:], cuts, cuts[1:]))


def prepare_graphs(graphs: list[DiGraph], cfg: ModelConfig) -> list[Prepared]:
    """Preprocess a graph list in one pass over its disjoint union per
    direction; each graph keeps its rows of the union's artifacts."""
    if not graphs:
        return []
    batch = batch_graphs(graphs)
    fwd, rev = compute_batch_artifacts(batch, cfg.k_hops, cfg.bidirectional)
    bounds = [*batch.offsets.tolist(), batch.num_nodes]
    rev_rows = [None] * len(graphs) if rev is None else _rows(rev, bounds)
    return [Prepared(*item) for item in zip(graphs, _rows(fwd, bounds), rev_rows)]


def collate(items: list[Prepared]) -> tuple[GraphBatch, PreprocessArtifacts, PreprocessArtifacts | None]:
    batch = batch_graphs([p.graph for p in items])
    fwd = batch_artifacts([p.fwd_rows for p in items])
    rev = batch_artifacts([p.rev_rows for p in items]) if items[0].rev_rows is not None else None
    return batch, fwd, rev


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def predict_dataset(
    prepared: list[Prepared], cfg: ModelConfig, params: ParameterSet
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (predictions, labels) over a dataset, eval mode, in batches of
    64, recording no tape."""
    preds, labels = [], []
    order = np.arange(len(prepared))
    for idx in _batches(len(prepared), 64, order):
        batch, fwd, rev = collate([prepared[i] for i in idx])
        with no_grad():
            out = model_forward(batch, fwd, rev, cfg, params, train=False)
        preds.append(out.data)
        labels.append(batch.labels())
    return np.concatenate(preds), np.concatenate(labels)


def compute_metrics(cfg: ModelConfig, raw_pred: np.ndarray, labels: np.ndarray) -> dict:
    """The metric family for the task."""
    if cfg.task.endswith("classify"):
        hard = raw_pred.argmax(axis=1)
        out = {
            "accuracy": M.accuracy(hard, labels),
            "f1_macro": M.f1_macro(hard, labels, cfg.num_classes),
        }
        if cfg.num_classes == 2:
            z = raw_pred - raw_pred.max(axis=1, keepdims=True)
            p1 = np.exp(z[:, 1]) / np.exp(z).sum(axis=1)
            out["ap"] = M.average_precision(p1, labels)
            out["roc_auc"] = M.roc_auc(p1, labels)
        return out
    flat = raw_pred.reshape(-1)
    return {
        "mse": M.mse(flat, labels),
        "rmse": M.rmse(flat, labels),
        "pearson_r": M.pearson_r(flat, labels),
    }


def primary_metric(cfg: ModelConfig) -> tuple[str, bool]:
    """(metric name, higher_is_better) used for model selection."""
    return ("accuracy", True) if cfg.task.endswith("classify") else ("rmse", False)


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.nan
    checkpoint_path: str | None = None
    params: ParameterSet | None = None


def train(
    run: RunConfig,
    train_graphs: list[DiGraph],
    val_graphs: list[DiGraph],
    log_fn=None,
) -> TrainResult:
    """AdamW epoch loop with validation-based early stopping.

    Saves the best-validation checkpoint to ``out_dir`` when given; aborts
    with a diagnostic on a non-finite loss.
    """
    cfg = run.model
    check_dataset(cfg, train_graphs, "train_graphs")
    check_dataset(cfg, val_graphs, "val_graphs")
    stream = RngStream(run.seed)
    init_stream, order_stream, drop_stream = stream.split(3)
    params = init_weights(cfg, init_stream)
    opt = AdamW(
        params, lr=run.lr, betas=run.betas, eps=1e-8, weight_decay=run.weight_decay
    )
    prep_train = prepare_graphs(train_graphs, cfg)
    prep_val = prepare_graphs(val_graphs, cfg)
    metric_name, higher_better = primary_metric(cfg)

    result = TrainResult()
    best_flat: np.ndarray | None = None
    best = -math.inf if higher_better else math.inf
    stale = 0
    out_dir = Path(run.out_dir) if run.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(run.epochs):
        t0 = time.perf_counter()
        order = order_stream.permutation(len(prep_train))
        epoch_loss, seen = 0.0, 0
        for idx in _batches(len(prep_train), run.batch_size, order):
            batch, fwd, rev = collate([prep_train[i] for i in idx])
            preds = model_forward(
                batch, fwd, rev, cfg, params, train=True, stream=drop_stream.child()
            )
            loss = model_loss(preds, batch, cfg)
            lv = loss.item()
            if not math.isfinite(lv):
                raise RuntimeError(
                    f"training diverged: non-finite loss {lv} at epoch {epoch}"
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += lv * len(idx)
            seen += len(idx)
        val_pred, val_labels = predict_dataset(prep_val, cfg, params)
        val_metrics = compute_metrics(cfg, val_pred, val_labels)
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(seen, 1),
            "seconds": time.perf_counter() - t0,
            **{f"val_{k}": v for k, v in val_metrics.items()},
        }
        result.history.append(record)
        if log_fn:
            log_fn(record)
        score = val_metrics[metric_name]
        improved = score > best if higher_better else score < best
        if improved:
            best = score
            result.best_epoch = epoch
            best_flat = params.flat.copy()
            stale = 0
        else:
            stale += 1
            if stale > run.patience:
                break

    if best_flat is not None:
        result.best_val = best
        params.flat[...] = best_flat  # in place: the tensors are views of ``flat``
    result.params = params
    if out_dir:
        ckpt = out_dir / "best.ckpt"
        save_model(
            ckpt, cfg, params, extra_meta={"run": asdict(run), "best_epoch": result.best_epoch}
        )
        (out_dir / "history.json").write_text(json.dumps(result.history, indent=2))
        result.checkpoint_path = str(ckpt)
    return result


class LabelError(ValueError):
    """A graph's label is missing, is not the kind the task reads, is not
    one of a classifier's classes, or is not a finite regression target."""


def check_dataset(cfg: ModelConfig, graphs: list[DiGraph], name: str) -> None:
    """Reject an empty list, a feature width the model does not take, and a
    label the task cannot score.

    A node task needs one label per node and a graph task one scalar; a
    classifier's labels must be integers in ``[0, num_classes)`` and a
    regressor's must be finite. Errors start with ``name``; an error about
    one graph also names it by index and id.
    """
    if not graphs:
        raise ValueError(f"{name}: empty graph list")
    node_task = cfg.task.startswith("node")
    for i, g in enumerate(graphs):
        where = f"{name}: graph {i} ({g.graph_id})"
        if g.feature_dim != cfg.in_dim:
            raise ValueError(f"{where}: task mismatch: model expects feature dim {cfg.in_dim}, data has {g.feature_dim}")
        if g.y is None:
            raise LabelError(f"{where}: no label")
        y = np.asarray(g.y, dtype=np.float64)
        if y.shape != ((g.num_nodes,) if node_task else ()):
            want = "one label per node" if node_task else "one scalar label"
            raise LabelError(f"{where}: a {cfg.task} model needs {want}, got shape {y.shape}")
        if cfg.task.endswith("classify"):
            bad = y[~((y == np.floor(y)) & (y >= 0) & (y < cfg.num_classes))]
            if bad.size:
                raise LabelError(f"{where}: label {bad[0]:g} is not a class of the "
                                 f"{cfg.task} model, an integer in [0, {cfg.num_classes})")
        elif not np.isfinite(y).all():
            raise LabelError(f"{where}: label {y[~np.isfinite(y)][0]:g} is not finite")


def evaluate(cfg: ModelConfig, params: ParameterSet, graphs: list[DiGraph], name: str = "graphs") -> dict:
    """Metric family on a dataset, eval mode (no dropout); ``name`` names the
    list in the errors of :func:`check_dataset`."""
    check_dataset(cfg, graphs, name)
    prepared = prepare_graphs(graphs, cfg)
    preds, labels = predict_dataset(prepared, cfg, params)
    return compute_metrics(cfg, preds, labels)


def evaluate_checkpoint(path: str | Path, graphs: list[DiGraph]) -> dict:
    cfg, params, _, _ = load_model(path)
    return evaluate(cfg, params, graphs)
