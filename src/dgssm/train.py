"""Training and evaluation loops.

Runs are bit-reproducible under (seed, config, dataset): parameter init,
batch order, and dropout all draw from one splittable stream. Preprocessing
(depth, PageRank, hop pairs, and the same for the edge-reversed graph when
bidirectional) is computed once per graph list, over the disjoint union of
its graphs, split back per graph, and concatenated per batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as M
from .algos import PreprocessArtifacts, batch_artifacts, compute_batch_artifacts
from .autodiff import ParameterSet
from .graphs import DiGraph, GraphBatch, batch_graphs
from .model import (
    ModelConfig,
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model"] = self.model.to_dict()
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        d["model"] = ModelConfig.from_dict(d["model"])
        if "betas" in d:
            d["betas"] = tuple(d["betas"])
        return cls(**d)


@dataclass
class Prepared:
    """A graph with its cached preprocessing."""

    graph: DiGraph
    fwd: PreprocessArtifacts
    rev: PreprocessArtifacts | None


def prepare_graphs(graphs: list[DiGraph], cfg: ModelConfig) -> list[Prepared]:
    """Preprocess a graph list in one pass over its disjoint union per direction."""
    if not graphs:
        return []
    batch = batch_graphs(graphs)
    fwd = compute_batch_artifacts(batch, cfg.k_hops)
    rev = (
        compute_batch_artifacts(batch, cfg.k_hops, reverse=True)
        if cfg.bidirectional
        else [None] * len(graphs)
    )
    return [Prepared(*item) for item in zip(graphs, fwd, rev)]


def collate(items: list[Prepared]) -> tuple[GraphBatch, PreprocessArtifacts, PreprocessArtifacts | None]:
    batch = batch_graphs([p.graph for p in items])
    fwd = batch_artifacts([p.fwd for p in items], batch)
    rev = (
        batch_artifacts([p.rev for p in items], batch)
        if items[0].rev is not None
        else None
    )
    return batch, fwd, rev


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def predict_dataset(
    prepared: list[Prepared],
    cfg: ModelConfig,
    params: ParameterSet,
    batch_size: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (predictions, labels) over a dataset, eval mode."""
    preds, labels = [], []
    order = np.arange(len(prepared))
    for idx in _batches(len(prepared), batch_size, order):
        batch, fwd, rev = collate([prepared[i] for i in idx])
        out = model_forward(batch, fwd, rev, cfg, params, train=False)
        preds.append(out.data)
        if cfg.task.startswith("node"):
            labels.append(batch.node_labels())
        else:
            labels.append(batch.graph_labels())
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
    config: RunConfig | None = None


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
    stream = RngStream(run.seed)
    init_stream, order_stream, drop_stream = stream.split(3)
    params = init_weights(cfg, init_stream)
    opt = AdamW(
        params, lr=run.lr, betas=run.betas, eps=1e-8, weight_decay=run.weight_decay
    )
    prep_train = prepare_graphs(train_graphs, cfg)
    prep_val = prepare_graphs(val_graphs, cfg)
    metric_name, higher_better = primary_metric(cfg)

    result = TrainResult(config=run)
    best_params: dict[str, np.ndarray] | None = None
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
            best_params = {name: t.data.copy() for name, t in params.items()}
            stale = 0
        else:
            stale += 1
            if stale > run.patience:
                break

    result.best_val = best
    if best_params is not None:
        for name, t in params.items():
            t.data = best_params[name]
    result.params = params
    if out_dir:
        ckpt = out_dir / "best.ckpt"
        save_model(
            ckpt, cfg, params, opt_arrays=opt.state_arrays(),
            extra_meta={"run": run.to_dict(), "best_epoch": result.best_epoch},
        )
        (out_dir / "history.json").write_text(json.dumps(result.history, indent=2))
        result.checkpoint_path = str(ckpt)
    return result


def evaluate(
    cfg: ModelConfig,
    params: ParameterSet,
    graphs: list[DiGraph],
    batch_size: int = 64,
) -> dict:
    """Metric family on a dataset, eval mode (no dropout)."""
    if not graphs:
        raise ValueError("evaluate: empty graph list")
    prepared = prepare_graphs(graphs, cfg)
    preds, labels = predict_dataset(prepared, cfg, params, batch_size=batch_size)
    return compute_metrics(cfg, preds, labels)


def evaluate_checkpoint(path: str | Path, graphs: list[DiGraph]) -> dict:
    cfg, params, _, _ = load_model(path)
    if graphs and graphs[0].feature_dim != cfg.in_dim:
        raise ValueError(
            f"task mismatch: checkpoint expects feature dim {cfg.in_dim}, "
            f"data has {graphs[0].feature_dim}"
        )
    return evaluate(cfg, params, graphs)
