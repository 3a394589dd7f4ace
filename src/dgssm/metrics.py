"""Evaluation metrics, implemented from their definitions."""

from __future__ import annotations

import numpy as np


def accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(true)))


def f1_binary(pred: np.ndarray, true: np.ndarray, positive: int = 1) -> float:
    pred, true = np.asarray(pred), np.asarray(true)
    tp = np.sum((pred == positive) & (true == positive))
    fp = np.sum((pred == positive) & (true != positive))
    fn = np.sum((pred != positive) & (true == positive))
    denom = 2 * tp + fp + fn
    return float(2 * tp / denom) if denom else 0.0


def f1_macro(pred: np.ndarray, true: np.ndarray, num_classes: int) -> float:
    return float(np.mean([f1_binary(pred, true, positive=c) for c in range(num_classes)]))


def mse(pred: np.ndarray, true: np.ndarray) -> float:
    pred, true = np.asarray(pred, float), np.asarray(true, float)
    return float(np.mean((pred - true) ** 2))


def rmse(pred: np.ndarray, true: np.ndarray) -> float:
    return float(np.sqrt(mse(pred, true)))


def pearson_r(pred: np.ndarray, true: np.ndarray) -> float:
    pred, true = np.asarray(pred, float), np.asarray(true, float)
    pc = pred - pred.mean()
    tc = true - true.mean()
    denom = np.sqrt((pc**2).sum() * (tc**2).sum())
    return float((pc * tc).sum() / denom) if denom > 0 else 0.0


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve by the step interpolation:
    mean of precision@k over the ranks k holding a positive."""
    scores, labels = np.asarray(scores, float), np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order] == 1
    if not hits.any():
        return 0.0
    ranks = np.arange(1, len(hits) + 1)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].mean())


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative
    (rank statistic; ties contribute 1/2 via average ranks)."""
    scores, labels = np.asarray(scores, float), np.asarray(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # 1-based ranks, each tied group taking the mean of the ranks it spans.
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inv]
    rank_sum = ranks[pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
