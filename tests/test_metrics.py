import numpy as np
import pytest

from dgssm import metrics as M
from dgssm.rng import RngStream


def test_perfect_predictions():
    y = np.array([0, 1, 1, 0, 1])
    assert M.accuracy(y, y) == 1.0
    assert M.f1_binary(y, y) == 1.0
    assert M.rmse(y.astype(float), y.astype(float)) == 0.0


def test_constant_predictor_auc_is_half():
    labels = np.array([0, 1] * 10)
    scores = np.full(20, 0.7)
    assert M.roc_auc(scores, labels) == 0.5


@pytest.mark.parametrize("tied", [False, True], ids=["normal", "tied-integers"])
def test_auc_matches_pair_counting(tied):
    stream = RngStream(0)
    labels = (stream.uniform(size=60) < 0.4).astype(int)
    # Integer scores in [0, 6) put about ten of the 60 scores in each tie group.
    scores = stream.integers(0, 6, size=60).astype(float) if tied else stream.normal(size=60)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    want = wins / (len(pos) * len(neg))
    assert M.roc_auc(scores, labels) == want


def test_average_precision_small_case():
    # Ranked scores: [pos, neg, pos] -> precisions at positives: 1/1, 2/3.
    scores = np.array([0.9, 0.8, 0.7])
    labels = np.array([1, 0, 1])
    assert M.average_precision(scores, labels) == (1.0 + 2.0 / 3.0) / 2.0


def test_f1_small_case():
    pred = np.array([1, 1, 0, 0])
    true = np.array([1, 0, 1, 0])
    # tp=1, fp=1, fn=1 -> F1 = 2/4.
    assert M.f1_binary(pred, true) == 0.5


def test_f1_macro_averages_classes():
    pred = np.array([0, 0, 1, 2])
    true = np.array([0, 1, 1, 2])
    per_class = [M.f1_binary(pred, true, positive=c) for c in range(3)]
    assert M.f1_macro(pred, true, 3) == np.mean(per_class)


def test_pearson_matches_corrcoef():
    stream = RngStream(1)
    a = stream.normal(size=50)
    b = 0.7 * a + stream.normal(size=50)
    assert abs(M.pearson_r(a, b) - np.corrcoef(a, b)[0, 1]) < 1e-12


def test_rmse_matches_manual_recompute():
    stream = RngStream(2)
    pred = stream.normal(size=40)
    true = stream.normal(size=40)
    assert M.rmse(pred, true) == np.sqrt(np.mean((pred - true) ** 2))
    assert M.mse(pred, true) == np.mean((pred - true) ** 2)


def test_degenerate_inputs():
    assert M.pearson_r(np.ones(5), np.arange(5.0)) == 0.0
    assert M.roc_auc(np.arange(4.0), np.zeros(4, int)) == 0.5
    assert M.average_precision(np.arange(4.0), np.zeros(4, int)) == 0.0
