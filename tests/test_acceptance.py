"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The learning checks (criterion 7) train real models on generated datasets
and take a few minutes of single-worker CPU; everything else is fast. All
seeds are fixed, so results are bit-reproducible run to run.
"""

import json
import time

import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.autodiff import Tensor
from dgssm.bench import run_bench, scaling_summary
from dgssm.model import ModelConfig, init_weights, model_forward
from dgssm.optim import grad_check
from dgssm.oracle import (
    suite_depthplus,
    suite_gradcheck,
    suite_pagerank,
    suite_permutation,
    suite_receptive_field,
    suite_scan_equivalence,
    suite_scc,
    suite_ssm_equivalence,
)
from dgssm.rng import RngStream
from dgssm.synth import SyntheticTaskSpec, gen_synthetic
from dgssm.train import RunConfig, collate, evaluate, prepare_graphs, train


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_1_scan_sequence_equivalence():
    t0 = time.perf_counter()
    r = suite_scan_equivalence(seed=0, graphs=50, max_nodes=30, hops=(1, 2, 4), tol=1e-8)
    elapsed = time.perf_counter() - t0
    _report(
        1, "scan-sequence equivalence",
        r.passed and elapsed <= 60.0,
        f"max abs dev {r.max_err:.2e} over 50 graphs, {elapsed:.1f}s",
    )


def test_criterion_2_ssm_form_equivalence():
    r = suite_ssm_equivalence(seed=0, cases=100, tol=1e-10)
    _report(2, "SSM kernel/recurrence equivalence", r.passed, f"max abs dev {r.max_err:.2e} over 100 instances")


def test_criterion_3_graph_algorithm_oracles():
    scc = suite_scc(seed=0, cases=120, max_nodes=25)
    depth = suite_depthplus(seed=1, cases=120, max_nodes=25)
    pr = suite_pagerank(seed=2, cases=120, max_nodes=25, tol=1e-8)
    _report(
        3, "graph-algorithm oracles",
        scc.passed and depth.passed and pr.passed,
        f"scc {'ok' if scc.passed else 'BAD'}, depth {'ok' if depth.passed else 'BAD'}, "
        f"pagerank max dev {pr.max_err:.2e}",
    )


def test_criterion_4_permutation_equivariance():
    r = suite_permutation(seed=0, graphs=20, tol=1e-8)
    _report(4, "permutation equivariance/invariance", r.passed, f"max dev {r.max_err:.2e} over 20 graphs")


def test_criterion_5_gradient_correctness():
    end_to_end = suite_gradcheck(seed=0, tol=1e-3)
    # Per-op sweep at the tighter tolerance (probe constants drawn once).
    stream = RngStream(3)
    seg = np.array([0, 0, 1, 2, 2])
    w43 = ad.constant(stream.normal(size=(4, 3)))
    p54a = ad.constant(stream.normal(size=(5, 4)))
    p54b = ad.constant(stream.normal(size=(5, 4)))
    p34 = ad.constant(stream.normal(size=(3, 4)))
    p44 = ad.constant(stream.normal(size=(4, 4)))
    p54c = ad.constant(stream.normal(size=(5, 4)))
    ops = {
        "matmul": lambda x: ad.sum_(ad.matmul(x, w43)),
        "sigmoid": lambda x: ad.sum_(ad.sigmoid(x)),
        "softmax": lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=1), p54a)),
        "segment_softmax": lambda x: ad.sum_(ad.mul(ad.segment_softmax(x, seg, 3), p54b)),
        "segment_sum": lambda x: ad.sum_(ad.mul(ad.segment_sum(x, seg, 3), p34)),
        "layer_norm": lambda x: ad.sum_(
            ad.mul(ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))), p54c)
        ),
        "gather": lambda x: ad.sum_(ad.mul(ad.gather_rows(x, np.array([0, 2, 2, 4])), p44)),
        "exp": lambda x: ad.sum_(ad.exp(ad.mul(x, 0.3))),
    }
    worst_op, worst = "", 0.0
    for name, fn in ops.items():
        rep = grad_check(fn, Tensor(stream.normal(size=(5, 4))), eps=1e-4, tol=1e-4)
        if rep.max_rel_err >= worst:
            worst, worst_op = rep.max_rel_err, name
    _report(
        5, "gradient correctness",
        end_to_end.passed and worst <= 1e-4,
        f"end-to-end max rel {end_to_end.max_err:.2e} (tol 1e-3), "
        f"per-op max rel {worst:.2e} at {worst_op} (tol 1e-4)",
    )


def test_criterion_6_receptive_field():
    r = suite_receptive_field(seed=0)
    _report(6, "receptive-field bound", r.passed, r.detail)


def _learning_run(task, k, se_layers, epochs, patience, node_range, seed=0):
    spec = SyntheticTaskSpec(
        task=task, num_graphs=500, min_nodes=node_range[0], max_nodes=node_range[1],
        edge_density=0.3, cycle_rate=0.2, seed=42,
    )
    splits = gen_synthetic(spec)
    model_task = spec.model_task()
    cfg = ModelConfig(
        in_dim=3, task=model_task,
        num_classes=2 if model_task.endswith("classify") else 0,
        hidden=32, heads=4, num_layers=2, se_layers=se_layers, ssm_state=8,
        k_hops=k, dropout=0.0, bidirectional=True, use_depth_pe=False,
    )
    run = RunConfig(model=cfg, lr=5e-3, weight_decay=1e-6, epochs=epochs,
                    batch_size=32, seed=seed, patience=patience)
    t0 = time.perf_counter()
    result = train(run, splits["train"], splits["val"])
    elapsed = time.perf_counter() - t0
    metrics = evaluate(cfg, result.params, splits["test"])
    print("LEARNING " + json.dumps({"task": task, "k": k, "seconds": round(elapsed, 1),
                                    "epochs": len(result.history), **metrics}))
    return metrics, elapsed


@pytest.mark.slow
def test_criterion_7_desk_scale_learning():
    depth_full, t_full = _learning_run("depth-regress", k=4, se_layers=1,
                                       epochs=60, patience=60, node_range=(15, 30))
    depth_ablate, _ = _learning_run("depth-regress", k=1, se_layers=1,
                                    epochs=60, patience=60, node_range=(15, 30))
    reach_full, _ = _learning_run("reachability-classify", k=4, se_layers=0,
                                  epochs=100, patience=30, node_range=(15, 21))
    reach_ablate, _ = _learning_run("reachability-classify", k=1, se_layers=0,
                                    epochs=100, patience=30, node_range=(15, 21))
    rmse_ok = depth_full["rmse"] <= 0.5
    margin_ok = depth_full["rmse"] <= 0.7 * depth_ablate["rmse"]
    time_ok = t_full <= 600.0
    acc_ok = reach_full["accuracy"] >= 0.95
    ablate_ok = reach_ablate["accuracy"] <= 0.75
    _report(
        7, "desk-scale learning",
        rmse_ok and margin_ok and time_ok and acc_ok and ablate_ok,
        f"depth rmse {depth_full['rmse']:.3f} (<=0.5) vs k=1 {depth_ablate['rmse']:.3f} "
        f"(need >=30% better), {t_full:.0f}s (<=600); reach acc {reach_full['accuracy']:.3f} "
        f"(>=0.95) vs k=1 {reach_ablate['accuracy']:.3f} (<=0.75)",
    )


@pytest.mark.slow
def test_criterion_8_forward_time_scaling():
    records = run_bench(ks=list(range(1, 10)), seed=0)
    summary = scaling_summary(records)
    _report(
        8, "forward-time scaling",
        summary["max_superlinearity"] <= 1.3,
        f"max time-growth vs hop-pair growth {summary['max_superlinearity']:.3f} (<=1.3) "
        f"across k=1..9",
    )


def test_criterion_9_batch_isolation():
    stream = RngStream(5)
    from conftest import make_random_digraph
    from dgssm.graphs import DiGraph

    g1 = make_random_digraph(100, max_nodes=12)
    g2 = make_random_digraph(101, max_nodes=12)
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=16, heads=4, num_layers=2,
                      se_layers=1, ssm_state=4, k_hops=3, dropout=0.3, bidirectional=True)
    params = init_weights(cfg, stream.child())

    def forward(pair):
        batch, fwd, rev = collate(prepare_graphs(pair, cfg))
        return model_forward(batch, fwd, rev, cfg, params).data

    base = forward([g1, g2])
    g2_bumped = DiGraph(
        g2.num_nodes, g2.edges, g2.node_features + stream.normal(size=g2.node_features.shape)
    )
    bumped = forward([g1, g2_bumped])
    n1 = g1.num_nodes
    identical = np.array_equal(base[:n1], bumped[:n1])
    changed = not np.array_equal(base[n1:], bumped[n1:])
    _report(
        9, "batch isolation",
        identical and changed,
        f"graph-1 outputs bit-identical: {identical}; graph-2 outputs changed: {changed}",
    )
