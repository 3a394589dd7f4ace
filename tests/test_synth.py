import json
import math

import numpy as np
import pytest

from dgssm.algos import _reverse_bfs, condensation, depth_plus
from dgssm.stats import predecessor_counts
from dgssm.synth import SyntheticTaskSpec, gen_synthetic


def _all_graphs(splits):
    return splits["train"] + splits["val"] + splits["test"]


def test_spec_validation():
    with pytest.raises(ValueError, match="task"):
        SyntheticTaskSpec(task="nope")
    with pytest.raises(ValueError, match="splits"):
        SyntheticTaskSpec(task="depth-regress", splits=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="infeasible"):
        SyntheticTaskSpec(task="reachability-classify", min_nodes=5, max_nodes=8)
    with pytest.raises(ValueError, match="density"):
        SyntheticTaskSpec(task="depth-regress", edge_density=1.5)


@pytest.mark.parametrize(
    "field, value, error",
    [("num_graphs", 2.5, "num_graphs must be int, got 2.5"), ("seed", 1.5, "seed must be int, got 1.5"),
     ("edge_density", float("nan"), "edge_density must be a finite float, got nan"),
     ("task", 3, "task must be str, got 3")],
)
def test_spec_rejects_values_of_the_wrong_type(field, value, error):
    # num_graphs=2.5 used to die as a bare TypeError inside generation, and
    # seed=1.5 was accepted and truncated to 1.
    with pytest.raises(ValueError, match=f"^{error}$"):
        SyntheticTaskSpec(**{"task": "depth-regress", field: value})


@pytest.mark.parametrize(
    "field, value, error",
    [("num_graphs", 0, "num_graphs must be >= 1, got 0"), ("num_graphs", -1, "num_graphs must be >= 1, got -1"),
     ("k_true", -5, "k_true must be >= 0, got -5"), ("seed", -1, "seed must be >= 0, got -1")],
)
def test_spec_rejects_values_out_of_range(field, value, error):
    # num_graphs=-1 used to write three empty files, k_true=-5 to label every
    # node 0, and seed=-1 to fail inside numpy's seeding.
    with pytest.raises(ValueError, match=f"^{error}$"):
        SyntheticTaskSpec(**{"task": "reachability-classify", field: value})


@pytest.mark.parametrize(
    "splits, error",
    [((1.5, -0.25, -0.25), r"splits must each be in \[0, 1\] and sum to 1, got \(1.5, -0.25, -0.25\)"),
     ((0.5, 0.5), r"splits must be tuple\[float, float, float\], got \(0.5, 0.5\)"),
     ((0.5, 0.5, "x"), r"splits must be tuple\[float, float, float\], got \(0.5, 0.5, 'x'\)")],
    ids=["out-of-range", "two-entries", "string-entry"],
)
def test_spec_rejects_bad_splits(splits, error):
    # The first used to give 8/0/0 graphs, the second 4/4/0, and the third a
    # bare TypeError in sum().
    with pytest.raises(ValueError, match=f"^{error}$"):
        SyntheticTaskSpec(task="depth-regress", num_graphs=8, splits=splits)


def test_zero_cycle_rate_yields_acyclic_graphs():
    spec = SyntheticTaskSpec(task="depth-regress", num_graphs=40, cycle_rate=0.0, seed=1)
    for g in _all_graphs(gen_synthetic(spec)):
        component = condensation(g)[0]
        assert len(set(component.tolist())) == g.num_nodes  # all singleton SCCs
        assert not any(u == v for u, v in g.edges)


def test_same_seed_byte_identical_files(tmp_path):
    spec = SyntheticTaskSpec(task="reachability-classify", num_graphs=20, seed=9)
    gen_synthetic(spec, tmp_path / "a")
    gen_synthetic(spec, tmp_path / "b")
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "task_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_differs(tmp_path):
    a = SyntheticTaskSpec(task="depth-regress", num_graphs=10, seed=1)
    b = SyntheticTaskSpec(task="depth-regress", num_graphs=10, seed=2)
    gen_synthetic(a, tmp_path / "a")
    gen_synthetic(b, tmp_path / "b")
    assert (tmp_path / "a" / "train.jsonl").read_bytes() != (tmp_path / "b" / "train.jsonl").read_bytes()


def test_depth_labels_recompute_exactly():
    spec = SyntheticTaskSpec(task="depth-regress", num_graphs=25, cycle_rate=0.3, seed=3)
    for g in _all_graphs(gen_synthetic(spec)):
        assert np.array_equal(np.asarray(g.y), depth_plus(g))


def test_ancestor_labels_recompute_exactly():
    spec = SyntheticTaskSpec(task="ancestor-count-regress", num_graphs=15, seed=4)
    for g in _all_graphs(gen_synthetic(spec)):
        want = float(np.mean(predecessor_counts(g, math.inf) + 1))
        assert g.y == pytest.approx(want, abs=1e-12)


def test_reachability_labels_recompute_exactly():
    spec = SyntheticTaskSpec(task="reachability-classify", num_graphs=25, cycle_rate=0.3, seed=5)
    for g in _all_graphs(gen_synthetic(spec)):
        flags = np.flatnonzero(g.node_features[:, 1] == 1.0)
        assert len(flags) == 1  # exactly one marked sink
        sink = int(flags[0])
        dist = _reverse_bfs(g.in_adjacency(), sink, math.inf)
        want = np.zeros(g.num_nodes, dtype=np.int64)
        for u, s in dist.items():
            if s <= spec.k_true:
                want[u] = 1
        assert np.array_equal(np.asarray(g.y), want)


def test_reachability_classes_roughly_balanced():
    spec = SyntheticTaskSpec(
        task="reachability-classify", num_graphs=60, min_nodes=15, max_nodes=21, seed=6
    )
    ys = np.concatenate([np.asarray(g.y) for g in _all_graphs(gen_synthetic(spec))])
    assert 0.35 <= ys.mean() <= 0.65


def test_cycle_rate_produces_cycles():
    spec = SyntheticTaskSpec(task="depth-regress", num_graphs=60, cycle_rate=1.0, seed=7)
    graphs = _all_graphs(gen_synthetic(spec))
    cyclic = sum(1 for g in graphs if len(set(condensation(g)[0].tolist())) < g.num_nodes)
    assert cyclic >= 0.8 * len(graphs)


def test_split_sizes_and_meta(tmp_path):
    spec = SyntheticTaskSpec(task="depth-regress", num_graphs=40, seed=8, splits=(0.5, 0.25, 0.25))
    splits = gen_synthetic(spec, tmp_path)
    assert len(splits["train"]) == 20
    assert len(splits["val"]) == 10
    assert len(splits["test"]) == 10
    meta = json.loads((tmp_path / "task_meta.json").read_text())
    assert meta["model_task"] == "node-regress"
    assert meta["spec"]["num_graphs"] == 40


def test_node_counts_within_range():
    spec = SyntheticTaskSpec(task="depth-regress", num_graphs=30, min_nodes=10, max_nodes=18, seed=9)
    for g in _all_graphs(gen_synthetic(spec)):
        assert 10 <= g.num_nodes <= 18
