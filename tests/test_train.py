import json
import math
import types
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgssm import algos
from dgssm.algos import compute_artifacts, depth_plus
from dgssm.checkpoint import load_arrays
from dgssm.graphs import DiGraph, reverse_graph
from dgssm.model import ModelConfig, from_dict, init_weights, load_model, save_model
from dgssm.rng import RngStream
from dgssm.synth import SyntheticTaskSpec, gen_synthetic
from dgssm.train import (
    LabelError,
    RunConfig,
    evaluate,
    evaluate_checkpoint,
    prepare_graphs,
    train,
)

from conftest import make_random_digraph


def _tiny_run(task="depth-regress", num_graphs=24, epochs=3, lr=3e-3, seed=0, **model_kw):
    if task == "reachability-classify":
        spec = SyntheticTaskSpec(
            task=task, num_graphs=num_graphs, min_nodes=12, max_nodes=16, seed=5, k_true=6
        )
    else:
        spec = SyntheticTaskSpec(task=task, num_graphs=num_graphs, min_nodes=8, max_nodes=14, seed=5)
    splits = gen_synthetic(spec)
    mt = spec.model_task()
    kw = dict(
        in_dim=3, task=mt, num_classes=2 if mt.endswith("classify") else 0,
        hidden=8, heads=2, num_layers=1, se_layers=1, ssm_state=4, k_hops=2,
        dropout=0.1, bidirectional=False,
    )
    kw.update(model_kw)
    cfg = ModelConfig(**kw)
    run = RunConfig(model=cfg, lr=lr, weight_decay=0.0, epochs=epochs, batch_size=8, seed=seed)
    return run, splits


def test_zero_lr_leaves_parameters_unchanged():
    run, splits = _tiny_run(lr=0.0, epochs=1)
    from dgssm.model import init_weights
    from dgssm.rng import RngStream

    # Reference init with the same stream split used inside train().
    init_stream, _, _ = RngStream(run.seed).split(3)
    start = {name: t.data.copy() for name, t in init_weights(run.model, init_stream).items()}
    result = train(run, splits["train"], splits["val"])
    for name, t in result.params.items():
        assert np.array_equal(t.data, start[name]), name


def test_overfit_single_graph():
    run, splits = _tiny_run(epochs=200, lr=5e-3, dropout=0.0)
    run.patience = 200
    one = splits["train"][:1]
    result = train(run, one, one)
    assert result.history[-1]["train_loss"] < 1e-2


def _strip_timing(history):
    return [{k: v for k, v in rec.items() if k != "seconds"} for rec in history]


def test_fixed_seed_reruns_identical():
    run, splits = _tiny_run(epochs=3)
    h1 = _strip_timing(train(run, splits["train"], splits["val"]).history)
    h2 = _strip_timing(train(run, splits["train"], splits["val"]).history)
    assert json.dumps(h1, sort_keys=True) == json.dumps(h2, sort_keys=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    run, splits = _tiny_run(epochs=5, lr=1e12)
    with pytest.raises(RuntimeError, match="non-finite"):
        train(run, splits["train"], splits["val"])


@pytest.mark.parametrize("state,dt_min,dt_max", [(200, 5.0, 5.0), (8, 100.0, 200.0)])
def test_a_config_whose_a_bar_underflows_trains_to_a_finite_loss(state, dt_min, dt_max):
    # dt a reaches -1000 and -1600 at initialization, where a_bar = exp(dt a)
    # is 0 in float64.
    run, splits = _tiny_run(num_graphs=8, epochs=1, ssm_state=state, dt_min=dt_min, dt_max=dt_max)
    result = train(run, splits["train"], splits["val"])
    assert math.isfinite(result.history[0]["train_loss"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    task=st.sampled_from(["depth-regress", "ancestor-count-regress", "reachability-classify"]),
    num_classes=st.integers(2, 4),
    heads=st.integers(1, 4),
    head_width=st.integers(1, 6),
    num_layers=st.integers(0, 3),
    se_layers=st.integers(0, 3),
    ssm_state=st.integers(1, 256),
    dt_exponents=st.lists(st.floats(-300.0, 308.25), min_size=2, max_size=2).map(sorted),
    k_hops=st.integers(0, 8),
    dropout=st.one_of(st.sampled_from([0.0, 0.999999]), st.floats(0.0, 1.0, exclude_max=True)),
    switches=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@example(task="depth-regress", num_classes=2, heads=2, head_width=2, num_layers=1, se_layers=1, ssm_state=8,
         dt_exponents=[308.0, 308.25], k_hops=2, dropout=0.1, switches=(True, True, True))
def test_every_config_the_boundary_accepts_trains_to_a_finite_loss(
    task, num_classes, heads, head_width, num_layers, se_layers, ssm_state, dt_exponents, k_hops, dropout, switches
):
    # ModelConfig's numeric fields over what __post_init__ accepts, the step
    # range over six hundred decades: one epoch on a few small graphs gives a
    # finite loss and no warning. The example's dt a passes float range.
    bidirectional, use_depth_pe, use_fusion = switches
    dt_min, dt_max = (10.0**x for x in dt_exponents)
    run, splits = _tiny_run(
        task=task, num_graphs=8, epochs=1, num_classes=num_classes if task == "reachability-classify" else 0,
        hidden=heads * head_width, heads=heads, num_layers=num_layers, se_layers=se_layers, ssm_state=ssm_state,
        dt_min=dt_min, dt_max=dt_max, k_hops=k_hops, dropout=dropout, bidirectional=bidirectional,
        use_depth_pe=use_depth_pe, use_fusion=use_fusion,
    )
    result = train(run, splits["train"], splits["val"])
    assert math.isfinite(result.history[0]["train_loss"])


def test_early_stopping_respects_patience():
    run, splits = _tiny_run(epochs=50, lr=0.0)
    run.patience = 3
    result = train(run, splits["train"], splits["val"])
    # No improvement is possible after epoch 0 with lr=0.
    assert len(result.history) == 5  # epoch 0 + patience 3 + the stopping epoch


def test_no_improving_epoch_leaves_best_val_nan():
    run, splits = _tiny_run(epochs=0)
    result = train(run, splits["train"], splits["val"])
    assert result.best_epoch == -1 and math.isnan(result.best_val)


def test_checkpoint_saved_and_evaluable(tmp_path):
    run, splits = _tiny_run(epochs=2)
    run.out_dir = str(tmp_path / "out")
    result = train(run, splits["train"], splits["val"])
    assert result.checkpoint_path is not None
    metrics = evaluate_checkpoint(result.checkpoint_path, splits["test"])
    direct = evaluate(run.model, result.params, splits["test"])
    assert metrics == direct
    history = json.loads((tmp_path / "out" / "history.json").read_text())
    assert len(history) == len(result.history)


def test_train_checkpoint_holds_only_parameters(tmp_path):
    # The last epoch's optimizer moments do not belong to the best epoch's
    # weights, so a training checkpoint carries the weights and meta alone.
    run, splits = _tiny_run(epochs=1)
    run.out_dir = str(tmp_path / "out")
    result = train(run, splits["train"], splits["val"])
    arrays, meta = load_arrays(result.checkpoint_path)
    assert sorted(arrays) == sorted(f"param.{name}" for name in result.params.names())
    assert meta["best_epoch"] == 0


def test_a_model_without_fusion_trains_saves_and_loads(tmp_path):
    # Its table used to hold every branch's fusion weights, which the forward
    # never reads, so the first AdamW step raised "has no gradient".
    run, splits = _tiny_run(epochs=1, bidirectional=True, use_fusion=False)
    run.out_dir = str(tmp_path / "out")
    result = train(run, splits["train"], splits["val"])
    assert not any(".fusion." in name for name in result.params.names())
    path = tmp_path / "m.ckpt"
    save_model(path, run.model, result.params)
    for ckpt in (result.checkpoint_path, path):
        cfg, params, _, _ = load_model(ckpt)
        assert cfg == run.model and params.names() == result.params.names()
        assert np.array_equal(params.flat, result.params.flat)


def test_train_submodule_is_not_shadowed():
    import dgssm.train

    assert isinstance(dgssm.train, types.ModuleType)


def test_checkpoint_task_mismatch_detected(tmp_path):
    run, splits = _tiny_run(epochs=1)
    run.out_dir = str(tmp_path / "out")
    result = train(run, splits["train"], splits["val"])
    bad = [
        g.__class__(g.num_nodes, g.edges, np.zeros((g.num_nodes, 7)), y=g.y)
        for g in splits["test"][:2]
    ]
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_checkpoint(result.checkpoint_path, bad)


def test_classification_metrics_present():
    run, splits = _tiny_run(task="reachability-classify", epochs=2)
    result = train(run, splits["train"], splits["val"])
    m = evaluate(run.model, result.params, splits["test"])
    assert {"accuracy", "f1_macro", "ap", "roc_auc"} <= set(m)


@pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan], ids=["too-large", "fraction", "negative", "nan"])
def test_classifier_rejects_labels_outside_its_classes(bad):
    cfg = ModelConfig(in_dim=3, task="node-classify", num_classes=2, hidden=8, heads=2,
                      num_layers=1, ssm_state=4, k_hops=2)
    params = init_weights(cfg, RngStream(0))
    graphs = [
        DiGraph(3, [(0, 1), (1, 2)], np.zeros((3, 3)), y=y, graph_id=f"g{i}")
        for i, y in enumerate([[0, 1, 1], [1, bad, 0], [bad, 0, 0]])
    ]
    with pytest.raises(LabelError, match=rf"graph 1 \(g1\): label {bad:g} is not a class"):
        evaluate(cfg, params, graphs)


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_label_outside_the_classes_before_training(split, tmp_path):
    run, splits = _tiny_run(task="reachability-classify", epochs=1)
    run.out_dir = str(tmp_path / "out")
    g = splits[split][0]
    splits[split][0] = DiGraph(g.num_nodes, g.edges, g.node_features, y=np.full(g.num_nodes, 5),
                               graph_id=g.graph_id)
    with pytest.raises(LabelError, match=rf"{split}_graphs: graph 0 \({g.graph_id}\): label 5 is not a class"):
        train(run, splits["train"], splits["val"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "task,y,match",
    [
        ("node-regress", None, "no label"),
        ("node-regress", 1.5, r"a node-regress model needs one label per node, got shape \(\)"),
        ("graph-regress", [1.0, 2.0, 3.0], r"a graph-regress model needs one scalar label, got shape \(3,\)"),
        ("node-regress", [0.0, np.nan, 1.0], "label nan is not finite"),
        ("graph-regress", -np.inf, "label -inf is not finite"),
    ],
    ids=["missing", "scalar-for-node-task", "array-for-graph-task", "nan-node-label", "inf-graph-label"],
)
def test_labels_of_the_wrong_kind_are_rejected(task, y, match):
    cfg = ModelConfig(in_dim=3, task=task, hidden=8, heads=2, num_layers=1, ssm_state=4, k_hops=2)
    good = 0.0 if task.startswith("graph") else [0.0, 1.0, 2.0]
    graphs = [DiGraph(3, [(0, 1), (1, 2)], np.zeros((3, 3)), y=label, graph_id=f"g{i}")
              for i, label in enumerate([good, y])]
    with pytest.raises(LabelError, match=rf"graphs: graph 1 \(g1\): {match}"):
        evaluate(cfg, init_weights(cfg, RngStream(0)), graphs)
    run = RunConfig(model=cfg, epochs=1)
    with pytest.raises(LabelError, match=rf"val_graphs: graph 1 \(g1\): {match}"):
        train(run, graphs[:1], graphs)


@pytest.mark.parametrize("empty", ["train", "val"])
def test_train_rejects_an_empty_list_before_preprocessing(empty, tmp_path):
    run, splits = _tiny_run(epochs=1)
    run.out_dir = str(tmp_path / "out")
    splits[empty] = []
    with pytest.raises(ValueError, match=f"{empty}_graphs: empty graph list"):
        train(run, splits["train"], splits["val"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, kind",
    [("epochs", 2.5, "int"), ("batch_size", 2.5, "int"), ("patience", "3", "int"),
     ("seed", 1.5, "int"), ("epochs", True, "int"), ("lr", "0.1", "float")],
)
def test_runconfig_rejects_values_of_the_wrong_type(field, value, kind):
    # A float count used to construct and fail after preprocessing, and a
    # string patience or lr as a bare TypeError in a range check.
    run, _ = _tiny_run()
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value!r}$"):
        RunConfig(**{**vars(run), field: value})


def test_runconfig_round_trip():
    run, _ = _tiny_run()
    back = from_dict(RunConfig, json.loads(json.dumps(asdict(run))))
    assert asdict(back) == asdict(run)


@pytest.mark.parametrize("k", [0, 2, 4, 16])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_prepare_graphs_matches_per_graph_artifacts(k, bidirectional):
    gs = [make_random_digraph(seed) for seed in range(6)] + [
        DiGraph(1, np.zeros((0, 2), np.int64), np.zeros((1, 3))),
        DiGraph(3, np.zeros((0, 2), np.int64), np.zeros((3, 3))),
        DiGraph(3, np.array([[0, 0], [1, 1], [1, 2]]), np.zeros((3, 3))),
    ]
    cfg = ModelConfig(in_dim=3, task="node-regress", k_hops=k, bidirectional=bidirectional)
    prepared = prepare_graphs(gs, cfg)
    assert len(prepared) == len(gs)
    for g, p in zip(gs, prepared):
        assert p.graph is g
        cases = [(p.fwd, g)]
        if bidirectional:
            cases.append((p.rev, reverse_graph(g)))
        else:
            assert p.rev is None
        for got, h in cases:
            want = compute_artifacts(h, k)
            assert got.k == want.k
            assert np.array_equal(got.k_hop_edge_index, want.k_hop_edge_index)
            assert np.array_equal(got.k_hop_spd, want.k_hop_spd)
            # Depth is the graph's own, forward, in both directions.
            assert np.array_equal(got.depth, depth_plus(g))
            assert np.abs(got.pagerank - want.pagerank).max() <= 1e-15


def test_bidirectional_preprocessing_searches_hop_pairs_once(monkeypatch):
    # The reverse pairs are derived from the forward ones, so one search serves both.
    calls = []
    search = algos.k_hop_predecessors
    monkeypatch.setattr(algos, "k_hop_predecessors", lambda g, k: calls.append(k) or search(g, k))
    cfg = ModelConfig(in_dim=3, task="node-regress", k_hops=3, bidirectional=True)
    prepared = prepare_graphs([make_random_digraph(seed) for seed in range(4)], cfg)
    assert calls == [3]
    assert all(p.rev is not None for p in prepared)


def test_evaluate_rejects_empty_graph_list():
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2)
    with pytest.raises(ValueError, match="empty graph list"):
        evaluate(cfg, init_weights(cfg, RngStream(0)), [])


def test_prepare_graphs_empty_list():
    assert prepare_graphs([], ModelConfig(in_dim=3, task="node-regress")) == []


def test_restored_best_epoch_stays_in_the_flat_buffer(monkeypatch):
    # train() restores the best epoch by writing into ``params.flat``;
    # rebinding each tensor's data would detach it, and an optimizer step
    # on the buffer would then no longer reach the model.
    import dgssm.train as T
    from dgssm.model import model_forward, model_loss
    from dgssm.optim import AdamW

    sets, snapshots = [], []

    def init_and_keep(cfg, stream):
        sets.append(init_weights(cfg, stream))
        return sets[-1]

    monkeypatch.setattr(T, "init_weights", init_and_keep)
    run, splits = _tiny_run(epochs=6, lr=0.05, dropout=0.0)
    result = train(run, splits["train"], splits["val"], log_fn=lambda rec: snapshots.append(sets[0].flat.copy()))
    params = result.params
    assert params is sets[0] and result.best_epoch < len(result.history) - 1
    assert np.array_equal(params.flat, snapshots[result.best_epoch])
    for name, t in params.items():
        assert np.shares_memory(t.data, params.flat), name

    prepared = prepare_graphs(splits["train"][:8], run.model)
    batch, fwd, rev = T.collate(prepared)
    before = model_forward(batch, fwd, rev, run.model, params).data
    model_loss(model_forward(batch, fwd, rev, run.model, params), batch, run.model).backward()
    AdamW(params, lr=0.01).step()
    assert not np.array_equal(model_forward(batch, fwd, rev, run.model, params).data, before)


@pytest.mark.parametrize(
    "field, value, error",
    [("model", {"in_dim": 3}, "model must be ModelConfig, got {'in_dim': 3}"),
     ("out_dir", 5, r"out_dir must be str \| None, got 5"),
     ("weight_decay", float("inf"), "weight_decay must be a finite float, got inf"),
     ("lr", float("nan"), "lr must be a finite float, got nan")],
)
def test_runconfig_rejects_a_bad_model_out_dir_or_rate(field, value, error):
    # model={"in_dim": 3} used to die as a bare AttributeError in train, an
    # int out_dir as a bare TypeError after preprocessing, and an infinite
    # weight decay was accepted.
    run, _ = _tiny_run()
    with pytest.raises(ValueError, match=f"^{error}$"):
        RunConfig(**{**vars(run), field: value})
