"""The benchmark's tracer wraps library functions by name, and its workloads
call the library directly; renaming or deleting either would otherwise only
fail when a benchmark run starts. The workloads' seed-0 inputs also pin that
the tape-free eval forward predicts what a recording forward does."""

import hashlib
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dgssm import algos
from dgssm.graphs import DiGraph, _csr, batch_graphs
from dgssm.model import load_model, model_forward
from dgssm.train import collate, predict_dataset, prepare_graphs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _perfbench():
    # perfbench's modules import each other by bare name, as run.py does.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


def test_traced_op_charges_each_block(tmp_path):
    # The tracer tells the scan and fusion directions apart by argument
    # position, so reordering the arguments of digraph_ssm_scan,
    # digraph_fusion_attention or dirgraphssm_layer would charge one
    # direction's time to the other; each block must read above 0.
    workloads, _ = _perfbench()
    tracer_module = importlib.import_module("tracer")
    autodiff = importlib.import_module("dgssm.autodiff")
    node = autodiff._node
    wl = workloads.WORKLOADS["train-depth-k4"]
    state = wl.setup(wl.generate(0), 0, tmp_path)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with tracer.unit("op"):
            wl.op(state)
    finally:
        tracer.uninstall()
    assert autodiff._node is node
    metrics, _ = tracer.layer_metrics()
    for name in ("scan_fwd", "scan_rev", "fusion_fwd", "fusion_rev"):
        assert metrics[f"model.{name}.forward_s"]["value"] > 0, name
        assert metrics[f"model.{name}.backward_s"]["value"] > 0, name
    assert metrics["model.head.backward_s"]["value"] > 0


@pytest.mark.parametrize("name", ["train-depth-k4", "train-chains-k16", "eval-ancestors-k4"])
def test_workload_runs_one_op(name, tmp_path):
    # The benchmark's calls into the library (set-up, checkpoint, one op and
    # the isolation check) work, so deleting one fails here first.
    workloads, checks = _perfbench()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(wl.generate(0), 0, tmp_path)
    count, value = wl.op(state)
    assert count > 0 and math.isfinite(value)
    assert checks.batch_isolation(*wl.isolation_case(state)) is None


@pytest.mark.parametrize("name", ["train-depth-k4", "train-chains-k16", "eval-ancestors-k4"])
def test_predict_dataset_matches_a_recording_forward(name, tmp_path):
    # predict_dataset runs without a tape; the arithmetic is the same, so its
    # predictions on each workload's seed-0 first batch or slice are the
    # recording forward's to the bit.
    workloads, _ = _perfbench()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(wl.generate(0), 0, tmp_path)
    if isinstance(state, workloads.EvalState):
        cfg, params, _, _ = load_model(state.checkpoint)
        prepared = prepare_graphs(state.slices.next(), cfg)
    else:
        cfg, params, prepared = wl.cfg, state.params, state.batches.next()
    preds, _ = predict_dataset(prepared, cfg, params)
    recorded = model_forward(*collate(prepared), cfg, params, train=False)
    assert recorded.requires_grad and len(prepared) <= 64
    assert np.array_equal(preds, recorded.data)


@pytest.mark.parametrize("name", ["train-depth-k4", "train-chains-k16", "eval-ancestors-k4"])
def test_workload_union_condensation_matches_tarjan_alone(name):
    # The seed-0 union each workload preprocesses: the level peel and its
    # handover give Tarjan's depth and partition over the whole union.
    workloads, _ = _perfbench()
    union = batch_graphs(workloads.WORKLOADS[name].generate(0))
    n, src, dst = union.num_nodes, union.edges[:, 0], union.edges[:, 1]
    component, depth = algos.condensation(DiGraph(n, union.edges, np.zeros((n, 1))))
    want_component, want_depth = algos._tarjan(n, *_csr(dst, src, n), [0] * n)
    assert np.array_equal(depth, want_depth)
    # The same partition: each id of one labelling meets one id of the other.
    joint = np.unique(np.stack([component, want_component]), axis=1).shape[1]
    assert joint == len(np.unique(component)) == len(np.unique(want_component))


def _artifact_digest(prepared) -> str:
    """SHA-256 over depth, PageRank, hop pairs and distances, forward then
    reverse, of every prepared graph in order."""
    h = hashlib.sha256()
    for p in prepared:
        for arts in (p.fwd, p.rev):
            if arts is None:
                continue
            for a, dtype in ((arts.depth, "<i8"), (arts.pagerank, "<f8"),
                             (arts.k_hop_edge_index, "<i8"), (arts.k_hop_spd, "<i8")):
                h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


# Recorded when PageRank ran once per direction and the reverse pairs came
# from a stable argsort; any change to the preprocessing must keep them. The
# two k = 4 workloads draw the same seed-0 graphs (only the labels differ),
# so they share a digest.
PREPARED_DIGESTS = {
    "train-depth-k4": "3e8b46ae6ae7229836a7df088ae2d401e5503b6e7ca545a7f081691a3d251e16",
    "train-chains-k16": "0a1406e081d8f4d5558b9b9b86e07bf7e842468ec4e84c85eae6b778d912e4b4",
    "eval-ancestors-k4": "3e8b46ae6ae7229836a7df088ae2d401e5503b6e7ca545a7f081691a3d251e16",
}


@pytest.mark.parametrize("name", sorted(PREPARED_DIGESTS))
def test_workload_preprocessing_keeps_its_bits(name):
    # Each workload's seed-0 graphs, preprocessed in one pass as its set-up
    # (train) or every op (eval) does: both directions where it has two.
    workloads, _ = _perfbench()
    wl = workloads.WORKLOADS[name]
    prepared = prepare_graphs(wl.generate(0), wl.cfg)
    assert (prepared[0].rev is None) == (not wl.cfg.bidirectional)
    assert _artifact_digest(prepared) == PREPARED_DIGESTS[name]


def test_prepare_graphs_builds_each_direction_once_per_list(monkeypatch):
    # The seed-0 depth list of 512 graphs: one forward and one reverse
    # artifacts object for the whole list, no copy per graph.
    workloads, _ = _perfbench()
    wl = workloads.WORKLOADS["train-depth-k4"]
    graphs = wl.generate(0)
    built = []
    init = algos.PreprocessArtifacts.__init__
    monkeypatch.setattr(algos.PreprocessArtifacts, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    prepared = prepare_graphs(graphs, wl.cfg)
    assert len(prepared) == 512 and len(built) == 2


def _batch_digest(batch, fwd, rev) -> str:
    """SHA-256 over a collated batch: its edges, features, graph index and
    labels, then depth, PageRank, hop pairs and distances, forward then
    reverse."""
    h = hashlib.sha256()
    for a, dtype in ((batch.edges, "<i8"), (batch.node_features, "<f8"),
                     (batch.batch_index, "<i8"), (batch.labels(), "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    for arts in (fwd, rev):
        if arts is None:
            continue
        for a, dtype in ((arts.depth, "<i8"), (arts.pagerank, "<f8"),
                         (arts.k_hop_edge_index, "<i8"), (arts.k_hop_spd, "<i8")):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


# Recorded when each prepared graph held its own per-graph copy of its
# artifacts and collate concatenated those copies; any change to how
# collate assembles a batch must keep them.
COLLATE_DIGESTS = {
    "train-depth-k4": "cd467f4fb07f0c2c9aa0982139be78019ad55d18c27daa352469563398c9149e",
    "train-chains-k16": "b57ded236a820b8fabb3ecc8c56d27c6d7d9a6bc4d0cdc8d7eb6d749ba2b0168",
    "eval-ancestors-k4": "75b621ae570862d88b2f46f8925c16f9c4f1c49f8477dee4cf3c0914b97a7a45",
}


@pytest.mark.parametrize("name", sorted(COLLATE_DIGESTS))
def test_workload_first_batch_keeps_its_bits(name, tmp_path):
    # What collate hands the model on each workload's seed-0 first batch
    # (train) or first slice (eval), after the workload's own set-up.
    workloads, _ = _perfbench()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(wl.generate(0), 0, tmp_path)
    if isinstance(state, workloads.EvalState):
        items = prepare_graphs(state.slices.next(), wl.cfg)
    else:
        items = state.batches.next()
    batch, fwd, rev = collate(items)
    assert (rev is None) == (not wl.cfg.bidirectional)
    assert _batch_digest(batch, fwd, rev) == COLLATE_DIGESTS[name]
