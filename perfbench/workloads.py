"""The benchmark's workloads: input generation, set-up, and one timed op.

Every call into the library goes through a module attribute (``T.collate``,
``M.model_forward`` ...) rather than a name imported into this file, so the
tracer's wrappers, which replace those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dgssm import model as M
from dgssm import optim, synth
from dgssm.graphs import DiGraph
from dgssm.rng import RngStream

# ``dgssm.train`` the function shadows ``dgssm.train`` the module on the package.
T = importlib.import_module("dgssm.train")

BATCH = 32


class OpFailure(RuntimeError):
    """An op finished but produced a non-finite loss, prediction or metric."""


def input_hash(graphs: list[DiGraph]) -> str:
    """SHA-256 over every graph's size, edges, features and label."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(np.array([g.num_nodes, g.num_edges], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(g.edges, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(g.node_features, dtype="<f8").tobytes())
        h.update(np.asarray(g.y, dtype="<f8").tobytes())
    return h.hexdigest()


def chain_graphs(seed: int, num_graphs: int = 8, nodes: int = 120) -> list[DiGraph]:
    """Chains with a skip edge j -> j+3 every 7 nodes; features and per-node
    targets are drawn from ``seed``. Kept here rather than taken from
    ``dgssm.bench`` so that changes to the library cannot move the workload."""
    stream = RngStream(seed)
    edges = [(j, j + 1) for j in range(nodes - 1)]
    edges += [(j, j + 3) for j in range(0, nodes - 3, 7)]
    return [
        DiGraph(
            nodes,
            np.array(edges),
            stream.normal(size=(nodes, 3)),
            y=stream.normal(size=nodes),
            graph_id=f"c{i}",
        )
        for i in range(num_graphs)
    ]


def _synthetic(task: str, num_graphs: int, seed: int) -> list[DiGraph]:
    spec = synth.SyntheticTaskSpec(task=task, num_graphs=num_graphs, seed=seed, splits=(1.0, 0.0, 0.0))
    return synth.gen_synthetic(spec)["train"]


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


class Batcher:
    """Consecutive fixed-size batches of a pool, reshuffled every pass, as
    the training loop draws them. Many distinct batches keep the median op
    time from hinging on a few batch costs."""

    def __init__(self, pool: list, size: int, stream: RngStream):
        self.pool, self.size, self.stream = pool, size, stream
        self._pending: list[np.ndarray] = []

    def next(self) -> list:
        if not self._pending:
            order = self.stream.permutation(len(self.pool))
            self._pending = [order[i : i + self.size] for i in range(0, len(order), self.size)]
        return [self.pool[int(i)] for i in self._pending.pop(0)]


# -- training workloads ------------------------------------------------------------


@dataclass
class TrainState:
    prepared: list
    batches: Batcher
    params: object
    opt: optim.AdamW
    drop: RngStream


@dataclass
class TrainWorkload:
    """One op = one AdamW step: collate, forward, loss, backward, update."""

    name: str
    cfg: M.ModelConfig
    make_inputs: object  # seed -> list[DiGraph]
    batch_size: int

    def generate(self, seed: int) -> list[DiGraph]:
        return self.make_inputs(seed)

    def setup(self, graphs: list[DiGraph], seed: int, work_dir: Path) -> TrainState:
        init_stream, order_stream, drop_stream = RngStream(seed).split(3)
        prepared = T.prepare_graphs(graphs, self.cfg)
        params = M.init_weights(self.cfg, init_stream)
        opt = optim.AdamW(params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-6)
        return TrainState(prepared, Batcher(prepared, self.batch_size, order_stream), params, opt, drop_stream)

    def op(self, state: TrainState) -> tuple[int, float]:
        """Returns (graphs processed, loss)."""
        batch, fwd, rev = T.collate(state.batches.next())
        preds = M.model_forward(
            batch, fwd, rev, self.cfg, state.params, train=True, stream=state.drop.child()
        )
        loss = M.model_loss(preds, batch, self.cfg)
        lv = loss.item()
        if not (math.isfinite(lv) and _finite(preds.data)):
            raise OpFailure(f"non-finite loss {lv} or prediction")
        state.opt.zero_grad()
        loss.backward()
        state.opt.step()
        return batch.num_graphs, lv

    def reference(self, graphs: list[DiGraph], seed: int, steps: int, work_dir: Path) -> list[float]:
        """Losses of ``steps`` ops after a fresh set-up on the first
        ``steps`` batches' worth of ``graphs``."""
        state = self.setup(graphs[: steps * self.batch_size], seed, work_dir)
        return [self.op(state)[1] for _ in range(steps)]

    def isolation_case(self, state: TrainState):
        """(cfg, params, prepared batch) for the alone-vs-batched check."""
        return self.cfg, state.params, state.prepared[: self.batch_size]

    def prepared_sample(self, state: TrainState, graphs: list[DiGraph], count: int, seed: int):
        pick = RngStream(seed).choice(len(state.prepared), size=count, replace=False)
        return self.cfg, [state.prepared[int(i)] for i in pick]


# -- evaluation workload -------------------------------------------------------------


@dataclass
class EvalState:
    checkpoint: Path
    slices: Batcher


@dataclass
class EvalWorkload:
    """One op = one ``evaluate_checkpoint`` call on a fixed-size graph slice."""

    name: str
    cfg: M.ModelConfig
    num_graphs: int
    slice_size: int

    def generate(self, seed: int) -> list[DiGraph]:
        return _synthetic("ancestor-count-regress", self.num_graphs, seed)

    def setup(self, graphs: list[DiGraph], seed: int, work_dir: Path) -> EvalState:
        init_stream, order_stream = RngStream(seed).split(2)
        params = M.init_weights(self.cfg, init_stream)
        opt = optim.AdamW(params, lr=1e-3, weight_decay=1e-6)
        path = work_dir / f"{self.name}.ckpt"
        M.save_model(path, self.cfg, params, opt_arrays=opt.state_arrays())
        return EvalState(path, Batcher(graphs, self.slice_size, order_stream))

    def op(self, state: EvalState) -> tuple[int, float]:
        graphs = state.slices.next()
        metrics = T.evaluate_checkpoint(state.checkpoint, graphs)
        if not _finite(list(metrics.values())):
            raise OpFailure(f"non-finite eval metrics {metrics}")
        return len(graphs), metrics["mse"]

    def reference(self, graphs: list[DiGraph], seed: int, steps: int, work_dir: Path) -> list[float]:
        """Metrics of one op on the first slice of ``graphs`` after a fresh
        set-up (``steps`` is unused: evaluation leaves the checkpoint as is)."""
        state = self.setup(graphs[: self.slice_size], seed, work_dir)
        metrics = T.evaluate_checkpoint(state.checkpoint, state.slices.next())
        return [metrics[k] for k in sorted(metrics)]

    def isolation_case(self, state: EvalState):
        cfg, params, _, _ = M.load_model(state.checkpoint)
        return cfg, params, T.prepare_graphs(state.slices.pool[:8], cfg)

    def prepared_sample(self, state: EvalState, graphs: list[DiGraph], count: int, seed: int):
        pick = RngStream(seed).choice(len(graphs), size=count, replace=False)
        return self.cfg, T.prepare_graphs([graphs[int(i)] for i in pick], self.cfg)


def _config(**kw) -> M.ModelConfig:
    base = dict(in_dim=3, hidden=32, heads=4, se_layers=1, ssm_state=8)
    return M.ModelConfig(**{**base, **kw})


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-depth-k4",
            cfg=_config(task="node-regress", num_layers=2, k_hops=4, dropout=0.1, bidirectional=True),
            make_inputs=lambda seed: _synthetic("depth-regress", 16 * BATCH, seed),
            batch_size=BATCH,
        ),
        TrainWorkload(
            name="train-chains-k16",
            cfg=_config(task="node-regress", num_layers=1, k_hops=16, dropout=0.0, bidirectional=False),
            make_inputs=chain_graphs,
            batch_size=8,
        ),
        EvalWorkload(
            name="eval-ancestors-k4",
            cfg=_config(task="graph-regress", num_layers=2, k_hops=4, dropout=0.1, bidirectional=True),
            num_graphs=8 * 64,
            slice_size=64,
        ),
    )
}
