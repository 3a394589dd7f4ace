"""Command-line interface.

Subcommands: gen, stats, train, eval, oracle-check, bench. The shared flags
``--seed``, ``--config``, ``--out`` and ``--json`` are registered only on the
subcommands that read them, so argparse rejects the rest; the environment
variable ``DGSSM_SEED`` overrides any other seed source.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bench import run_bench, scaling_summary
from .graphs import load_graphs
from .model import ModelConfig
from .oracle import SUITES, oracle_check
from .stats import compute_stats
from .synth import TASK_KINDS, SyntheticTaskSpec, gen_synthetic
from .train import RunConfig, evaluate_checkpoint, train


def _resolve_seed(args, config: dict | None = None) -> int | None:
    """DGSSM_SEED, then --seed, then the config's "seed"; None if none is set."""
    env = os.environ.get("DGSSM_SEED")
    if env is not None:
        return int(env)
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if config and "seed" in config:
        return int(config["seed"])
    return None


def _given(**values) -> dict:
    """The values that were set, so the library's defaults fill the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return json.loads(Path(args.config).read_text())
    return {}


def _reject_unknown_keys(path: str, section: dict, cls, where: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    for key in section:
        if key not in known:
            raise ValueError(
                f"{path}: unknown {where} key {key!r}; expected one of {sorted(known)}"
            )


_COMMON_FLAGS = {
    "seed": dict(type=int, default=None, help="random seed"),
    "config": dict(type=str, default=None, help="JSON config file"),
    "out": dict(type=str, default=None, help="output directory or file"),
    "json": dict(action="store_true", help="machine-readable output"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_COMMON_FLAGS[name])


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    spec = SyntheticTaskSpec(
        task=args.task,
        **_given(
            num_graphs=args.num_graphs,
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            edge_density=args.density,
            cycle_rate=args.cycle_rate,
            seed=_resolve_seed(args, cfg),
            k_true=args.k_true,
        ),
    )
    out = args.out or f"data-{args.task}"
    splits = gen_synthetic(spec, out)
    info = {name: len(gs) for name, gs in splits.items()}
    if args.json:
        print(json.dumps({"out": out, **info}))
    else:
        print(f"wrote {info} graphs to {out}/")
    return 0


def _cmd_stats(args) -> int:
    graphs = []
    for path in args.data:
        graphs.extend(load_graphs(path))
    k = math.inf if args.k in ("inf", None) else int(args.k)
    report = compute_stats(graphs, k)
    print(report.to_json() if args.json else report.format_text())
    return 0


def _infer_model_fields(data_dir: Path, train_graphs: list) -> dict:
    """The model fields the dataset fixes: feature width, task, class count."""
    task = json.loads((data_dir / "task_meta.json").read_text())["model_task"]
    num_classes = 0
    if task.endswith("classify"):
        labels = np.concatenate([np.atleast_1d(np.asarray(g.y)) for g in train_graphs])
        num_classes = int(labels.max()) + 1
    return dict(in_dim=train_graphs[0].feature_dim, task=task, num_classes=num_classes)


def _cmd_train(args) -> int:
    cfg_file = _load_config(args)
    _reject_unknown_keys(args.config, cfg_file, RunConfig, "run config")
    _reject_unknown_keys(args.config, cfg_file.get("model", {}), ModelConfig, "model")
    data_dir = Path(args.data)
    train_graphs = load_graphs(data_dir / "train.jsonl")
    val_graphs = load_graphs(data_dir / "val.jsonl")
    run = RunConfig.from_dict({
        **cfg_file,
        "model": {**_infer_model_fields(data_dir, train_graphs), **cfg_file.get("model", {})},
        "out_dir": args.out or cfg_file.get("out_dir", "run-out"),
        **_given(seed=_resolve_seed(args, cfg_file)),
    })

    def log(rec):
        if not args.json:
            keys = [k for k in rec if k.startswith("val_")]
            vals = " ".join(f"{k}={rec[k]:.4f}" for k in keys)
            print(f"epoch {rec['epoch']:3d} loss {rec['train_loss']:.4f} {vals}")

    result = train(run, train_graphs, val_graphs, log_fn=log)
    summary = {
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "checkpoint": result.checkpoint_path,
        "epochs_run": len(result.history),
    }
    print(json.dumps(summary) if args.json else f"done: {summary}")
    return 0


def _cmd_eval(args) -> int:
    graphs = load_graphs(args.data)
    if not graphs:
        raise ValueError(f"{args.data}: no graphs to evaluate")
    metrics = evaluate_checkpoint(args.checkpoint, graphs)
    if args.json:
        print(json.dumps(metrics))
    else:
        for k, v in metrics.items():
            print(f"{k}: {v:.6f}")
    return 0


def _cmd_oracle_check(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [oracle_check(n) for n in names]
    if args.json:
        print(
            json.dumps(
                [
                    {"name": r.name, "passed": r.passed, "max_err": r.max_err, "detail": r.detail}
                    for r in results
                ]
            )
        )
    else:
        for r in results:
            print(r)
    return 0 if all(r.passed for r in results) else 1


def _cmd_bench(args) -> int:
    ks = [int(x) for x in args.ks.split(",")] if args.ks else None
    records = run_bench(ks, **_given(seed=_resolve_seed(args)))
    summary = scaling_summary(records)
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"{'k':>3} {'pairs':>8} {'pre(s)':>8} {'powers(s)':>10} {'fwd(s)':>8} {'bwd(s)':>8}")
        for r in records:
            print(
                f"{r.k:>3} {r.total_pairs:>8} {r.preprocess_s:>8.3f} "
                f"{r.kernel_s:>10.4f} {r.forward_s:>8.3f} {r.backward_s:>8.3f}"
            )
        print(f"max superlinearity vs pair count: {summary['max_superlinearity']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgssm", description="Directed-graph SSM toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", required=True, choices=TASK_KINDS)
    # Unset flags take the SyntheticTaskSpec defaults.
    p.add_argument("--num-graphs", type=int)
    p.add_argument("--min-nodes", type=int)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--density", type=float, help="edge density")
    p.add_argument("--cycle-rate", type=float)
    p.add_argument("--k-true", type=int, help="reachability horizon")
    _add_common(p, "seed", "config", "out", "json")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--k", default="inf", help="hop bound for predecessor counts (int or 'inf')")
    _add_common(p, "json")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("train", help="train on a generated dataset directory")
    p.add_argument("--data", required=True, help="directory with train/val/test.jsonl + task_meta.json")
    _add_common(p, "seed", "config", "out", "json")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a graph file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    _add_common(p, "json")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("oracle-check", help="run an equivalence suite")
    p.add_argument("suite", choices=list(SUITES) + ["all"])
    _add_common(p, "json")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("bench", help="per-stage timing across hop bounds")
    p.add_argument("--ks", default=None, help="comma-separated hop bounds (default 1..9)")
    _add_common(p, "seed", "out", "json")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
