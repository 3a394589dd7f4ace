"""Command-line interface.

Subcommands: gen, stats, train, eval, oracle-check, bench. The shared flags
``--seed``, ``--config``, ``--out`` and ``--json`` are registered only on the
subcommands that read them, so argparse rejects the rest; the environment
variable ``DGSSM_SEED`` overrides any other seed source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bench import run_bench, scaling_summary
from .graphs import load_graphs
from .model import from_dict, load_model
from .oracle import SUITES, oracle_check
from .stats import compute_stats
from .synth import TASK_KINDS, SyntheticTaskSpec, gen_synthetic
from .train import RunConfig, check_dataset, evaluate, train


def _resolve_seed(args, config: dict | None = None) -> int | None:
    """DGSSM_SEED, then --seed, then the config's "seed"; None if none is set."""
    env = os.environ.get("DGSSM_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"DGSSM_SEED must be an integer, got {env!r}") from None
        if seed < 0:
            raise ValueError(f"DGSSM_SEED must be >= 0, got {env!r}")
        return seed
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if config and "seed" in config:
        return config["seed"]  # as written, so that RunConfig checks its type
    return None


def _load_nonempty(path: str | Path) -> list:
    """The graphs in the file at ``path``; an empty list is a ``ValueError``
    naming the file."""
    graphs = load_graphs(path)
    if not graphs:
        raise ValueError(f"{path}: empty graph list")
    return graphs


def _given(**values) -> dict:
    """The values that were set, so the library's defaults fill the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; anything else is a
    ``ValueError`` naming the file."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise ValueError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(value, dict):
        raise ValueError(f"{path}: a {what} must be a JSON object, got {value!r:.80}")
    return value


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
    spec = SyntheticTaskSpec(
        task=args.task,
        **_given(
            num_graphs=args.num_graphs,
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            edge_density=args.density,
            cycle_rate=args.cycle_rate,
            seed=_resolve_seed(args),
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


def _hop_bound(text: str) -> int | float:
    """A hop bound: an integer >= 0, or "inf" for unbounded."""
    if text == "inf":
        return math.inf
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0 or 'inf', got {text!r}")
    return int(text)


def _hop_bounds(text: str) -> list[int]:
    """Comma-separated hop bounds, each an integer >= 0."""
    parts = text.split(",")
    if not all(part.isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(f"must be comma-separated integers >= 0, got {text!r}")
    return [int(part) for part in parts]


def _cmd_stats(args) -> int:
    graphs = [g for path in args.data for g in _load_nonempty(path)]
    report = compute_stats(graphs, args.k)
    print(report.to_json() if args.json else report.format_text())
    return 0


def _infer_model_fields(data_dir: Path, train_graphs: list) -> dict:
    """The model fields the dataset fixes: feature width, task, class count."""
    meta = data_dir / "task_meta.json"
    task = _read_json_object(meta, "task meta").get("model_task")
    if not isinstance(task, str):
        raise ValueError(f"{meta}: model_task must be a string, got {task!r:.40}")
    num_classes = 0
    if task.endswith("classify"):
        # A missing label reads NaN here; check_dataset rejects it by name.
        labels = np.concatenate([np.atleast_1d(np.asarray(g.y, dtype=np.float64)) for g in train_graphs])
        num_classes = int(np.nanmax(labels, initial=0)) + 1
    return dict(in_dim=train_graphs[0].feature_dim, task=task, num_classes=num_classes)


def _cmd_train(args) -> int:
    cfg_file = _read_json_object(args.config, "run config") if args.config else {}
    model_file = cfg_file.get("model", {})
    data_dir = Path(args.data)
    paths = [data_dir / "train.jsonl", data_dir / "val.jsonl"]
    lists = [_load_nonempty(path) for path in paths]
    train_graphs, val_graphs = lists
    fields = {
        **cfg_file,
        # A non-object "model" goes to RunConfig as it is, which names it.
        "model": {**_infer_model_fields(data_dir, train_graphs), **model_file}
        if isinstance(model_file, dict) else model_file,
        "out_dir": args.out or cfg_file.get("out_dir", "run-out"),
        **_given(seed=_resolve_seed(args, cfg_file)),
    }
    try:
        run = from_dict(RunConfig, fields)
    except ValueError as e:
        if not args.config:
            raise
        raise ValueError(f"{args.config}: {e}") from e

    def log(rec):
        if not args.json:
            keys = [k for k in rec if k.startswith("val_")]
            vals = " ".join(f"{k}={rec[k]:.4f}" for k in keys)
            print(f"epoch {rec['epoch']:3d} loss {rec['train_loss']:.4f} {vals}")

    for path, graphs in zip(paths, lists):
        check_dataset(run.model, graphs, str(path))
    result = train(run, train_graphs, val_graphs, log_fn=log)
    summary = {
        "best_epoch": result.best_epoch,
        # With no improving epoch there is no best value, and JSON has no NaN.
        "best_val": result.best_val if result.best_epoch >= 0 else None,
        "checkpoint": result.checkpoint_path,
        "epochs_run": len(result.history),
    }
    print(json.dumps(summary) if args.json else f"done: {summary}")
    return 0


def _cmd_eval(args) -> int:
    graphs = _load_nonempty(args.data)
    cfg, params, _, _ = load_model(args.checkpoint)
    meta = Path(args.data).with_name("task_meta.json")
    task = _read_json_object(meta, "task meta").get("model_task", cfg.task) if meta.exists() else cfg.task
    if task != cfg.task:
        raise ValueError(f"{args.data}: the checkpoint's task is {cfg.task!r}, but {meta} names {task!r}")
    metrics = evaluate(cfg, params, graphs, name=args.data)
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
    records = run_bench(args.ks, **_given(seed=_resolve_seed(args)))
    summary = scaling_summary(records)
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"{'k':>3} {'pairs':>8} {'pre(s)':>8} {'fwd(s)':>8} {'bwd(s)':>8}")
        for r in records:
            print(
                f"{r.k:>3} {r.total_pairs:>8} {r.preprocess_s:>8.3f} "
                f"{r.forward_s:>8.3f} {r.backward_s:>8.3f}"
            )
        worst = summary["max_superlinearity"]
        print(f"max superlinearity vs pair count: {'n/a' if worst is None else f'{worst:.3f}'}")
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
    _add_common(p, "seed", "out", "json")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--k", type=_hop_bound, default="inf",
                   help="hop bound for predecessor counts (int >= 0 or 'inf')")
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
    p.add_argument("--ks", type=_hop_bounds, default=None,
                   help="comma-separated hop bounds (default 1..9)")
    _add_common(p, "seed", "out", "json")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A bad flag exits with argparse's status 2; a bad
    file raises a ``ValueError`` (or one of its typed subclasses) naming it."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:  # a missing or unreadable file
        raise ValueError(f"{e.filename}: {e.strerror}" if e.filename else str(e)) from e


if __name__ == "__main__":
    sys.exit(main())
