import json

import numpy as np
import pytest

from dgssm.cli import main
from dgssm.graphs import load_graphs
from dgssm.synth import SyntheticTaskSpec, gen_synthetic
from dgssm.train import RunConfig, evaluate, train


TINY_RUN = {
    "model": {"hidden": 8, "heads": 2, "num_layers": 1, "se_layers": 1,
              "ssm_state": 4, "k_hops": 2, "dropout": 0.0},
    "lr": 3e-3, "epochs": 2, "batch_size": 8,
}


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    rc = main([
        "gen", "--task", "depth-regress", "--num-graphs", "24",
        "--min-nodes", "8", "--max-nodes", "12", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    return out


def test_gen_writes_splits_and_meta(dataset):
    assert (dataset / "train.jsonl").exists()
    meta = json.loads((dataset / "task_meta.json").read_text())
    assert meta["task"] == "depth-regress"
    assert len(load_graphs(dataset / "train.jsonl")) == 17


def test_stats_json_output(dataset, capsys):
    rc = main(["stats", "--data", str(dataset / "train.jsonl"), "--k", "2", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_graphs"] == 17
    assert report["k"] == 2


def test_stats_text_output(dataset, capsys):
    rc = main(["stats", "--data", str(dataset / "train.jsonl")])
    assert rc == 0
    assert "Avg p_inf per node" in capsys.readouterr().out


def test_train_and_eval_round_trip(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    out = tmp_path / "run-out"
    rc = main([
        "train", "--data", str(dataset), "--config", str(cfg),
        "--out", str(out), "--seed", "0", "--json",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["checkpoint"]
    rc = main(["eval", "--checkpoint", summary["checkpoint"],
               "--data", str(dataset / "test.jsonl"), "--json"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert "rmse" in metrics


@pytest.mark.parametrize(
    "task,model_fields",
    [
        ("depth-regress", {"task": "node-regress", "num_classes": 0}),
        ("reachability-classify", {"task": "node-classify", "num_classes": 2}),
    ],
    ids=["depth-regress", "reachability-classify"],
)
def test_gen_train_eval_matches_library(task, model_fields, tmp_path, capsys, monkeypatch):
    # The README recipe, with every gen flag but the task, size and seed left
    # at its default, must reproduce the in-memory library path exactly.
    monkeypatch.delenv("DGSSM_SEED", raising=False)
    data = tmp_path / "data"
    assert main(["gen", "--task", task, "--num-graphs", "20", "--seed", "4",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(tmp_path / "run-out"), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["eval", "--checkpoint", summary["checkpoint"],
                 "--data", str(data / "test.jsonl"), "--json"]) == 0
    cli_metrics = json.loads(capsys.readouterr().out)

    splits = gen_synthetic(SyntheticTaskSpec(task, num_graphs=20, seed=4))
    run = RunConfig.from_dict(
        {**TINY_RUN, "model": {**TINY_RUN["model"], "in_dim": 3, **model_fields}}
    )
    result = train(run, splits["train"], splits["val"])
    assert cli_metrics == evaluate(run.model, result.params, splits["test"])


@pytest.mark.parametrize(
    "run_json,match",
    [
        ({"learning_rate": 0.1}, "run.json: unknown run config key 'learning_rate'"),
        ({"model": {"hiden": 8}}, "run.json: unknown model key 'hiden'"),
    ],
    ids=["top-level", "model"],
)
def test_train_rejects_unknown_config_key(dataset, tmp_path, run_json, match):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(run_json))
    with pytest.raises(ValueError, match=match):
        main(["train", "--data", str(dataset), "--config", str(cfg),
              "--out", str(tmp_path / "run-out")])


def test_oracle_check_subcommand(capsys):
    rc = main(["oracle-check", "scc", "--json"])
    assert rc == 0
    (result,) = json.loads(capsys.readouterr().out)
    assert result["name"] == "scc" and result["passed"]


def test_oracle_check_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["oracle-check", "bogus"])


def test_flag_rejected_where_not_read(dataset, tmp_path):
    # eval writes nothing, so it has no --out.
    with pytest.raises(SystemExit):
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
              "--data", str(dataset / "test.jsonl"), "--out", str(tmp_path / "x")])


def test_eval_rejects_empty_data_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty.jsonl: no graphs"):
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--data", str(empty)])


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("DGSSM_SEED", "77")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--task", "depth-regress", "--num-graphs", "6",
          "--min-nodes", "6", "--max-nodes", "9", "--seed", "1", "--out", str(out_a)])
    main(["gen", "--task", "depth-regress", "--num-graphs", "6",
          "--min-nodes", "6", "--max-nodes", "9", "--seed", "2", "--out", str(out_b)])
    assert (out_a / "train.jsonl").read_bytes() == (out_b / "train.jsonl").read_bytes()


def test_bench_smoke(capsys):
    rc = main(["bench", "--ks", "1,2", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in summary["records"]] == [1, 2]
    assert summary["records"][1]["total_pairs"] > summary["records"][0]["total_pairs"]
    assert all(r["backward_s"] > 0 for r in summary["records"])
