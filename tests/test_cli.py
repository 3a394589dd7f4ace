import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgssm import cli
from dgssm.bench import BenchRecord, scaling_summary
from dgssm.checkpoint import CheckpointError
from dgssm.cli import build_parser, main
from dgssm.graphs import GraphFormatError, load_graphs
from dgssm.model import ModelConfig, from_dict, init_weights, save_model
from dgssm.rng import RngStream
from dgssm.synth import SyntheticTaskSpec, gen_synthetic
from dgssm.train import LabelError, RunConfig, evaluate, train


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


@pytest.mark.parametrize("lead", [False, True], ids=["alone", "after-a-full-file"])
def test_stats_names_an_empty_file(dataset, tmp_path, lead):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    files = [str(dataset / "train.jsonl")] * lead + [str(empty)]
    with pytest.raises(ValueError, match=r"empty\.jsonl: empty graph list"):
        main(["stats", "--data", *files])


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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_train_json_without_an_improving_epoch_is_valid_json(dataset, tmp_path, capsys):
    # With no epoch run, no epoch improves: the best value is null, not
    # Infinity, which RFC 8259 does not allow.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "epochs": 0}))
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out", str(tmp_path / "run-out"), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert summary["best_epoch"] == -1 and summary["best_val"] is None


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
    run = from_dict(
        RunConfig, {**TINY_RUN, "model": {**TINY_RUN["model"], "in_dim": 3, **model_fields}}
    )
    result = train(run, splits["train"], splits["val"])
    assert cli_metrics == evaluate(run.model, result.params, splits["test"])


@pytest.mark.parametrize(
    "run_json,match",
    [
        ({"learning_rate": 0.1}, "run.json: unknown RunConfig key 'learning_rate'"),
        ({"model": {"hiden": 8}}, "run.json: unknown ModelConfig key 'hiden'"),
        ({"epochs": "2"}, "run.json: epochs must be int, got '2'"),
        ({"model": {"dropout": "0.1"}}, "run.json: dropout must be float, got '0.1'"),
        ([1, 2], r"run.json: a run config must be a JSON object, got \[1, 2\]"),
        ({"betas": ["a", 1]}, r"run.json: betas must be tuple\[float, float\], got \('a', 1\)"),
        ({"betas": [0.9]}, r"run.json: betas must be tuple\[float, float\], got \(0.9,\)"),
        ({"batch_size": 0}, "run.json: batch_size must be >= 1, got 0"),
        ({"seed": -1}, "run.json: seed must be >= 0, got -1"),
        ({"model": {"num_layers": -1}}, "run.json: num_layers must be >= 0, got -1"),
        ({"model": [1, 2]}, r"run.json: model must be ModelConfig, got \[1, 2\]"),
        ({"model": {"dt_min": 0.5, "dt_max": 0.1}}, "run.json: need 0 < dt_min <= dt_max, got 0.5 and 0.1"),
        ({"model": {"k_hops": -1}}, "run.json: k_hops must be >= 0, got -1"),
        ({"model": {"task": "node-classify", "num_classes": 1}},
         "run.json: classification tasks need num_classes >= 2, got 1"),
        ({"model": {"dropout": 1.0}}, r"run.json: dropout must be in \[0, 1\), got 1.0"),
    ],
    ids=["top-level", "model", "top-level-type", "model-type", "not-an-object",
         "betas-type", "betas-length", "batch-size", "seed", "model-size", "model-not-an-object",
         "dt-range", "k-hops", "num-classes", "dropout"],
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


def test_oracle_check_receptive_field_json(capsys):
    # This suite computes its verdict and error with numpy; --json must
    # still print plain JSON.
    rc = main(["oracle-check", "receptive-field", "--json"])
    (result,) = json.loads(capsys.readouterr().out)
    assert rc == 0 and result["name"] == "receptive-field" and result["passed"] is True
    assert isinstance(result["max_err"], float)


def test_oracle_check_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["oracle-check", "bogus"])


def test_flag_rejected_where_not_read(dataset, tmp_path):
    # eval writes nothing, so it has no --out.
    with pytest.raises(SystemExit):
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
              "--data", str(dataset / "test.jsonl"), "--out", str(tmp_path / "x")])
    # gen takes its seed from --seed or DGSSM_SEED, so it has no --config.
    with pytest.raises(SystemExit):
        main(["gen", "--task", "depth-regress", "--config", str(tmp_path / "run.json"),
              "--out", str(tmp_path / "data")])


def test_eval_rejects_empty_data_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match=r"empty\.jsonl: empty graph list"):
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--data", str(empty)])


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("DGSSM_SEED", "77")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--task", "depth-regress", "--num-graphs", "6",
          "--min-nodes", "6", "--max-nodes", "9", "--seed", "1", "--out", str(out_a)])
    main(["gen", "--task", "depth-regress", "--num-graphs", "6",
          "--min-nodes", "6", "--max-nodes", "9", "--seed", "2", "--out", str(out_b)])
    assert (out_a / "train.jsonl").read_bytes() == (out_b / "train.jsonl").read_bytes()


def test_env_seed_must_be_an_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("DGSSM_SEED", "abc")
    with pytest.raises(ValueError, match="DGSSM_SEED must be an integer, got 'abc'"):
        main(["gen", "--task", "depth-regress", "--num-graphs", "6", "--out", str(tmp_path / "d")])


def test_env_seed_must_be_at_least_zero(tmp_path, monkeypatch):
    # It used to fail inside numpy's seeding.
    monkeypatch.setenv("DGSSM_SEED", "-1")
    with pytest.raises(ValueError, match="DGSSM_SEED must be >= 0, got '-1'"):
        main(["gen", "--task", "depth-regress", "--num-graphs", "6", "--out", str(tmp_path / "d")])
    assert not (tmp_path / "d").exists()


def test_bench_smoke(capsys):
    rc = main(["bench", "--ks", "1,2", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in summary["records"]] == [1, 2]
    assert summary["records"][1]["total_pairs"] > summary["records"][0]["total_pairs"]
    assert all(r["backward_s"] > 0 for r in summary["records"])


def test_scaling_summary_takes_the_smallest_k_as_reference():
    # From K=1 to K=6 the forward time grows 4x and the pairs 2x, whichever
    # order the sweep ran them in.
    low, high = BenchRecord(1, 100, 0.0, 1.0, 0.0), BenchRecord(6, 200, 0.0, 4.0, 0.0)
    for records in ([low, high], [high, low]):
        summary = scaling_summary(records)
        assert summary["reference_k"] == 1
        assert summary["max_superlinearity"] == 2.0


@pytest.mark.parametrize("ks", ["1", "3,3"])
def test_bench_reports_no_superlinearity_without_two_bounds(ks, monkeypatch, capsys):
    # One bound measures no growth; it used to report 0.0, which passes any
    # bound on superlinearity.
    monkeypatch.setattr(cli, "run_bench", lambda ks, **_: [BenchRecord(k, 100, 0.0, 1.0, 0.0) for k in ks])
    assert main(["bench", "--ks", ks, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_superlinearity"] is None
    assert main(["bench", "--ks", ks]) == 0
    assert capsys.readouterr().out.endswith("max superlinearity vs pair count: n/a\n")


@pytest.mark.parametrize("ks", ["1,x", "-1", "1,,2", "", "2.5"])
def test_bench_rejects_bad_hop_bounds(ks, capsys):
    # "1,x" used to end in a bare ValueError from int().
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--ks", ks])
    assert exit_info.value.code == 2
    assert f"argument --ks: must be comma-separated integers >= 0, got '{ks}'" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["-1", "1e9", "two"])
def test_stats_rejects_bad_hop_bound(dataset, k, capsys):
    with pytest.raises(SystemExit):
        main(["stats", "--data", str(dataset / "train.jsonl"), "--k", k])
    assert f"argument --k: must be an integer >= 0 or 'inf', got '{k}'" in capsys.readouterr().err


def _classifier_checkpoint(path):
    cfg = ModelConfig(in_dim=3, task="node-classify", num_classes=2, hidden=8, heads=2,
                      num_layers=1, ssm_state=4, k_hops=2, dropout=0.0)
    save_model(path, cfg, init_weights(cfg, RngStream(0)))
    return str(path)


def _regressor_checkpoint(path):
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=1,
                      ssm_state=4, k_hops=2, dropout=0.0)
    save_model(path, cfg, init_weights(cfg, RngStream(0)))
    return str(path)


def test_eval_rejects_checkpoint_of_another_task(dataset, tmp_path):
    ckpt = _classifier_checkpoint(tmp_path / "reach.ckpt")
    with pytest.raises(ValueError, match="task is 'node-classify', but .*task_meta.json names 'node-regress'"):
        main(["eval", "--checkpoint", ckpt, "--data", str(dataset / "test.jsonl")])


def test_eval_rejects_labels_outside_the_classes(dataset, tmp_path):
    # Without a task_meta.json beside the file, the depth labels themselves
    # give the mismatch away: most are not classes 0 or 1.
    ckpt = _classifier_checkpoint(tmp_path / "reach.ckpt")
    data = tmp_path / "depths.jsonl"
    data.write_text((dataset / "test.jsonl").read_text())
    with pytest.raises(LabelError, match=r"depths.jsonl: graph \d+ \(.*\): label \d+ is not a class"):
        main(["eval", "--checkpoint", ckpt, "--data", str(data)])


def test_eval_names_the_file_of_an_unlabelled_graph(dataset, tmp_path):
    ckpt = _regressor_checkpoint(tmp_path / "depth.ckpt")
    lines = (dataset / "test.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    del record["y"]
    data = tmp_path / "unlabelled.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(LabelError, match=r"unlabelled.jsonl: graph 1 \(.*\): no label"):
        main(["eval", "--checkpoint", ckpt, "--data", str(data)])


def test_eval_names_the_file_of_a_non_finite_label(dataset, tmp_path):
    ckpt = _regressor_checkpoint(tmp_path / "depth.ckpt")
    lines = (dataset / "test.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["y"][-1] = np.nan  # json writes NaN, and load_graphs reads it back
    data = tmp_path / "nan.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(LabelError, match=r"nan.jsonl: graph 1 \(.*\): label nan is not finite"):
        main(["eval", "--checkpoint", ckpt, "--data", str(data)])


def test_train_names_the_file_of_a_bad_label(dataset, tmp_path):
    lines = (dataset / "val.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["y"] = 1.0
    (dataset / "val.jsonl").write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    with pytest.raises(LabelError, match=r"val.jsonl: graph 0 \(.*\): a node-regress model needs one label per node"):
        main(["train", "--data", str(dataset), "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_train_names_a_non_finite_class_label(tmp_path):
    # The class count is inferred from the train labels; Infinity among them
    # used to die there as a bare OverflowError.
    data = tmp_path / "data"
    assert main(["gen", "--task", "reachability-classify", "--num-graphs", "8", "--seed", "3",
                 "--out", str(data)]) == 0
    lines = (data / "train.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["y"][-1] = np.inf  # json writes Infinity, and load_graphs reads it back
    (data / "train.jsonl").write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    with pytest.raises(LabelError, match=r"train.jsonl: graph 1 \(.*\): label inf is not a class"):
        main(["train", "--data", str(data), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_train_names_an_empty_file(tmp_path):
    # Two graphs leave the validation split empty.
    data = tmp_path / "data"
    assert main(["gen", "--task", "depth-regress", "--num-graphs", "2", "--out", str(data)]) == 0
    assert (data / "val.jsonl").read_text() == ""
    with pytest.raises(ValueError, match="val.jsonl: empty graph list"):
        main(["train", "--data", str(data), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "command, name, text, match",
    [
        ("train", "run.json", "{", "run.json: invalid JSON"),
        ("train", "task_meta.json", "{", "task_meta.json: invalid JSON"),
        ("train", "task_meta.json", '{"task": "depth-regress"}', "task_meta.json: model_task must be a string, got None"),
        ("train", "task_meta.json", "[1]", r"task_meta.json: a task meta must be a JSON object, got \[1\]"),
        ("eval", "task_meta.json", "{", "task_meta.json: invalid JSON"),
        ("eval", "task_meta.json", "[1]", r"task_meta.json: a task meta must be a JSON object, got \[1\]"),
    ],
    ids=["train-config-not-json", "train-meta-not-json", "train-meta-without-task",
         "train-meta-not-an-object", "eval-meta-not-json", "eval-meta-not-an-object"],
)
def test_json_file_errors_name_the_file(dataset, tmp_path, command, name, text, match):
    # These used to escape as a bare JSONDecodeError, KeyError, TypeError or
    # AttributeError.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    (cfg if name == "run.json" else dataset / name).write_text(text)
    argv = {"train": ["train", "--data", str(dataset), "--config", str(cfg), "--out", str(tmp_path / "out")],
            "eval": ["eval", "--checkpoint", _regressor_checkpoint(tmp_path / "depth.ckpt"),
                     "--data", str(dataset / "test.jsonl")]}[command]
    with pytest.raises(ValueError, match=match):
        main(argv)


# Relative paths in the fuzz's working directory, one of them missing.
_PATHS = ["data/train.jsonl", "data/test.jsonl", "data/task_meta.json", "data", "model.ckpt",
          "empty.jsonl", "junk.bin", "missing.jsonl"]
_RUN_ARGV = [["stats", "--data", "data/train.jsonl", "--k", "2", "--json"],
             ["eval", "--checkpoint", "model.ckpt", "--data", "data/test.jsonl", "--json"]]
_PARSE_ARGV = [["gen", "--task", "depth-regress", "--num-graphs", "6", "--seed", "1", "--out", "out"],
               ["train", "--data", "data", "--config", "run.json", "--out", "out", "--seed", "0"],
               ["oracle-check", "scc", "--json"],
               ["bench", "--ks", "1,2", "--seed", "0", "--out", "bench.json"]]
_VALUES = st.sampled_from(_PATHS) | st.sampled_from(["inf", "-1", "0", "2", "1e9", "1,2", "", "x", "scc"]) \
    | st.text(max_size=4).filter(lambda t: not t.startswith("-"))  # "-h" would exit 0
_TOKENS = _VALUES | st.sampled_from(
    ["stats", "eval", "gen", "train", "bench", "--data", "--checkpoint", "--k", "--ks", "--json",
     "--seed", "--config", "--out", "--task", "--num-graphs"])


@pytest.fixture
def fuzz_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("DGSSM_SEED", raising=False)
    gen_synthetic(SyntheticTaskSpec("depth-regress", num_graphs=6, min_nodes=5, max_nodes=7, seed=0),
                  tmp_path / "data")
    _regressor_checkpoint(tmp_path / "model.ckpt")
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "junk.bin").write_bytes(bytes(range(256)))
    monkeypatch.chdir(tmp_path)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_argv_exits_2_or_raises_a_typed_error(fuzz_dir, data, capsys):
    # stats and eval run on the fixture; the other subcommands are only
    # parsed, so that nothing is generated, trained or timed.
    argv = list(data.draw(st.sampled_from(_RUN_ARGV * 2 + _PARSE_ARGV)))
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(argv)))
        # Mostly a new value in place of a value, so that most argvs parse.
        kind = data.draw(st.sampled_from(["value"] * 4 + ["drop", "insert", "swap"]))
        values = [k for k, t in enumerate(argv) if k and not t.startswith("--")]
        if kind == "value" and values:
            argv[data.draw(st.sampled_from(values))] = data.draw(_VALUES)
        elif kind == "insert" or not argv:
            argv.insert(i, data.draw(_TOKENS))
        elif kind == "drop":
            argv.pop(min(i, len(argv) - 1))
        else:
            j = data.draw(st.integers(0, len(argv) - 1))
            i = min(i, len(argv) - 1)
            argv[i], argv[j] = argv[j], argv[i]
    files = []
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("stats", "eval"):
            files = [*np.atleast_1d(args.data), getattr(args, "checkpoint", "")]
            main(argv)
    except SystemExit as e:
        assert e.code == 2, argv
    except (GraphFormatError, CheckpointError, LabelError):
        pass
    except ValueError as e:
        assert any(f in str(e) for f in files), (argv, e)
    capsys.readouterr()
