import hashlib
import json

import numpy as np
import pytest

from tst import cli
from tst.model import load_checkpoint


def run(argv):
    return cli.main(argv)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """100 synthetic windows of length 64, written once per module."""
    path = tmp_path_factory.mktemp("data") / "set.csv"
    assert run(["synth", "--classes", "10", "--per-class", "10",
                "--seed", "3", "--length", "64", "--out", str(path)]) == 0
    return path


SMALL_MODEL = ["--ns", "8", "--dim", "12", "--dim-mlp", "16", "--dk", "4",
               "--heads", "2", "--depth", "2", "--length", "64",
               "--epochs", "2", "--batch-size", "16", "--lr", "1e-3"]


def test_synth_row_count_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["synth", "--classes", "10", "--per-class", "10", "--seed", "5",
                "--length", "64", "--out", str(a)]) == 0
    assert run(["synth", "--classes", "10", "--per-class", "10", "--seed", "5",
                "--length", "64", "--out", str(b)]) == 0
    rows = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 100
    assert sha(a) == sha(b)
    assert (tmp_path / "manifest.json").exists()


def test_train_writes_artifacts(small_dataset, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--data", str(small_dataset), "--seed", "1",
                "--out-dir", str(out)] + SMALL_MODEL)
    assert code == 0
    assert (out / "trial_report.csv").exists()
    assert (out / "model.tst").exists()
    assert (out / "confusion.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["dim"] == 12
    assert str(small_dataset) in manifest["inputs"]
    report = (out / "trial_report.csv").read_text().splitlines()
    assert report[0] == "epoch,train_loss,test_loss,train_acc,test_acc"
    matrix = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=int)
    assert matrix.shape == (10, 10)


def test_train_reruns_byte_identical(small_dataset, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["train", "--data", str(small_dataset), "--seed", "4",
                    "--out-dir", str(out)] + SMALL_MODEL) == 0
        outs.append(out)
    for artifact in ("trial_report.csv", "model.tst", "confusion.csv"):
        assert sha(outs[0] / artifact) == sha(outs[1] / artifact), artifact


def test_invalid_hyperparameters_fail_fast(small_dataset, tmp_path, capsys):
    code = run(["train", "--data", str(small_dataset), "--ns", "3",
                "--out-dir", str(tmp_path / "x")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()   # rejected before any training output
    code = run(["train", "--data", str(small_dataset), "--pdrop", "1.5",
                "--out-dir", str(tmp_path / "y")])
    assert code == cli.EXIT_CONFIG


def test_missing_dataset_is_data_error(tmp_path):
    code = run(["train", "--data", str(tmp_path / "nope.csv"),
                "--out-dir", str(tmp_path / "o")] + SMALL_MODEL)
    assert code == cli.EXIT_DATA


def test_config_file_roundtrip(small_dataset, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "L": 64, "ns": 8, "dim": 12, "dim_mlp": 16, "d_k": 4, "heads": 2,
        "depth": 2, "epochs": 1, "batch_size": 16, "lr": 1e-3,
    }))
    out = tmp_path / "run"
    assert run(["train", "--data", str(small_dataset), "--config", str(cfg_path),
                "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["ns"] == 8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_field": 1}))
    assert run(["train", "--data", str(small_dataset), "--config", str(bad),
                "--out-dir", str(out)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", [
    '{"dim": "32"}', '{"p_drop": null}', '{"dim": 32.5}', '{"epochs": true}',
    '{"dim": 32, "depth"', '[1, 2]',
], ids=["string_int", "null_float", "fractional_int", "bool_int", "truncated", "not_object"])
def test_malformed_config_file_is_one_line_config_error(small_dataset, tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code = run(["train", "--data", str(small_dataset), "--config", str(cfg_path),
                "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["inf", "1e39"])
def test_non_finite_csv_sample_is_one_line_data_error(tmp_path, capsys, value):
    rows = [f"{i % 10}," + ",".join(["0.5"] * 64) for i in range(20)]
    rows[6] = rows[6].rsplit(",", 1)[0] + "," + value
    path = tmp_path / "set.csv"
    path.write_text("\n".join(rows) + "\n")
    code = run(["train", "--data", str(path), "--out-dir", str(tmp_path / "run")]
               + SMALL_MODEL)
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err == f"data error: {path}:7: non-finite sample value\n"


def test_study_degenerate_and_aggregates(small_dataset, tmp_path):
    out = tmp_path / "study"
    assert run(["study", "--data", str(small_dataset), "--trials", "2",
                "--base-seed", "7", "--out-dir", str(out)] + SMALL_MODEL) == 0
    lines = (out / "study_report.csv").read_text().splitlines()
    assert lines[0] == "trial,seed,final_test_acc,status"
    summary = lines[-1]
    assert summary.startswith("summary,trials=2,")
    assert (out / "trial_7.csv").exists() and (out / "trial_8.csv").exists()


def test_study_with_every_trial_aborted_exits_4(small_dataset, tmp_path, capsys):
    out = tmp_path / "study"
    code = run(["study", "--data", str(small_dataset), "--trials", "2",
                "--out-dir", str(out)] + SMALL_MODEL + ["--lr", "1e30"])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("runtime error: all 2 trials aborted")
    lines = (out / "study_report.csv").read_text().splitlines()
    assert [l.split(",")[1] for l in lines[1:3]] == ["0", "1"]
    assert all(",nan,failed: non-finite" in l for l in lines[1:3])
    assert lines[-1] == "summary,trials=0,top_acc=nan,min_acc=nan,avg_acc=nan,std=nan"


def test_unexpected_exception_is_one_line_exit_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("unexpected\nacross lines")

    monkeypatch.setattr(cli, "cmd_cost", broken)
    assert run(["cost"]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "internal error: RuntimeError: unexpected across lines\n"


def test_cost_sweep(capsys):
    assert run(["cost", "--sweep", "table4"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1 + 23
    assert "405.52" in out and "3.41" in out and "707.69" in out and "39.51" in out
    assert run(["cost", "--sweep", "bogus"]) == cli.EXIT_CONFIG


def test_cost_single_config_deterministic(capsys):
    assert run(["cost", "--dim", "64", "--dim-mlp", "128"]) == 0
    first = capsys.readouterr().out
    assert run(["cost", "--dim", "64", "--dim-mlp", "128"]) == 0
    assert capsys.readouterr().out == first
    assert "parameters (full)" in first


def test_cost_sweep_csv(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert run(["cost", "--sweep", "table4", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 23
    assert lines[0].startswith("label,ns,sub_len,dim")


def test_embed_stage_count(small_dataset, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data", str(small_dataset), "--seed", "2",
                "--out-dir", str(out)] + SMALL_MODEL) == 0
    emb = tmp_path / "embedding.csv"
    assert run(["embed", "--checkpoint", str(out / "model.tst"),
                "--data", str(small_dataset), "--perplexity", "8",
                "--iterations", "260", "--seed", "0", "--out", str(emb)]) == 0
    lines = emb.read_text().splitlines()
    assert lines[0] == "block_index,label,x,y"
    body = lines[1:]
    assert len(body) == (2 + 1) * 100           # depth 2 -> 3 stages
    stages = {int(l.split(",")[0]) for l in body}
    assert stages == {0, 1, 2}

    model = load_checkpoint(out / "model.tst")
    assert model.config.depth == 2


def test_embed_perplexity_guard(small_dataset, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data", str(small_dataset), "--seed", "2",
                "--out-dir", str(out)] + SMALL_MODEL) == 0
    code = run(["embed", "--checkpoint", str(out / "model.tst"),
                "--data", str(small_dataset), "--perplexity", "40",
                "--out", str(tmp_path / "e.csv")])
    assert code == cli.EXIT_CONFIG
