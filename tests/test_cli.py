import contextlib
import glob
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ, call_bounded
from tst import analysis, cli, data, training
from tst import model as tstmodel
from tst.model import TSTConfig, TSTModel, load_checkpoint, save_checkpoint


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


def test_manifest_records_the_arguments_main_parsed(tmp_path, monkeypatch):
    argv = ["synth", "--classes", "2", "--per-class", "2", "--length", "16",
            "--out", str(tmp_path / "set.csv")]
    assert run(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["argv"] == argv and "argv" not in manifest["flags"]
    monkeypatch.setattr(sys, "argv", ["tst"] + argv[:-1] + [str(tmp_path / "again.csv")])
    assert cli.main() == 0   # no list given: the process's arguments after the program name
    assert json.loads((tmp_path / "manifest.json").read_text())["argv"] == sys.argv[1:]


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


ON_TWO_CORES_WITH_OPENBLAS = (
    hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) == 2
    and bool(glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so")))

DESK_MODEL = ["--length", "512", "--ns", "64", "--dim", "32", "--dim-mlp", "64", "--dk", "16",
              "--heads", "2", "--depth", "2", "--epochs", "1", "--batch-size", "64",
              "--lr", "1e-3"]


@pytest.mark.skipif(not ON_TWO_CORES_WITH_OPENBLAS,
                    reason="needs a CPU affinity of exactly 2 cores and numpy's bundled OpenBLAS")
def test_train_outputs_do_not_depend_on_the_openblas_thread_count(tmp_path):
    """A desk-shaped trial trains and evaluates its batches of 64 as two row shards, the
    second on the worker thread; on 2 cores every GEMM runs at one OpenBLAS thread whatever
    OPENBLAS_NUM_THREADS says."""
    dataset = tmp_path / "desk.csv"
    assert run(["synth", "--classes", "10", "--per-class", "30", "--seed", "1",
                "--length", "512", "--out", str(dataset)]) == 0
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent
                                                           / "src"), base.get("PYTHONPATH")]))
    outputs = []
    for name, env in (("one", {**base, "OPENBLAS_NUM_THREADS": "1"}), ("default", base)):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "tst.cli", "train", "--data", str(dataset),
                               "--seed", "1", "--out-dir", str(out)] + DESK_MODEL,
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / f).read_bytes()
                        for f in ("model.tst", "trial_report.csv", "confusion.csv")])
    assert outputs[0] == outputs[1]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_the_package_trains_and_runs_float64_without_scipy():
    # numpy is the only runtime dependency: with every scipy import failing, the CLI
    # imports, a float32 trial of one training step runs and a float64 forward runs
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None   # any import of scipy now raises ImportError\n"
        "import numpy as np\n"
        "from tst import cli, data, training\n"
        "from tst.model import TSTConfig, TSTModel\n"
        "cfg = TSTConfig(L=16, ns=4, dim=4, dim_mlp=4, d_k=2, heads=1, depth=1, n_class=2,\n"
        "                epochs=1, batch_size=4)\n"
        "windows = data.generate_synthetic(data.default_synthetic_spec()[:2], 3, seed=0,\n"
        "                                  length=16)\n"
        "split = data.split_train_test(windows, 4, 2, seed=0)\n"
        "report = training.train(TSTModel(cfg, seed=0), split, cfg, seed=0)\n"
        "x = np.random.default_rng(0).normal(size=(2, 16))\n"
        "logits = TSTModel(cfg, seed=0, dtype=np.float64).forward(x).logits.data\n"
        "assert logits.dtype == np.float64 and np.isfinite(logits).all()\n"
        "print(len(report.train_loss), 'scipy.special' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


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


def test_config_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text('{"dim": 32, "depth": 2}')
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run(["cost", "--config", str(plain)]) == 0
    want = capsys.readouterr().out
    assert run(["cost", "--config", str(marked)]) == 0
    assert capsys.readouterr().out == want


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


@pytest.mark.parametrize("per_class, length", [(10**6, 10**6), (2**32, 2**32),
                                              (cli.MAX_SYNTH_SAMPLES // 20 + 1, 2)])
def test_synth_rejects_more_samples_than_its_bound_before_any_window(tmp_path, capsys,
                                                                    per_class, length):
    out = tmp_path / "set.csv"
    argv = ["synth", "--classes", "10", "--per-class", str(per_class), "--length", str(length),
            "--out", str(out)]
    assert call_bounded(lambda: run(argv), 2**22) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: --classes x --per-class x --length must be <= "
        f"{cli.MAX_SYNTH_SAMPLES} samples, got {10 * per_class * length}\n")
    assert not out.exists()


def test_study_checks_trials_and_jobs_before_any_work(small_dataset, tmp_path, capsys):
    out = tmp_path / "study"
    argv = ["study", "--data", str(small_dataset), "--trials", "3000000", "--jobs", "0",
            "--out-dir", str(out)] + SMALL_MODEL
    # a list of 3e6 seeds alone would take some 100 MB
    assert call_bounded(lambda: run(argv), 2**22) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --jobs must be >= 1, got 0\n"
    assert not out.exists()


def test_study_rejects_more_jobs_than_cores_before_any_work(tmp_path, capsys):
    jobs = tstmodel._CORES + 1
    out = tmp_path / "study"
    argv = ["study", "--data", str(tmp_path / "nope.csv"), "--trials", "1", "--jobs", str(jobs),
            "--out-dir", str(out)]
    assert run(argv) == cli.EXIT_CONFIG   # not the missing file's data error
    assert capsys.readouterr().err == (f"config error: --jobs must be <= {tstmodel._CORES}, "
                                       f"the usable cores, got {jobs}\n")
    assert not out.exists()


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 2**32])
def test_study_rejects_more_trials_than_its_bound_before_any_work(small_dataset, tmp_path,
                                                                  capsys, trials):
    out = tmp_path / "study"
    argv = ["study", "--data", str(small_dataset), "--trials", str(trials),
            "--out-dir", str(out)] + SMALL_MODEL
    assert call_bounded(lambda: run(argv), 2**22) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: --trials must be <= {cli.MAX_TRIALS}, "
                                       f"got {trials}\n")
    assert not out.exists()


# 3.37e9 parameters, some 13.5 GB of float32 weights alone
HUGE_MODEL = ["--length", "64", "--ns", "8", "--dim", "16384", "--dim-mlp", "16384"]


@pytest.mark.parametrize("command", [["train"], ["study", "--trials", "1"]], ids=" ".join)
def test_training_rejects_more_parameters_than_its_bound_before_any_work(tmp_path, capsys,
                                                                         command):
    out = tmp_path / "run"
    # the data file is missing, so a check after loading would exit 3, a data error
    argv = command + ["--data", str(tmp_path / "nope.csv"), "--out-dir", str(out)] + HUGE_MODEL
    assert call_bounded(lambda: run(argv), 2**22) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: the config has 3373301770 parameters; "
                                       f"training takes <= {cli.MAX_PARAMS}\n")
    assert not out.exists()
    assert run(["cost"] + HUGE_MODEL) == 0   # cost still reports such a config
    assert "parameters (full)  :  3,373,301,770" in capsys.readouterr().out


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


def test_cost_sweep_csv_creates_the_directory_of_its_output(tmp_path):
    csv = tmp_path / "new" / "dir" / "sweep.csv"
    assert run(["cost", "--sweep", "table4", "--csv", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 1 + 23


def test_cost_csv_without_sweep_is_config_error_and_writes_nothing(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    assert run(["cost", "--csv", str(csv)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --csv writes the sweep, so it needs --sweep\n"
    assert not csv.exists()


@pytest.mark.parametrize("flags", [["--ns", "3"], ["--config", "nonexist.json"],
                                   ["--config", "nonexist.json", "--ns", "3"],
                                   ["--pos-encoding", "none"]], ids=" ".join)
def test_cost_sweep_with_a_config_flag_is_config_error_and_writes_nothing(tmp_path, capsys,
                                                                          flags):
    csv = tmp_path / "sweep.csv"
    assert run(["cost", "--sweep", "table4", "--csv", str(csv)] + flags) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not csv.exists()
    given = " or ".join(flag for flag in flags if flag.startswith("--"))
    assert captured.err == f"config error: --sweep prints its own configs, so it takes no {given}\n"


@pytest.mark.parametrize("argv", [
    ["train", "--ns", "abc", "--data", "set.csv", "--out-dir", "run"],
    ["train", "--data", "set.csv", "--out-dir", "run", "--no-such-flag"],
    ["train", "--out-dir", "run"], [], ["cost", "--sweep", ""], ["cost", "--sweep", "table5"],
], ids=["non-numeric-int", "unknown-flag", "missing-data", "no-subcommand", "empty-sweep",
        "unknown-sweep"])
def test_bad_command_line_is_one_line_config_error(capsys, argv):
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and "usage:" not in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as done:
        run([flag])
    assert done.value.code == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("flags", [
    ["--classes", "-2"], ["--classes", "0"], ["--classes", "11"],
    ["--per-class", "0"], ["--per-class", "-1"],
    ["--length", "0"], ["--length", "-1"], ["--seed", "-1"],
], ids="=".join)
def test_synth_rejects_bad_counts_and_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "set.csv"
    argv = ["synth", "--classes", "2", "--per-class", "2", "--length", "16", "--out", str(out)]
    assert run(argv + flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: --")
    assert not out.exists()


def test_synth_creates_the_directory_of_its_output(tmp_path):
    out = tmp_path / "new" / "dir" / "set.csv"
    assert run(["synth", "--classes", "2", "--per-class", "2", "--length", "16",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 4   # the comment line, then the windows
    assert (out.parent / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"], ["train", "--split-seed", "-1"],
    ["study", "--trials", "1", "--base-seed", "-1"],
    ["study", "--trials", "1", "--split-seed", "-1"],
], ids=["train-seed", "train-split-seed", "study-base-seed", "study-split-seed"])
def test_train_and_study_reject_negative_seeds(small_dataset, tmp_path, capsys, argv):
    code = run(argv + ["--data", str(small_dataset), "--out-dir", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: --")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [["train"], ["study", "--trials", "2"]])
def test_train_and_study_reject_zero_epochs_and_write_nothing(small_dataset, tmp_path, capsys,
                                                              command):
    out = tmp_path / "run"
    code = run(command + ["--data", str(small_dataset), "--out-dir", str(out)]
               + SMALL_MODEL + ["--epochs", "0"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: training needs epochs >= 1")
    assert not out.exists()


TINY_MODEL = TSTConfig(L=16, ns=4, dim=4, dim_mlp=4, d_k=2, heads=1, depth=1, n_class=2)


@pytest.fixture(scope="module")
def tiny_embed_inputs(tmp_path_factory):
    """A freshly initialized tiny checkpoint and 12 windows it accepts."""
    root = tmp_path_factory.mktemp("embed")
    save_checkpoint(TSTModel(TINY_MODEL, seed=0), root / "model.tst")
    classes = data.default_synthetic_spec()[:TINY_MODEL.n_class]
    data.write_csv(data.generate_synthetic(classes, 6, seed=0, length=TINY_MODEL.L),
                   root / "set.csv")
    (root / "fuzz").mkdir()
    return root


@pytest.mark.parametrize("flags", [
    ["--max-points", "0"], ["--max-points", "-1"], ["--seed", "-1"],
    ["--perplexity", "nan"], ["--perplexity", "1e-300"], ["--perplexity=-inf"],
    ["--iterations", "-5"], ["--iterations", "0"],
], ids="=".join)
def test_embed_rejects_bad_tsne_inputs(tiny_embed_inputs, capsys, flags):
    out = tiny_embed_inputs / "bad.csv"
    argv = ["embed", "--checkpoint", str(tiny_embed_inputs / "model.tst"),
            "--data", str(tiny_embed_inputs / "set.csv"), "--perplexity", "2",
            "--iterations", "3", "--out", str(out)]
    assert run(argv + flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--iterations", "0"], ["--perplexity", "0.5"],
    ["--perplexity", "5"],              # 12 windows, fewer than 3 * perplexity
    ["--max-points", "12"],             # more windows than the cap, lowered to 11 below
], ids="=".join)
def test_embed_rejects_bad_tsne_inputs_before_the_forward_pass(tiny_embed_inputs, monkeypatch,
                                                               flags):
    calls = []
    forward = TSTModel.forward
    monkeypatch.setattr(TSTModel, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    monkeypatch.setattr(analysis, "MAX_TSNE_POINTS", 11)
    argv = ["embed", "--checkpoint", str(tiny_embed_inputs / "model.tst"),
            "--data", str(tiny_embed_inputs / "set.csv"), "--perplexity", "2",
            "--iterations", "3", "--out", str(tiny_embed_inputs / "bad.csv")]
    assert run(argv + flags) == cli.EXIT_CONFIG
    assert calls == []


def test_embed_creates_the_directory_of_its_output(tiny_embed_inputs, tmp_path):
    out = tmp_path / "new" / "dir" / "embedding.csv"
    assert run(["embed", "--checkpoint", str(tiny_embed_inputs / "model.tst"),
                "--data", str(tiny_embed_inputs / "set.csv"), "--perplexity", "2",
                "--iterations", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + (TINY_MODEL.depth + 1) * 12
    assert (out.parent / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "study", "embed"])
def test_csv_without_data_rows_is_one_line_data_error(tiny_embed_inputs, tmp_path, capsys,
                                                      command):
    csv, out = tmp_path / "empty.csv", tmp_path / "out"
    csv.write_text("# a header and no rows\n")
    argv = {"train": ["train", "--out-dir", str(out)],
            "study": ["study", "--trials", "1", "--out-dir", str(out)],
            "embed": ["embed", "--checkpoint", str(tiny_embed_inputs / "model.tst"),
                      "--out", str(out)]}[command]
    assert run(argv + ["--data", str(csv)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {csv} holds no data rows\n"
    assert not out.exists()


# argv fuzzing: each flag is absent, an accepted value of its declared type,
# or an edge: a negative, 0, a value just past a bound, 2**32, a non-finite
# float. At most one flag is then given again, malformed (not of its type or
# not one of its choices), or an unknown flag is added. Sizes that allocate
# (synth counts, t-SNE iterations) stay small and are always given, so every
# accepted run takes milliseconds (a synth count edge past
# cli.MAX_SYNTH_SAMPLES is rejected before any window is built); so is the
# perplexity, whose default needs more points than the tiny dataset has.
def _pick(accepted, *edges):
    return st.one_of(accepted, st.sampled_from(edges))


_NON_FINITE = (math.nan, math.inf, -math.inf)
_SEEDS = _pick(st.integers(0, 3), -1, 2**32, 2**64)
_FLAGS = {
    "synth": {"--classes": _pick(st.integers(1, 10), -1, 0, 11, 2**32),
              "--per-class": _pick(st.integers(1, 3), -1, 0, cli.MAX_SYNTH_SAMPLES + 1, 2**32),
              "--length": _pick(st.integers(1, 9), -1, 0, cli.MAX_SYNTH_SAMPLES + 1, 2**32),
              "--seed": _SEEDS},
    "cost": {**{flag: _pick(st.integers(1, 64), -1, 0, 2**32 - 1, 2**32)
                for flag in ("--ns", "--dim", "--dim-mlp", "--dk", "--heads", "--depth",
                             "--epochs", "--batch-size", "--length", "--classes")},
             "--pdrop": _pick(st.floats(0.0, 0.99), -1e-300, 1.0, *_NON_FINITE),
             "--lr": _pick(st.floats(1e-6, 1.0), 0.0, -1.0, 1e308, *_NON_FINITE),
             "--pos-encoding": st.sampled_from(["1d", "none"]),
             "--sweep": st.sampled_from(["table4", "table5", ""])},
    "embed": {"--perplexity": _pick(st.floats(1.0, 4.0), 0.999, 4.001, 1e-300, 0.0, -1.0,
                                    2.0**32, *_NON_FINITE),
              "--iterations": _pick(st.integers(1, 3), -5, 0), "--seed": _SEEDS,
              "--max-points": _pick(st.integers(1, 13), -1, 0, 2**32)},
}
_ALWAYS = {"--per-class", "--length", "--iterations", "--perplexity"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        value = draw(values if flag in _ALWAYS else st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    malformed = draw(st.none() | st.sampled_from(sorted(_FLAGS[command])) | st.just("--bogus"))
    if malformed == "--bogus":
        argv.append(malformed)
    elif malformed is not None:   # the last value of a repeated flag is the one parsed
        argv.append(f"{malformed}={draw(st.sampled_from(['abc', '', '1.5', '1e', '0x10']))}")
    return argv


@FUZZ
@given(argv=_argv())
def test_cli_argv_fuzz_exits_with_a_documented_code_and_one_line(tiny_embed_inputs, argv):
    out = tiny_embed_inputs / "fuzz"
    paths = {"synth": ["--out", str(out / "set.csv")], "cost": [],
             "embed": ["--checkpoint", str(tiny_embed_inputs / "model.tst"),
                       "--data", str(tiny_embed_inputs / "set.csv"),
                       "--out", str(out / "embedding.csv")]}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv + paths[argv[0]])
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert err.count("\n") <= 1 and "usage:" not in err, (argv, err)
    assert "internal error:" not in err, (argv, err)


# train and study: the architecture is tiny, and --epochs and --trials are
# always given and small when accepted, so each accepted run takes milliseconds.
# A huge --jobs starts only as many threads as there are trials. Each flag is
# (accepted values, edges); at most one flag of a run takes an edge, so about
# half the runs train.
_COUNT = (st.integers(1, 6), (-1, 0, 13, 2**32))   # the fixture holds 12 windows
_TRAIN_FLAGS = {
    "--split-seed": (st.integers(0, 3), (-1, 2**32, 2**64)),
    "--train-count": _COUNT, "--test-count": _COUNT,
    "--epochs": (st.integers(1, 2), (-1, 0, 2**32)),
    "--batch-size": (st.sampled_from([1, 3, 8, 2**32 - 1]), (-1, 0, 2**32)),
    "--pdrop": (st.floats(0.0, 0.99), (-1e-300, 1.0, *_NON_FINITE)),
    "--lr": (st.floats(1e-6, 1.0), (0.0, -1.0, 1e308, *_NON_FINITE)),
}
_TRAINING_FLAGS = {
    "train": {"--seed": (st.integers(0, 3), (-1, 2**32, 2**64)), **_TRAIN_FLAGS},
    "study": {"--trials": (st.integers(1, 3), (-1, 0, cli.MAX_TRIALS + 1, 2**32)),
              "--base-seed": (st.integers(0, 3), (-1, 2**32, 2**64)),
              "--jobs": (st.integers(1, 3), (-1, 0, 2**32)), **_TRAIN_FLAGS},
}
_TINY_ARCH = [f"--{flag}={value}" for flag, value in (
    ("length", TINY_MODEL.L), ("ns", TINY_MODEL.ns), ("dim", TINY_MODEL.dim),
    ("dim-mlp", TINY_MODEL.dim_mlp), ("dk", TINY_MODEL.d_k), ("heads", TINY_MODEL.heads),
    ("depth", TINY_MODEL.depth), ("classes", TINY_MODEL.n_class))]


@st.composite
def _training_argv(draw):
    command = draw(st.sampled_from(sorted(_TRAINING_FLAGS)))
    flags = _TRAINING_FLAGS[command]
    edge = draw(st.none() | st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, (accepted, edges) in flags.items():
        if flag == edge:
            value = draw(st.sampled_from(edges))
        else:
            value = draw(accepted if flag in ("--trials", "--epochs") else st.none() | accepted)
        if value is not None:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


@FUZZ
@given(argv=_training_argv())
def test_train_and_study_argv_fuzz_exits_with_a_documented_code_and_one_line(tiny_embed_inputs,
                                                                             argv):
    paths = ["--data", str(tiny_embed_inputs / "set.csv"),
             "--out-dir", str(tiny_embed_inputs / "fuzz" / argv[0])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv + _TINY_ARCH + paths)
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert err.count("\n") <= 1, (argv, err)
    assert "internal error:" not in err, (argv, err)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("flag, code, prefix", [
    ("--config", cli.EXIT_CONFIG, "config error: "),
    ("--checkpoint", cli.EXIT_DATA, "data error: "),
    ("--data", cli.EXIT_DATA, "data error: "),
])
def test_input_file_that_cannot_be_opened_is_one_line_typed_error(tiny_embed_inputs, tmp_path,
                                                                  capsys, flag, code, prefix,
                                                                  kind):
    bad, out = tmp_path / "input", tmp_path / "out"
    if kind == "directory":
        bad.mkdir()
    csv = str(tiny_embed_inputs / "set.csv")
    argv = {"--config": ["train", "--config", str(bad), "--data", csv, "--out-dir", str(out)],
            "--checkpoint": ["embed", "--checkpoint", str(bad), "--data", csv,
                             "--out", str(out / "e.csv")],
            "--data": ["train", "--data", str(bad), "--out-dir", str(out)]}[flag]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(prefix) and str(bad) in err
    assert not out.exists()


def _unwritable(tmp_path, kind):
    """An output path no command can write: a regular file, a path under one, or (for an
    output file) a directory."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return {"file": blocker, "under-file": blocker / "out",
            "directory": tmp_path}[kind]


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name)``: a list to which ``module.name``, replaced, appends
    ``name`` per call."""
    calls = []

    def patch(module, name):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name))
        return calls
    return patch


def _rejects_output(argv, flag, capsys):
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {flag} ")


@pytest.mark.parametrize("kind", ["under-file", "directory"])
def test_synth_rejects_an_unwritable_out_before_generating(tmp_path, capsys, record_calls, kind):
    calls = record_calls(data, "generate_synthetic")
    out = _unwritable(tmp_path, kind)
    _rejects_output(["synth", "--classes", "2", "--per-class", "2", "--length", "16",
                     "--out", str(out)], "--out", capsys)
    assert calls == [] and not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("kind", ["file", "under-file"])
def test_train_rejects_an_unwritable_out_dir_before_training(small_dataset, tmp_path, capsys,
                                                             record_calls, kind):
    calls = record_calls(training, "train")
    _rejects_output(["train", "--data", str(small_dataset),
                     "--out-dir", str(_unwritable(tmp_path, kind))] + SMALL_MODEL,
                    "--out-dir", capsys)
    assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


@pytest.mark.parametrize("kind", ["file", "under-file"])
def test_study_rejects_an_unwritable_out_dir_before_training(small_dataset, tmp_path, capsys,
                                                             record_calls, kind):
    calls = record_calls(training, "repeat_trials")
    _rejects_output(["study", "--trials", "2", "--data", str(small_dataset),
                     "--out-dir", str(_unwritable(tmp_path, kind))] + SMALL_MODEL,
                    "--out-dir", capsys)
    assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


@pytest.mark.parametrize("kind", ["under-file", "directory"])
def test_embed_rejects_an_unwritable_out_before_the_tsne(tiny_embed_inputs, tmp_path, capsys,
                                                         record_calls, kind):
    calls = record_calls(analysis, "tsne_embed")
    _rejects_output(["embed", "--checkpoint", str(tiny_embed_inputs / "model.tst"),
                     "--data", str(tiny_embed_inputs / "set.csv"), "--perplexity", "2",
                     "--iterations", "3", "--out", str(_unwritable(tmp_path, kind))],
                    "--out", capsys)
    assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
