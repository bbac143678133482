import csv
import glob
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import unsplit_eval
from tst import analysis, data, training
from tst import model as tstmodel
from tst import tensor as T
from tst.errors import ConfigError, DataError, TrainingAbort
from tst.model import TSTConfig, TSTModel, cross_entropy_from_logits
from tst.tensor import Tensor
from tst.training import (AdamState, StudyReport, TrialReport, adam_step, evaluate,
                          lr_at_epoch, repeat_trials, train)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def two_class_split(n_per_class=20, seed=5, length=64):
    classes = (
        data.ClassSpec(rep_hz=600.0, res_hz=1200.0, decay=800.0, amplitude=2.5, noise_std=0.2),
        data.ClassSpec(rep_hz=1500.0, res_hz=3600.0, decay=2500.0, amplitude=2.5, noise_std=0.2),
    )
    windows = data.generate_synthetic(classes, n_per_class, seed=seed, length=length)
    return data.split_train_test(windows, 30, 10, seed=2)


# criterion 5's desk config
DESK_CFG = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2, n_class=10,
                     epochs=1, batch_size=64, lr=1e-3)
TWO_CLASS_CFG = TSTConfig(L=64, ns=16, dim=16, dim_mlp=32, d_k=8, heads=2, depth=2,
                          n_class=2, epochs=20, batch_size=8, lr=2e-3, p_drop=0.0)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_is_a_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    state = AdamState.init([p])
    before = p.data.copy()
    for _ in range(3):
        adam_step([p], [np.zeros(3)], state, lr=0.1)
    np.testing.assert_array_equal(p.data, before)
    assert np.all(state.m[0] == 0) and np.all(state.v[0] == 0) and state.t == 3


def test_adam_first_step_moves_by_lr():
    # hand-evaluated recurrence at t=1 with g=1: m_hat=1, v_hat=1,
    # delta = -lr / (1 + eps)
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState.init([p])
    adam_step([p], [np.ones(1)], state, lr=1e-3)
    assert abs(p.data[0] + 1e-3 / (1.0 + 1e-8)) < 1e-15


def scalar_adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Independent evaluation of the published recurrences."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def test_adam_matches_scalar_oracle_g0_then_g1():
    p = Tensor(np.array([0.25]), requires_grad=True)
    state = AdamState.init([p])
    trace = []
    for g in (0.0, 1.0):
        adam_step([p], [np.array([g])], state, lr=0.01)
        trace.append(float(p.data[0]))
    expected = scalar_adam_oracle([0.0, 1.0], lr=0.01, x0=0.25)
    np.testing.assert_allclose(trace, expected, atol=1e-12, rtol=0)


def test_adam_trace_matches_oracle_to_1e12():
    rng = np.random.default_rng(8)
    grads = rng.normal(size=25)
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState.init([p])
    trace = []
    for g in grads:
        adam_step([p], [np.array([g])], state, lr=3e-3)
        trace.append(float(p.data[0]))
    expected = scalar_adam_oracle(list(grads), lr=3e-3, x0=0.5)
    np.testing.assert_allclose(trace, expected, atol=1e-12, rtol=0)


def test_adam_aborts_on_nan_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingAbort):
        adam_step([p], [np.array([np.nan])], AdamState.init([p]), lr=0.1)


def test_adam_overflowing_update_leaves_the_parameter_unchanged():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    state = AdamState.init([p])
    with pytest.raises(TrainingAbort, match="non-finite Adam update for w at step 1"):
        adam_step([p], [np.array([1e20], dtype=np.float32)], state, lr=1.0, names=["w"])
    assert p.data[0] == 1.0 and state.m[0][0] == 0.0   # g*g overflowed float32


def test_huge_lr_aborts_naming_the_parameter_without_warnings():
    split = two_class_split()
    cfg = replace(TWO_CLASS_CFG, lr=1e30, epochs=1)
    model = TSTModel(cfg, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning would raise here
        with pytest.raises(TrainingAbort, match="non-finite Adam update for ") as info:
            train(model, split, cfg, seed=0)
    name = str(info.value).split(" for ")[1].split(" at step ")[0]
    assert name in dict(model.parameters()), str(info.value)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_reference_points():
    assert lr_at_epoch(0, TSTConfig()) == 3e-5
    assert abs(lr_at_epoch(10, TSTConfig()) - 2.4e-5) < 1e-18
    assert abs(lr_at_epoch(49, TSTConfig()) - 3e-5 * 0.8**4) < 1e-18
    assert abs(lr_at_epoch(49, TSTConfig()) - 1.2288e-5) < 1e-12


def test_lr_schedule_exact_closed_form():
    for e in range(50):
        assert lr_at_epoch(e, TSTConfig()) == 3e-5 * 0.8 ** (e // 10)


def test_lr_schedule_piecewise_non_increasing():
    values = [lr_at_epoch(e, TSTConfig()) for e in range(50)]
    for e in range(1, 50):
        assert values[e] <= values[e - 1]
        if e % 10 != 0:
            assert values[e] == values[e - 1]
        else:
            assert values[e] < values[e - 1]
    with pytest.raises(ConfigError):
        lr_at_epoch(-1, TSTConfig())


# ---------------------------------------------------------------------------
# the training loop


def test_train_reaches_100_percent_on_separable_two_class_set():
    split = two_class_split()
    x, y = data.windows_to_arrays(split.train)

    # separability oracle: a perceptron on the raw standardized windows
    # converges, so the set is linearly separable
    xb = np.hstack([x, np.ones((len(x), 1))])
    target = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(xb.shape[1])
    separable = False
    for _ in range(500):
        mistakes = 0
        for i in range(len(xb)):
            if target[i] * (xb[i] @ w) <= 0:
                w += target[i] * xb[i]
                mistakes += 1
        if mistakes == 0:
            separable = True
            break
    assert separable

    model = TSTModel(TWO_CLASS_CFG, seed=0)
    report = train(model, split, TWO_CLASS_CFG, seed=0)
    assert max(report.train_acc) == 1.0
    assert len(report.train_loss) == TWO_CLASS_CFG.epochs


def test_initial_loss_near_log_nclass(rng):
    cfg = TSTConfig(L=64, ns=8, dim=16, dim_mlp=32, d_k=8, heads=2, depth=2,
                    n_class=10, batch_size=16)
    model = TSTModel(cfg, seed=0)
    x = rng.normal(size=(64, 64)).astype(np.float32)
    y = np.tile(np.arange(10), 7)[:64]
    loss, _ = evaluate(model, x, y, cfg.batch_size)
    assert abs(loss - math.log(10)) < 0.3


def param_digest(model):
    h = hashlib.sha256()
    for _, p in model.parameters():
        h.update(p.data.tobytes())
    return h.hexdigest()


def test_same_seed_training_is_bit_identical():
    split = two_class_split()
    cfg = replace(TWO_CLASS_CFG, epochs=3, p_drop=0.1)
    runs = []
    for _ in range(2):
        model = TSTModel(cfg, seed=11)
        report = train(model, split, cfg, seed=11)
        runs.append((report, param_digest(model)))
    assert runs[0][0] == runs[1][0]          # TrialReport dataclass equality
    assert runs[0][1] == runs[1][1]          # final parameters bit-identical


def test_evaluation_never_mutates_parameters():
    split = two_class_split()
    model = TSTModel(TWO_CLASS_CFG, seed=3)
    x, y = data.windows_to_arrays(split.test)
    before = param_digest(model)
    evaluate(model, x, y, batch_size=4)
    assert param_digest(model) == before


def test_evaluate_of_no_windows_is_a_data_error():
    model = TSTModel(TWO_CLASS_CFG, seed=3)
    with pytest.raises(DataError, match="at least one window"):
        evaluate(model, np.zeros((0, TWO_CLASS_CFG.L), np.float32), np.zeros(0, int), 4)


def test_evaluate_batch_size_below_one_is_a_config_error():
    model = TSTModel(TWO_CLASS_CFG, seed=3)
    x, y = np.zeros((2, TWO_CLASS_CFG.L), np.float32), np.zeros(2, int)
    for batch_size in (0, -1):   # 0 stepped range() by zero; -1 ran no batch and returned 0
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            evaluate(model, x, y, batch_size)


def test_second_step_does_not_hold_the_first_steps_graph():
    """Backward releases each step's graph, so two steps peak about as high
    as one; holding the first graph through the second forward nearly
    doubles the traced peak."""
    split = two_class_split()
    cfg = replace(TWO_CLASS_CFG, epochs=1, batch_size=15, p_drop=0.1)

    def traced_peak(n_train):
        part = data.DatasetSplit(train=split.train[:n_train], test=split.test[:1],
                                 split_seed=0)
        model = TSTModel(cfg, seed=0)
        tracemalloc.start()
        try:
            train(model, part, cfg, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_step, two_steps = traced_peak(15), traced_peak(30)
    assert two_steps < 1.5 * one_step, (one_step, two_steps)


def test_train_aborts_on_poisoned_parameters():
    split = two_class_split()
    model = TSTModel(TWO_CLASS_CFG, seed=0)
    model.w_head.data[0, 0] = np.nan
    with pytest.raises(TrainingAbort, match="epoch 0"):
        train(model, split, TWO_CLASS_CFG, seed=0)


def test_trial_report_lines_format():
    report = TrialReport(seed=9, train_loss=[1.0], test_loss=[2.0],
                         train_acc=[0.5], test_acc=[0.75])
    lines = report.lines()
    assert lines[0] == "epoch,train_loss,test_loss,train_acc,test_acc"
    assert lines[1].startswith("0,1.0,2.0,0.5,0.75")
    assert lines[-1] == "summary,seed=9,final_test_acc=0.75"


# ---------------------------------------------------------------------------
# repeated trials


def quick_cfg(epochs=2):
    return replace(TWO_CLASS_CFG, epochs=epochs)


def test_repeat_trials_single_trial_degenerate_stats():
    split = two_class_split()
    study = repeat_trials(split, quick_cfg(), seeds=[7])
    assert study.top_acc == study.min_acc == study.avg_acc
    assert study.std == 0.0


def test_repeat_trials_ordering_invariant():
    split = two_class_split()
    study = repeat_trials(split, quick_cfg(), seeds=[3, 1, 2])
    assert study.top_acc >= study.avg_acc >= study.min_acc
    assert study.min_acc <= study.avg_acc <= study.top_acc
    assert [t.seed for t in study.trials] == [1, 2, 3]  # sorted by seed


def test_repeat_trials_parallel_matches_serial():
    # the desk shape trains as two row shards: with jobs=1 on a 2-core host the second
    # runs on the worker thread, with jobs=2 both run in turn on the trial's thread
    desk_windows = data.generate_synthetic(data.default_synthetic_spec(), 10, seed=3,
                                           length=DESK_CFG.L)
    for split, cfg in ((two_class_split(), quick_cfg()),
                       (data.split_train_test(desk_windows, 80, 20, seed=1), DESK_CFG)):
        serial = repeat_trials(split, cfg, seeds=[4, 5], jobs=1)
        parallel = repeat_trials(split, cfg, seeds=[4, 5], jobs=2)
        assert serial.trials == parallel.trials


def test_repeat_trials_records_failures_and_continues(monkeypatch):
    split = two_class_split()
    real_train = training.train

    def sometimes_fail(model, split_, cfg, seed):
        if seed == 2:
            raise TrainingAbort("injected failure")
        return real_train(model, split_, cfg, seed)

    monkeypatch.setattr(training, "train", sometimes_fail)
    study = repeat_trials(split, quick_cfg(), seeds=[1, 2, 3])
    assert [t.seed for t in study.trials] == [1, 3]
    assert study.failed_seeds == [(2, "injected failure")]
    assert any("failed" in line for line in study.lines())


def test_study_report_quotes_failure_reasons_as_csv_does():
    reasons = ["non-finite loss at epoch 3, batch 7", 'a "quoted"\nreason', "no comma at step 2"]
    trial = TrialReport(seed=1, train_loss=[1.0], test_loss=[1.0], train_acc=[0.5],
                        test_acc=[0.5])
    study = StudyReport(trials=[trial], failed_seeds=list(enumerate(reasons, start=2)))
    text = "\n".join(study.lines()) + "\n"
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["trial", "seed", "final_test_acc", "status"]
    assert all(len(row) == 4 for row in rows[1:-1])
    assert rows[2:-1] == [["-", str(seed), "nan", f"failed: {msg}"]
                          for seed, msg in enumerate(reasons, start=2)]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows[:-1])
    assert text.startswith(expected.getvalue())   # the csv module's own minimal quoting


def test_repeat_trials_validation():
    split = two_class_split()
    with pytest.raises(ConfigError, match="at least one seed"):
        repeat_trials(split, quick_cfg(), seeds=[])
    with pytest.raises(ConfigError, match="duplicate seeds"):
        repeat_trials(split, quick_cfg(), seeds=[5, 5, 5])   # one trial, reported thrice
    with pytest.raises(ConfigError, match="jobs"):
        repeat_trials(split, quick_cfg(), seeds=[1], jobs=0)


def test_train_and_study_need_at_least_one_epoch():
    split = two_class_split()
    with pytest.raises(ConfigError, match="epochs >= 1"):
        train(TSTModel(quick_cfg(0), seed=0), split, quick_cfg(0), seed=0)
    with pytest.raises(ConfigError, match="epochs >= 1"):
        repeat_trials(split, quick_cfg(0), seeds=[1, 2], jobs=2)


# ---------------------------------------------------------------------------
# forwards over two row shards

SPLIT_CFG = TSTConfig(L=64, ns=16, dim=16, dim_mlp=32, d_k=8, heads=2, depth=2, n_class=4)
# the smallest SPLIT_CFG batch size whose half batch holds _HALF_MIN activations
SPLIT_ROWS = 2 * math.ceil(TSTModel._HALF_MIN / (SPLIT_CFG.ns * SPLIT_CFG.dim))


# the worker needs numpy's bundled OpenBLAS, which it sets to one thread
needs_worker = pytest.mark.skipif(not tstmodel._one_blas_thread(),
                                  reason="numpy's OpenBLAS is not bundled")


@pytest.fixture
def small_halves(monkeypatch):
    """Shard every eval and training batch of two or more rows, however small
    the model, as on a host of two cores."""
    monkeypatch.setattr(TSTModel, "_HALF_MIN", 1)
    monkeypatch.setattr(tstmodel, "_CORES", 2)


@pytest.fixture
def forward_calls(monkeypatch):
    """(rows, ran on another thread than its batch's ``forward``) of every whole-batch pass,
    in call order."""
    calls, callers = [], set()
    real_forward, real = TSTModel.forward, TSTModel._forward

    def entering(model, x, training=False, rng=None):
        callers.add(threading.get_ident())
        return real_forward(model, x, training, rng)

    def recording(model, x, training=False, rng=None):
        calls.append((len(x.data), threading.get_ident() not in callers))
        return real(model, x, training, rng)

    monkeypatch.setattr(TSTModel, "forward", entering)
    monkeypatch.setattr(TSTModel, "_forward", recording)
    return calls


def split_model(dtype=np.float32):
    """A model whose head is not zero, so its logits differ between rows."""
    model = TSTModel(SPLIT_CFG, seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    model.w_head.data = rng.normal(0, 0.5, model.w_head.shape).astype(dtype)
    model.b_head.data = rng.normal(0, 0.5, model.b_head.shape).astype(dtype)
    return model


def split_inputs(n=13):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, SPLIT_CFG.L)).astype(np.float32)
    return x, rng.integers(0, SPLIT_CFG.n_class, n)


def as_windows(x, y):
    return [data.LabeledWindow(samples=row, label=int(label)) for row, label in zip(x, y)]


def eval_outputs(model, x, y, batch_size):
    """evaluate, predict and the class-token stages of collect_stage_features, the last
    two over the config's batches, here of ``batch_size`` rows."""
    model.config = replace(model.config, batch_size=batch_size)
    stages, _ = analysis.collect_stage_features(model, as_windows(x, y))
    return evaluate(model, x, y, batch_size), model.predict(x), stages[1:]


def oracle_outputs(model, x, y, batch_size):
    logits, _ = unsplit_eval(model, x, batch_size)
    standardized, _ = data.windows_to_arrays(as_windows(x, y))   # as collect_stage_features
    _, stages = unsplit_eval(model, standardized, batch_size)
    loss = sum(cross_entropy_from_logits(Tensor(logits[i:i + batch_size]),
                                         y[i:i + batch_size]).item() * len(y[i:i + batch_size])
               for i in range(0, len(x), batch_size))
    pred = np.argmax(logits, axis=1)
    acc = int(np.sum(pred == y)) / len(x)
    return (loss / len(x), acc), pred, [s.astype(np.float64) for s in stages]


@pytest.mark.parametrize("dtype, atol", [(np.float32, 0.0), (np.float64, 1e-12)],
                         ids=["float32-bitwise", "float64"])
@pytest.mark.parametrize("batch_size", [1, 7, 8])
def test_eval_halves_match_unsplit_batches(small_halves, dtype, atol, batch_size):
    x, y = split_inputs()
    got_eval, got_pred, got_stages = eval_outputs(split_model(dtype), x, y, batch_size)
    want_eval, want_pred, want_stages = oracle_outputs(split_model(dtype), x, y, batch_size)
    assert np.allclose(got_eval, want_eval, rtol=0, atol=atol)
    assert np.array_equal(got_pred, want_pred)
    assert all(np.allclose(g, w, rtol=0, atol=atol) for g, w in zip(got_stages, want_stages))


def without_worker(kind, monkeypatch, run):
    """``run()`` in a setup in which ``_worker_core_free()`` is false, the ``kind`` way."""
    if kind == "one-core":
        monkeypatch.setattr(tstmodel, "_CORES", 1)
    elif kind == "four-cores":   # more cores than were measured
        monkeypatch.setattr(tstmodel, "_CORES", 4)
    elif kind == "no-blas":
        monkeypatch.setattr(tstmodel, "_one_blas_thread", lambda: False)
    if kind != "trial-thread":
        return run()
    with ThreadPoolExecutor(1) as pool:   # not the main thread, as a trial beside another
        return pool.submit(run).result()


@pytest.mark.parametrize("kind", ["one-core", "four-cores", "no-blas", "trial-thread"])
def test_eval_without_a_worker_runs_whole_batches_with_the_same_outputs(
        small_halves, monkeypatch, forward_calls, kind):
    """Without a worker the calling thread runs the whole of each batch, both of
    its halves, with outputs bit-identical to those of the worker setup."""
    x, y = split_inputs()
    with_worker = eval_outputs(split_model(), x, y, 7)
    forward_calls.clear()

    def run():
        assert not tstmodel._worker_core_free()
        return eval_outputs(split_model(), x, y, 7)

    got_eval, got_pred, got_stages = without_worker(kind, monkeypatch, run)
    assert got_eval == with_worker[0] and np.array_equal(got_pred, with_worker[1])
    assert all(np.array_equal(g, w) for g, w in zip(got_stages, with_worker[2]))
    # collect_stage_features, predict and evaluate each pass batches of 7 and 6 rows,
    # as halves of 4 and 3 rows and of 3 and 3
    assert sorted(forward_calls) == [(3, False)] * 9 + [(4, False)] * 3


@needs_worker
def test_eval_runs_the_second_half_on_a_worker_when_a_core_is_free(small_halves,
                                                                   forward_calls):
    x, y = split_inputs()
    evaluate(split_model(), x, y, 7)
    # rows [0, ceil(B/2)) on the calling thread, the rest on the worker
    assert sorted(forward_calls) == [(3, False), (3, True), (3, True), (4, False)]


def test_predict_forwards_batches_of_the_config_size_as_evaluate_does(monkeypatch, forward_calls):
    model = split_model()
    model.config = replace(SPLIT_CFG, batch_size=4)
    x, y = split_inputs()   # 13 rows: batches of 4, 4, 4 and 1
    pred = model.predict(x)
    assert forward_calls == [(4, False)] * 3 + [(1, False)]
    per_batch, real = [], TSTModel.forward

    def keeping(model_, xb, training=False, rng=None):
        result = real(model_, xb, training, rng)
        per_batch.append(np.argmax(result.logits.data, axis=1))
        return result

    monkeypatch.setattr(TSTModel, "forward", keeping)
    evaluate(model, x, y, 4)
    assert [len(p) for p in per_batch] == [4, 4, 4, 1]
    assert np.array_equal(pred, np.concatenate(per_batch))


def test_eval_batches_abandoned_after_one_batch_leave_grad_mode_on():
    model = split_model()
    batches = model.eval_batches(split_inputs()[0], 4)
    rows, result = next(batches)
    assert rows == slice(0, 4) and result.logits.shape == (4, SPLIT_CFG.n_class)
    assert T._grad_enabled() and not result.logits.requires_grad
    batches.close()
    assert T._grad_enabled()


@pytest.mark.parametrize("shape", [(16,), (9, SPLIT_CFG.L + 1)], ids=["1-d", "wrong-length"])
def test_mis_shaped_predict_input_names_its_own_shape(shape):
    model = split_model()
    model.config = replace(SPLIT_CFG, batch_size=2)
    with pytest.raises(ConfigError, match=rf"input shape {re.escape(str(shape))} does not"):
        model.predict(np.zeros(shape, np.float32))


@pytest.mark.parametrize("rows, halves", [(SPLIT_ROWS - 1, [SPLIT_ROWS - 1]),
                                          (SPLIT_ROWS, [SPLIT_ROWS // 2] * 2)],
                         ids=["below", "at"])
def test_eval_batch_splits_once_its_smaller_half_reaches_the_threshold(monkeypatch, forward_calls,
                                                                        rows, halves):
    # a batch of the config's size has the config's half batch as its smaller half
    monkeypatch.setattr(tstmodel, "_CORES", 2)
    model = split_model()
    model.config = replace(SPLIT_CFG, batch_size=rows)
    model.predict(np.random.default_rng(0).normal(size=(rows, SPLIT_CFG.L)))
    assert sorted(rows for rows, _ in forward_calls) == halves


def test_evaluate_records_no_graph_on_any_thread(small_halves, forward_calls, monkeypatch):
    model = split_model()
    x, y = split_inputs()
    made, real = [], T._Node

    def counting(parents, vjp):
        made.append(threading.get_ident())
        return real(parents, vjp)

    monkeypatch.setattr(T, "_Node", counting)
    # a training step first: the worker, where there is one, records the second shard's
    # graph in grad mode, and must not keep recording in the no_grad eval that follows
    result = model.forward(x[:8], training=True, rng=np.random.default_rng(0))
    training._shard_gradients(training._shard_losses(result.shards, y[:8]),
                              [p for _, p in model.parameters()])
    assert len(set(made)) == 1 + tstmodel._worker_core_free()
    made.clear()
    forward_calls.clear()
    evaluate(model, x, y, 8)
    assert made == [] and sorted(rows for rows, _ in forward_calls) == [2, 3, 4, 4]
    # the counter does see a recorded graph
    model.forward(x[:2])
    assert made


@needs_worker
def test_eval_errors_in_either_half_reach_the_caller(small_halves, monkeypatch):
    model = split_model()
    x, y = split_inputs()
    bad = x.copy()
    bad[7, 3] = np.nan   # row 7 of 8 falls in the second half
    with pytest.raises(DataError, match="non-finite values in model input"):
        evaluate(model, bad, y, 8)

    real = TSTModel._forward

    def second_half_fails(model_, xb, training=False, rng=None):
        if len(xb.data) == 3:
            raise RuntimeError("injected")
        return real(model_, xb, training, rng)

    monkeypatch.setattr(TSTModel, "_forward", second_half_fails)
    with pytest.raises(RuntimeError, match="injected"):
        evaluate(model, x[:7], y[:7], 7)


@needs_worker
def test_run_pair_runs_every_second_call_on_one_kept_worker_thread(monkeypatch):
    monkeypatch.setattr(tstmodel, "_CORES", 2)
    caller = threading.get_ident()
    pairs = [tstmodel._run_pair(threading.get_ident, threading.get_ident) for _ in range(2)]
    assert pairs[0][0] == pairs[1][0] == caller
    assert pairs[0][1] == pairs[1][1] != caller


@needs_worker
def test_run_pair_waits_for_the_worker_before_the_first_calls_error_propagates(monkeypatch):
    monkeypatch.setattr(tstmodel, "_CORES", 2)
    started, finished = threading.Event(), threading.Event()

    def first():
        assert started.wait(60)
        raise RuntimeError("injected")

    def second():
        started.set()
        time.sleep(0.2)
        finished.set()

    with pytest.raises(RuntimeError, match="injected"):
        tstmodel._run_pair(first, second)
    assert finished.is_set()


@needs_worker
def test_run_pair_called_on_the_worker_runs_its_pair_in_turn():
    # a fresh process, so that a worker waiting on itself cannot hang the suite
    script = (
        "import threading\n"
        "from tst import model\n"
        "model._CORES = 2   # as on a host of two cores\n"
        "get = threading.get_ident\n"
        "inner = lambda: (get(), model._run_pair(get, get))\n"
        "main, (worker, pair) = model._run_pair(get, inner)\n"
        "assert worker != main and pair == (worker, worker), (main, worker, pair)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("jobs", [1, 2, 5])
def test_study_trials_use_the_worker_only_when_alone(monkeypatch, jobs):
    seen = set()
    real = TSTModel.forward

    def recording(model, x, training=False, rng=None):
        if not training:
            seen.add(tstmodel._worker_core_free())
        return real(model, x, training, rng)

    monkeypatch.setattr(TSTModel, "forward", recording)
    monkeypatch.setattr(tstmodel, "_CORES", 2)
    free = tstmodel._worker_core_free()
    repeat_trials(two_class_split(), quick_cfg(1), seeds=[1, 2], jobs=jobs)
    assert seen == {free and jobs == 1}


# ---------------------------------------------------------------------------
# training steps over two row shards


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("cfg, rows, shards", [
    (replace(SPLIT_CFG, batch_size=SPLIT_ROWS - 1), 7, [7]),
    # a last, partial batch follows its trial's choice, in eval too
    (replace(SPLIT_CFG, batch_size=SPLIT_ROWS), 7, [4, 3]),
    (DESK_CFG, 64, [32, 32]),   # criterion 5's: 32 x 64 x 32 = 2**16 activations per half
    (replace(DESK_CFG, ns=1), 64, [64]),   # criterion 6's ns 1: 32 activations per row
], ids=["below", "at", "desk", "desk-ns1"])
def test_training_shards_once_the_configs_half_batch_reaches_the_threshold(cfg, rows, shards,
                                                                           training):
    model = TSTModel(cfg, seed=3)
    x = np.random.default_rng(5).normal(size=(rows, cfg.L)).astype(np.float32)
    result = model.forward(x, training=training, rng=np.random.default_rng(1))
    assert [len(s.data) for s in result.shards] == shards


def test_a_forward_on_a_two_core_host_leaves_openblas_at_one_thread():
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so")
    if not libs:
        pytest.skip("numpy's OpenBLAS is not bundled")
    # a fresh process, as this one's OpenBLAS may already be set
    script = (
        "import ctypes, sys\n"
        "import numpy as np\n"
        "from tst import model\n"
        "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
        "model._CORES = 2   # as on a host of two cores\n"
        "before = get()\n"
        "cfg = model.TSTConfig(L=64, ns=16, dim=16, dim_mlp=32, d_k=8, heads=2, depth=2)\n"
        "model.TSTModel(cfg).forward(np.zeros((3, 64)))   # a whole batch: no worker\n"
        "print(before, get())\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, libs[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1"]


@pytest.mark.parametrize("batch, shards", [(1, [1]), (2, [1, 1]), (7, [4, 3])])
def test_sharded_gradient_matches_the_full_batch_gradient(small_halves, batch, shards):
    cfg = replace(SPLIT_CFG, p_drop=0.0, batch_size=7)
    model = TSTModel(cfg, seed=3, dtype=np.float64)
    model.w_head.data = np.random.default_rng(4).normal(0, 0.5, model.w_head.shape)
    params = [p for _, p in model.parameters()]
    x, y = split_inputs(batch)
    result = model.forward(x, training=True, rng=np.random.default_rng(0))
    assert [len(s.data) for s in result.shards] == shards
    sharded = training._shard_gradients(training._shard_losses(result.shards, y), params)
    whole = model._forward(Tensor(x, dtype=np.float64)).logits   # one pass over every row
    want = T.backward(cross_entropy_from_logits(whole, y), params)
    assert len(sharded) == len(want) == len(params)
    for got, expected in zip(sharded, want):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def record_backward_threads(monkeypatch) -> list:
    """The thread idents of every ``backward`` that ``train`` calls from now on."""
    seen, real = [], training.backward

    def recording(loss, wrt):
        seen.append(threading.get_ident())
        return real(loss, wrt)

    monkeypatch.setattr(training, "backward", recording)
    return seen


@needs_worker
def test_train_with_and_without_the_worker_gives_identical_outputs(small_halves, monkeypatch):
    split = two_class_split()
    cfg = replace(TWO_CLASS_CFG, epochs=2, p_drop=0.1)
    caller = threading.get_ident()
    seen, runs = record_backward_threads(monkeypatch), []
    for cores in (2, 1):   # the first run leaves OpenBLAS at one thread, for the second too
        monkeypatch.setattr(tstmodel, "_CORES", cores)
        seen.clear()
        model = TSTModel(cfg, seed=11)
        report = train(model, split, cfg, seed=11)
        runs.append((report, param_digest(model), {t == caller for t in seen}))
    assert runs[0][2] == {True, False} and runs[1][2] == {True}
    assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]


@needs_worker
def test_a_shard_raising_on_the_worker_reaches_the_caller(small_halves, monkeypatch):
    monkeypatch.setattr(tstmodel, "_CORES", 2)
    caller, real = threading.get_ident(), training.backward
    error = RuntimeError("injected on the worker")

    def fails_on_the_worker(loss, wrt):
        if threading.get_ident() != caller:
            raise error
        return real(loss, wrt)

    monkeypatch.setattr(training, "backward", fails_on_the_worker)
    with pytest.raises(RuntimeError) as raised:
        train(TSTModel(quick_cfg(1), seed=0), two_class_split(), quick_cfg(1), seed=0)
    assert raised.value is error
