import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tst import data, training
from tst.errors import ConfigError, TrainingAbort
from tst.model import TSTConfig, TSTModel
from tst.tensor import Tensor
from tst.training import (AdamState, TrialReport, adam_step, evaluate,
                          lr_at_epoch, repeat_trials, train)


def two_class_split(n_per_class=20, seed=5, length=64):
    spec = data.SyntheticSpec(sample_rate=12000.0, classes=[
        data.ClassSpec(rep_hz=600.0, res_hz=1200.0, decay=800.0, amplitude=2.5, noise_std=0.2),
        data.ClassSpec(rep_hz=1500.0, res_hz=3600.0, decay=2500.0, amplitude=2.5, noise_std=0.2),
    ])
    windows = data.generate_synthetic(spec, n_per_class, seed=seed, length=length)
    return data.split_train_test(windows, 30, 10, seed=2)


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
    cfg = TSTConfig(**{**TWO_CLASS_CFG.__dict__, "lr": 1e30, "epochs": 1})
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
    assert lr_at_epoch(0) == 3e-5
    assert abs(lr_at_epoch(10) - 2.4e-5) < 1e-18
    assert abs(lr_at_epoch(49) - 3e-5 * 0.8**4) < 1e-18
    assert abs(lr_at_epoch(49) - 1.2288e-5) < 1e-12


def test_lr_schedule_exact_closed_form():
    for e in range(50):
        assert lr_at_epoch(e) == 3e-5 * 0.8 ** (e // 10)


def test_lr_schedule_piecewise_non_increasing():
    values = [lr_at_epoch(e) for e in range(50)]
    for e in range(1, 50):
        assert values[e] <= values[e - 1]
        if e % 10 != 0:
            assert values[e] == values[e - 1]
        else:
            assert values[e] < values[e - 1]
    with pytest.raises(ConfigError):
        lr_at_epoch(-1)


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
    cfg = TSTConfig(**{**TWO_CLASS_CFG.__dict__, "epochs": 3, "p_drop": 0.1})
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


def test_second_step_does_not_hold_the_first_steps_graph():
    """Backward releases each step's graph, so two steps peak about as high
    as one; holding the first graph through the second forward nearly
    doubles the traced peak."""
    split = two_class_split()
    cfg = TSTConfig(**{**TWO_CLASS_CFG.__dict__, "epochs": 1, "batch_size": 15,
                       "p_drop": 0.1})

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
    return TSTConfig(**{**TWO_CLASS_CFG.__dict__, "epochs": epochs})


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
    split = two_class_split()
    serial = repeat_trials(split, quick_cfg(), seeds=[4, 5], jobs=1)
    parallel = repeat_trials(split, quick_cfg(), seeds=[4, 5], jobs=2)
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


def test_repeat_trials_validation():
    split = two_class_split()
    with pytest.raises(ConfigError, match="at least one seed"):
        repeat_trials(split, quick_cfg(), seeds=[])
    with pytest.raises(ConfigError, match="duplicate seeds"):
        repeat_trials(split, quick_cfg(), seeds=[5, 5, 5])   # one trial, reported thrice
    with pytest.raises(ConfigError, match="jobs"):
        repeat_trials(split, quick_cfg(), seeds=[1], jobs=0)
