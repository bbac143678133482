"""The three workloads: their inputs, set-up, timed call and output checks.

Inputs come only from the workload seed: synthetic windows written to a CSV
with ``data.write_csv`` and, for inference, a checkpoint written with
``save_checkpoint``. Every call into the package goes through a module or
class attribute (``training.train``, ``data.load_csv``, ...), so the
tracer's patches see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tst import data, training
from tst import model as tstmodel
from tst.model import TSTConfig, TSTModel
from tst.tensor import no_grad

# Logits of the float32 model may differ from the float64 reference by at
# most this share of the largest reference logit (and at least 1e-3 absolute).
LOGIT_TOLERANCE = 1e-3
# Windows compared against the float64 reference on stock_infer.
REFERENCE_WINDOWS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    config: TSTConfig
    n_per_class: int
    n_train: int         # 0: inference only, on the n_test windows
    n_test: int
    acc_floor: float | None = None   # least final test accuracy of every trial

    @property
    def trains(self) -> bool:
        return self.n_train > 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk_train",
        config=TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                         n_class=10, epochs=5, batch_size=64, lr=1e-3),
        n_per_class=200, n_train=1556, n_test=444,
        # five-epoch trials reached 0.59-0.88 on the 16 seeds tried; chance is 0.1
        acc_floor=0.4,
    ),
    Workload(
        name="stock_train",
        config=TSTConfig(batch_size=32, epochs=1),
        # two steps, so train() holds the first step's graph through the second forward
        n_per_class=10, n_train=64, n_test=32,
    ),
    Workload(
        name="stock_infer",
        config=TSTConfig(),
        n_per_class=13, n_train=0, n_test=128,
    ),
)}


@dataclass
class Inputs:
    windows: list[data.LabeledWindow]
    csv: Path
    checkpoint: Path | None


@dataclass
class Ready:
    """Everything the timed call needs, as set-up leaves it."""
    windows: list[data.LabeledWindow]
    split: data.DatasetSplit
    x: np.ndarray
    y: np.ndarray
    model: TSTModel


@dataclass
class Outcome:
    value: object        # TrialReport, or (loss, accuracy) from evaluate
    model: TSTModel
    seconds: float
    windows: int         # windows processed: train windows x epochs, or windows evaluated


def make_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    cfg = wl.config
    windows = data.generate_synthetic(data.default_synthetic_spec(), wl.n_per_class,
                                      seed, length=cfg.L)
    csv = workdir / "windows.csv"
    data.write_csv(windows, csv)
    checkpoint = None
    if not wl.trains:
        model = TSTModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(cfg.dim)
        model.w_head.data = rng.normal(0.0, scale, model.w_head.shape).astype(np.float32)
        model.b_head.data = rng.normal(0.0, scale, model.b_head.shape).astype(np.float32)
        checkpoint = workdir / "model.tst"
        tstmodel.save_checkpoint(model, checkpoint)
    return Inputs(windows=windows, csv=csv, checkpoint=checkpoint)


def set_up(wl: Workload, inputs: Inputs, seed: int) -> Ready:
    """Inputs on disk to ready-to-run; this is what ``setup_s`` times."""
    cfg = wl.config
    windows = data.load_csv(inputs.csv, length=cfg.L, n_class=cfg.n_class)
    split = data.split_train_test(windows, wl.n_train, wl.n_test, seed)
    x, y = data.windows_to_arrays(split.train if wl.trains else split.test)
    if wl.trains:
        model = TSTModel(cfg, seed=seed)
    else:
        model = tstmodel.load_checkpoint(inputs.checkpoint, expected_config=cfg)
    return Ready(windows=windows, split=split, x=x, y=y, model=model)


def call(wl: Workload, ready: Ready, seed: int) -> Outcome:
    """One timed operation: a whole ``train()`` trial of a fresh model, or one
    ``evaluate()`` of the set-up's model."""
    cfg = wl.config
    if wl.trains:
        model = TSTModel(cfg, seed=seed)   # train() updates in place; start fresh each time
        start = time.perf_counter()
        report = training.train(model, ready.split, cfg, seed)
        return Outcome(report, model, time.perf_counter() - start, wl.n_train * cfg.epochs)
    start = time.perf_counter()
    result = training.evaluate(ready.model, ready.x, ready.y, cfg.batch_size)
    return Outcome(result, ready.model, time.perf_counter() - start, len(ready.x))


def probe_forward(wl: Workload, ready: Ready, seed: int):
    """One forward of a batch as the timed call runs it (training mode with a
    tape, or eval mode under no_grad), for the retained-bytes probe."""
    x = ready.x[:wl.config.batch_size]
    if wl.trains:
        return ready.model.forward(x, training=True, rng=np.random.default_rng(seed))
    with no_grad():
        return ready.model.forward(x)


def warm_up(wl: Workload, ready: Ready, seed: int) -> np.ndarray | None:
    """Untimed, before the first timed call, so that the allocator's heap and
    the host's memory are already grown: the first touch of a few GB costs a
    stock call about a third more. Training runs one epoch over two batches
    with a one-batch test set. On inference ``predict`` runs the timed
    forward, and its labels check ``evaluate``'s accuracy."""
    if not wl.trains:
        return ready.model.predict(ready.x)
    cfg = wl.config
    batch = cfg.batch_size
    small = data.DatasetSplit(train=ready.split.train[:2 * batch],
                              test=ready.split.test[:batch], split_seed=seed)
    training.train(TSTModel(cfg, seed=seed), small, replace(cfg, epochs=1), seed)
    return None


# ---------------------------------------------------------------------------
# output checks: each returns (name, passed, detail)


def check_loaded(inputs: Inputs, ready: Ready) -> tuple[str, bool, str]:
    same = len(ready.windows) == len(inputs.windows) and all(
        a.label == b.label and np.array_equal(a.samples, b.samples)
        for a, b in zip(ready.windows, inputs.windows))
    return "load_csv returns the generated windows", same, f"{len(ready.windows)} windows"


def fingerprint(value) -> tuple:
    """Bit-exact identity of a call's output."""
    if isinstance(value, training.TrialReport):
        return tuple(value.lines())
    return tuple(repr(v) for v in value)


def check_outcomes(wl: Workload, outcomes: list[Outcome], ready: Ready,
                   predictions: np.ndarray | None) -> list[tuple[str, bool, str]]:
    first = outcomes[0]
    checks = [("repeated calls give bit-identical outputs",
               all(fingerprint(o.value) == fingerprint(first.value) for o in outcomes),
               f"{len(outcomes)} calls")]
    if wl.trains:
        report = first.value
        losses = report.train_loss + report.test_loss
        checks.append(("every epoch's losses are finite", all(map(math.isfinite, losses)),
                       f"train {report.train_loss[-1]:.4f}, test {report.test_loss[-1]:.4f}"))
        if wl.acc_floor is not None:
            checks.append((f"final test accuracy >= {wl.acc_floor}",
                           report.final_test_acc >= wl.acc_floor,
                           f"{report.final_test_acc:.4f}"))
        checks.append(_check_params_trained(wl, first.model, report.seed))
    else:
        loss, acc = first.value
        recomputed = float(np.mean(predictions == ready.y))
        checks.append(("evaluate loss is finite", math.isfinite(loss), f"{loss:.4f}"))
        checks.append(("evaluate accuracy equals predict's", acc == recomputed,
                       f"{acc} vs {recomputed}"))
        checks.append(_check_float64_logits(first.model, ready.x[:REFERENCE_WINDOWS]))
    return checks


def _check_params_trained(wl: Workload, trained: TSTModel, seed: int) -> tuple[str, bool, str]:
    initial = dict(TSTModel(wl.config, seed=seed).parameters())
    stuck = [name for name, p in trained.parameters()
             if not np.all(np.isfinite(p.data)) or np.array_equal(p.data, initial[name].data)]
    return ("every parameter changed and stayed finite", not stuck,
            f"unchanged or non-finite: {stuck}" if stuck else f"{len(initial)} tensors")


def _check_float64_logits(model: TSTModel, x: np.ndarray) -> tuple[str, bool, str]:
    reference = TSTModel(model.config, seed=0, dtype=np.float64)
    for (_, ref), (_, p) in zip(reference.parameters(), model.parameters()):
        ref.data = p.data.astype(np.float64)
    with no_grad():
        got = model.forward(x).logits.data.astype(np.float64)
        want = reference.forward(x).logits.data
    err = float(np.max(np.abs(got - want)))
    tol = LOGIT_TOLERANCE * max(1.0, float(np.max(np.abs(want))))
    return (f"logits match a float64 model within {LOGIT_TOLERANCE} relative",
            err <= tol, f"max abs error {err:.3e} on {len(x)} windows, tolerance {tol:.3e}")


def check_roundtrip(model: TSTModel, workdir: Path) -> tuple[str, bool, str]:
    """The model's checkpoint loads back with bit-identical parameters."""
    path = workdir / "roundtrip.tst"
    tstmodel.save_checkpoint(model, path)
    loaded = tstmodel.load_checkpoint(path, expected_config=model.config)
    same = all(np.array_equal(a.data, b.data)
               for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()))
    return "checkpoint round-trips bit-exactly", same, f"{path.stat().st_size} bytes"
