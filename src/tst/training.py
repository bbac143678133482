"""Adam optimization, the epoch loop, and repeated-trial studies.

One trial = re-init + train + per-epoch evaluation, fully determined by
(seed, config, dataset): the learning-rate schedule reads the config, and
Adam's betas and epsilon are module constants. A study repeats trials over
a seed list and aggregates the final test accuracies into TopAcc / MinAcc /
AvgAcc / Std, the statistics used to compare architecture variants.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import DatasetSplit, windows_to_arrays
from .errors import ConfigError, DataError, TrainingAbort
from .model import TSTConfig, TSTModel, _run_pair, cross_entropy_from_logits
from .tensor import Tensor, backward


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the trial report's table header, one row per epoch
TRIAL_COLUMNS = "epoch,train_loss,test_loss,train_acc,test_acc"


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: list[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float,
              names: list[str] | None = None):
    """Standard bias-corrected Adam update of the parameter data.

    A non-finite gradient, second moment or updated value aborts the step
    before that parameter changes, naming it by ``names[i]`` (default: its
    index); the overflow that produces it raises no numpy warning.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("parameter / gradient / state lengths disagree")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        name = names[i] if names is not None else f"parameter {i}"
        if g is None or not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient for {name} at step {state.t}")
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            m = b1 * state.m[i] + (1.0 - b1) * g
            v = b2 * state.v[i] + (1.0 - b2) * (g * g)
            updated = p.data - (lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(
                p.dtype, copy=False)
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(updated))):
            raise TrainingAbort(f"non-finite Adam update for {name} at step {state.t}")
        state.m[i], state.v[i], p.data = m, v, updated


def lr_at_epoch(epoch: int, config: TSTConfig) -> float:
    """Step decay: lr * lr_gamma ** floor(epoch / lr_step)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return config.lr * config.lr_gamma ** (epoch // config.lr_step)


@dataclass
class TrialReport:
    seed: int
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)

    @property
    def final_test_acc(self) -> float:
        return self.test_acc[-1] if self.test_acc else float("nan")

    def lines(self) -> list[str]:
        """Delimited table under ``TRIAL_COLUMNS`` plus a trailing summary
        record."""
        out = [TRIAL_COLUMNS]
        for e in range(len(self.train_loss)):
            out.append(f"{e},{self.train_loss[e]!r},{self.test_loss[e]!r},"
                       f"{self.train_acc[e]!r},{self.test_acc[e]!r}")
        out.append(f"summary,seed={self.seed},final_test_acc={self.final_test_acc!r}")
        return out


@dataclass
class StudyReport:
    trials: list[TrialReport]
    failed_seeds: list[tuple[int, str]] = field(default_factory=list)

    @property
    def final_accs(self) -> list[float]:
        return [t.final_test_acc for t in self.trials]

    def _reduce(self, statistic) -> float:   # nan when no trial finished
        return float(statistic(self.final_accs)) if self.trials else float("nan")

    @property
    def top_acc(self) -> float:
        return self._reduce(max)

    @property
    def min_acc(self) -> float:
        return self._reduce(min)

    @property
    def avg_acc(self) -> float:
        return self._reduce(np.mean)

    @property
    def std(self) -> float:
        return self._reduce(np.std)  # population std; 0 for one trial

    def lines(self) -> list[str]:
        out = ["trial,seed,final_test_acc,status"]
        for i, t in enumerate(self.trials):
            out.append(f"{i},{t.seed},{t.final_test_acc!r},ok")
        for seed, msg in self.failed_seeds:
            status = f"failed: {msg}"
            if any(c in status for c in ',"\r\n'):   # the csv module's minimal quoting
                status = '"' + status.replace('"', '""') + '"'
            out.append(f"-,{seed},nan,{status}")
        out.append(
            "summary,"
            f"trials={len(self.trials)},top_acc={self.top_acc!r},min_acc={self.min_acc!r},"
            f"avg_acc={self.avg_acc!r},std={self.std!r}"
        )
        return out


def evaluate(model: TSTModel, x: np.ndarray, y: np.ndarray,
             batch_size: int) -> tuple[float, float]:
    """Mean loss and accuracy over ``model.eval_batches`` (no dropout, graph or updates)."""
    if not len(x):
        raise DataError("evaluation needs at least one window")
    total_loss = 0.0
    correct = 0
    for rows, result in model.eval_batches(x, batch_size):
        yb = y[rows]
        total_loss += cross_entropy_from_logits(result.logits, yb).item() * len(yb)
        correct += int(np.sum(np.argmax(result.logits.data, axis=1) == yb))
    return total_loss / len(x), correct / len(x)


def _shard_losses(shards: tuple, labels: np.ndarray) -> list[Tensor]:
    """Each row shard's cross-entropy, weighted by its share of the batch's rows, so that
    the weighted losses sum to the batch's mean loss."""
    losses, row = [], 0
    for logits in shards:
        rows = len(logits.data)
        losses.append(T.mul(cross_entropy_from_logits(logits, labels[row:row + rows]),
                            rows / len(labels)))
        row += rows
    return losses


def _shard_gradients(losses: list[Tensor], params: list[Tensor]) -> list[np.ndarray]:
    """The gradient of the sum of the shard losses: each shard backpropagates its own graph,
    two of them through ``_run_pair``, and their gradients add in shard order."""
    if len(losses) == 1:
        return backward(losses[0], params)
    first, second = _run_pair(lambda: backward(losses[0], params),
                              lambda: backward(losses[1], params))
    return [a + b for a, b in zip(first, second)]


def train(model: TSTModel, split: DatasetSplit, config: TSTConfig, seed: int) -> TrialReport:
    """Mini-batch Adam over ``config.epochs`` epochs with the step-decay schedule; shuffles
    the full training set each epoch, keeps the last partial batch, and evaluates the test
    set after each epoch. A batch that the forward runs as two row shards trains as two
    (``_shard_losses``, ``_shard_gradients``), the second shard on the worker thread when
    ``_worker_core_free()``. The shards, their dropout generators and the order of the sum
    are fixed, so the outputs do not depend on which thread ran a shard, and on a 2-core
    host, where every GEMM runs at one OpenBLAS thread, not on ``OPENBLAS_NUM_THREADS``."""
    if not split.train or not split.test:
        raise ConfigError("training needs non-empty train and test sets")
    if config.epochs < 1:   # a checkpoint may hold 0, but a trial must train
        raise ConfigError(f"training needs epochs >= 1, got {config.epochs}")
    x_train, y_train = windows_to_arrays(split.train)
    x_test, y_test = windows_to_arrays(split.test)
    if x_train.shape[1] != config.L:
        raise ConfigError(f"window length {x_train.shape[1]} does not match config L={config.L}")

    rng = np.random.default_rng(seed)
    names, params = zip(*model.parameters())
    state = AdamState.init(params)
    report = TrialReport(seed=seed)

    for epoch in range(config.epochs):
        lr = lr_at_epoch(epoch, config)
        order = rng.permutation(len(x_train))
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            result = model.forward(xb, training=True, rng=rng)
            losses = _shard_losses(result.shards, yb)
            value = sum(loss.item() for loss in losses)
            if not math.isfinite(value):
                raise TrainingAbort(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            adam_step(params, _shard_gradients(losses, params), state, lr, names)
            epoch_loss += value * len(xb)
            epoch_correct += int(np.sum(np.argmax(result.logits.data, axis=1) == yb))

        test_loss, test_acc = evaluate(model, x_test, y_test, config.batch_size)
        report.train_loss.append(epoch_loss / len(x_train))
        report.train_acc.append(epoch_correct / len(x_train))
        report.test_loss.append(test_loss)
        report.test_acc.append(test_acc)
    return report


def repeat_trials(split: DatasetSplit, config: TSTConfig, seeds: list[int],
                  jobs: int = 1) -> StudyReport:
    """One independent re-init + retrain per seed; failures are recorded and the
    study continues. One trial at a time runs on the calling thread, more at once
    on ``jobs`` pool threads, whose shards run in turn (``_worker_core_free``).
    Results are aggregated in seed order, so the report does not depend on scheduling."""
    if not seeds:
        raise ConfigError("a study needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds would repeat one trial: {list(seeds)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    def run(seed: int) -> TrialReport | str:   # the report, or why the trial aborted
        try:
            return train(TSTModel(config, seed=seed), split, config, seed)
        except TrainingAbort as exc:
            return str(exc)

    if min(jobs, len(seeds)) == 1:
        outcomes = {seed: run(seed) for seed in seeds}
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = dict(zip(seeds, pool.map(run, seeds)))
    ordered = sorted(seeds)
    return StudyReport(
        trials=[outcomes[s] for s in ordered if isinstance(outcomes[s], TrialReport)],
        failed_seeds=[(s, outcomes[s]) for s in ordered if isinstance(outcomes[s], str)],
    )
