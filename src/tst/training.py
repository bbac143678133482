"""Adam optimization, the epoch loop, and repeated-trial studies.

One trial = re-init + train + per-epoch evaluation, fully determined by
(seed, config, dataset). A study repeats trials over a seed list and
aggregates the final test accuracies into TopAcc / MinAcc / AvgAcc / Std,
the statistics used to compare architecture variants.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetSplit, windows_to_arrays
from .errors import ConfigError, TrainingAbort
from .model import TSTConfig, TSTModel, cross_entropy_from_logits
from .tensor import Tensor, backward, no_grad


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        name = names[i] if names is not None else f"parameter {i}"
        if g is None or not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient for {name} at step {state.t}")
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            m = b1 * state.m[i] + (1.0 - b1) * g
            v = b2 * state.v[i] + (1.0 - b2) * (g * g)
            updated = p.data - (lr * (m / c1) / (np.sqrt(v / c2) + state.eps)).astype(
                p.dtype, copy=False)
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(updated))):
            raise TrainingAbort(f"non-finite Adam update for {name} at step {state.t}")
        state.m[i], state.v[i], p.data = m, v, updated


def lr_at_epoch(epoch: int, initial_lr: float = 3e-5, step: int = 10,
                gamma: float = 0.8) -> float:
    """Step decay: initial_lr * gamma ** floor(epoch / step)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return initial_lr * gamma ** (epoch // step)


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
        """Delimited table: epoch,train_loss,test_loss,train_acc,test_acc
        plus a trailing summary record."""
        out = ["epoch,train_loss,test_loss,train_acc,test_acc"]
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
            out.append(f"-,{seed},nan,failed: {msg}")
        out.append(
            "summary,"
            f"trials={len(self.trials)},top_acc={self.top_acc!r},min_acc={self.min_acc!r},"
            f"avg_acc={self.avg_acc!r},std={self.std!r}"
        )
        return out


def evaluate(model: TSTModel, x: np.ndarray, y: np.ndarray,
             batch_size: int) -> tuple[float, float]:
    """Mean loss and accuracy in eval mode (dropout off, no graph, no updates)."""
    total_loss = 0.0
    correct = 0
    with no_grad():
        for start in range(0, len(x), batch_size):
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            result = model.forward(xb, training=False)
            loss = cross_entropy_from_logits(result.logits, yb)
            total_loss += loss.item() * len(xb)
            correct += int(np.sum(np.argmax(result.logits.data, axis=1) == yb))
    return total_loss / len(x), correct / len(x)


def train(model: TSTModel, split: DatasetSplit, config: TSTConfig, seed: int) -> TrialReport:
    """Mini-batch Adam over ``config.epochs`` epochs with the step-decay
    schedule; shuffles the full training set each epoch and keeps the last
    partial batch. Test metrics are evaluated every epoch."""
    if not split.train or not split.test:
        raise ConfigError("training needs non-empty train and test sets")
    x_train, y_train = windows_to_arrays(split.train)
    x_test, y_test = windows_to_arrays(split.test)
    if x_train.shape[1] != config.L:
        raise ConfigError(f"window length {x_train.shape[1]} does not match config L={config.L}")

    rng = np.random.default_rng(seed)
    names, params = zip(*model.parameters())
    state = AdamState.init(params)
    report = TrialReport(seed=seed)

    for epoch in range(config.epochs):
        lr = lr_at_epoch(epoch, config.lr, config.lr_step, config.lr_gamma)
        order = rng.permutation(len(x_train))
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            result = model.forward(xb, training=True, rng=rng)
            loss = cross_entropy_from_logits(result.logits, yb)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingAbort(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            model.zero_grad()
            backward(loss)
            adam_step(params, [p.grad for p in params], state, lr, names)
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
    """One independent re-init + retrain per seed, on ``jobs`` threads;
    failures are recorded and the study continues. Results are aggregated
    in seed order, so the report does not depend on scheduling."""
    if not seeds:
        raise ConfigError("a study needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds would repeat one trial: {list(seeds)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    def run(seed: int) -> TrialReport:
        model = TSTModel(config, seed=seed)
        return train(model, split, config, seed)

    results: dict[int, TrialReport] = {}
    failures: dict[int, str] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {seed: pool.submit(run, seed) for seed in seeds}
    for seed, fut in futures.items():
        try:
            results[seed] = fut.result()
        except TrainingAbort as exc:
            failures[seed] = str(exc)

    ordered = sorted(seeds)
    return StudyReport(
        trials=[results[s] for s in ordered if s in results],
        failed_seeds=[(s, failures[s]) for s in ordered if s in failures],
    )
