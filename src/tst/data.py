"""Labeled vibration windows: CSV ingestion, synthetic signals, splits.

CSV files carry one window per row: an integer label in ``[0, n_class)``
followed by exactly the window's ``length`` samples.

A parametric impulse-train generator stands in for measured bearing data
in desk-scale runs: each fault class is an exponentially decaying
resonance rung repeatedly at the class's characteristic frequency, plus
gaussian noise. Severity variants of a fault mode share the repetition
frequency and differ in impulse amplitude and decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class LabeledWindow:
    samples: np.ndarray     # (window_length,) float32
    label: int


@dataclass
class DatasetSplit:
    train: list[LabeledWindow]
    test: list[LabeledWindow]
    split_seed: int


def split_train_test(windows, n_train: int, n_test: int, seed: int) -> DatasetSplit:
    """Seeded uniform draw without replacement; leftover windows are dropped."""
    windows = list(windows)
    if n_train < 0 or n_test < 0:
        raise ConfigError("split sizes must be non-negative")
    if n_train + n_test > len(windows):
        raise DataError(
            f"cannot split {len(windows)} windows into {n_train} train + {n_test} test"
        )
    order = np.random.default_rng(seed).permutation(len(windows))
    train = [windows[i] for i in order[:n_train]]
    test = [windows[i] for i in order[n_train:n_train + n_test]]
    return DatasetSplit(train=train, test=test, split_seed=seed)


# ---------------------------------------------------------------------------
# CSV format: UTF-8, comma-delimited, one window per row as
# "label,s0,s1,...", optional comment/header lines starting with '#'.


def load_csv(path, length: int, n_class: int) -> list[LabeledWindow]:
    windows: list[LabeledWindow] = []
    try:
        # a leading byte-order mark is dropped; bytes that are not UTF-8 decode to
        # lone surrogates, which no label or sample parses, so such a row fails naming its line
        fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    except OSError as exc:   # a directory, or a file this process may not read
        raise DataError(f"cannot open dataset file {path}: {exc.strerror}") from None
    with fh, np.errstate(over="ignore"):   # beyond float32 becomes inf, rejected below
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            raw_label, *values = line.split(",")
            try:
                label = int(raw_label)
            except ValueError:
                raise DataError(f"{path}:{lineno}: label {raw_label!r} is not an integer") from None
            if not 0 <= label < n_class:
                raise DataError(f"{path}:{lineno}: label {label} out of range")
            if len(values) != length:
                raise DataError(
                    f"{path}:{lineno}: row has {len(values)} samples, expected {length}"
                )
            try:
                samples = np.array([float(v) for v in values], dtype=np.float32)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric sample value") from None
            if not np.isfinite(samples).all():
                raise DataError(f"{path}:{lineno}: non-finite sample value")
            windows.append(LabeledWindow(samples=samples, label=label))
    if not windows:
        raise DataError(f"{path} holds no data rows")
    return windows


def write_csv(windows, path, comment: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for w in windows:
            fh.write(str(int(w.label)))
            fh.write(",")
            fh.write(",".join(repr(float(v)) for v in w.samples))
            fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic impulse-train generator

SAMPLE_RATE = 12_000.0   # Hz, the CWRU drive-end recordings' rate


@dataclass(frozen=True)
class ClassSpec:
    """One fault class: impulses at rep_hz ringing a resonance at res_hz."""
    rep_hz: float
    res_hz: float
    decay: float        # 1/s envelope rate of each impulse
    amplitude: float
    noise_std: float


def default_synthetic_spec() -> tuple[ClassSpec, ...]:
    """Ten classes: normal condition plus inner-race / outer-race / ball
    faults at three severities each, every frequency below ``SAMPLE_RATE / 2``.
    Modes differ by repetition frequency, severities by impulse amplitude and decay."""
    classes = [ClassSpec(rep_hz=30.0, res_hz=500.0, decay=300.0, amplitude=0.0, noise_std=0.25)]
    for rep, res in ((162.0, 3500.0), (107.0, 2800.0), (141.0, 4200.0)):  # IR, OR, RB
        for amp, decay in ((1.2, 500.0), (2.5, 1200.0), (5.0, 2800.0)):   # mild..severe
            classes.append(ClassSpec(rep_hz=rep, res_hz=res, decay=decay,
                                     amplitude=amp, noise_std=0.25))
    return tuple(classes)


def _impulse_train(spec: ClassSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    out = np.zeros(n, dtype=np.float64)
    if spec.amplitude != 0.0:
        period = 1.0 / spec.rep_hz
        offset = rng.uniform(0.0, period)      # random start of the train
        phase = rng.uniform(0.0, 2.0 * np.pi)  # carrier phase, shared by all impulses
        k = 0
        while True:
            t0 = offset + k * period
            if t0 >= t[-1]:
                break
            tau = t - t0
            live = tau >= 0.0
            out[live] += spec.amplitude * np.exp(-spec.decay * tau[live]) * np.sin(
                2.0 * np.pi * spec.res_hz * tau[live] + phase)
            k += 1
    if spec.noise_std > 0.0:
        out += rng.normal(0.0, spec.noise_std, size=n)
    return out.astype(np.float32)


def generate_synthetic(classes, n_per_class: int, seed: int,
                       length: int) -> list[LabeledWindow]:
    """Balanced labeled windows, label i drawn from ``classes[i]``, bit-reproducible per seed."""
    rng = np.random.default_rng(seed)
    windows = []
    for label, cls in enumerate(classes):
        for _ in range(n_per_class):
            samples = _impulse_train(cls, length, rng)
            windows.append(LabeledWindow(samples=samples, label=label))
    return windows


# ---------------------------------------------------------------------------
# model-facing arrays

_STD_EPS = 1e-8   # keeps a constant window finite


def standardize(x: np.ndarray) -> np.ndarray:
    """Per-row zero mean / unit variance; applied to every window before it
    reaches the tokenizer."""
    x = np.asarray(x, dtype=np.float32)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return (x - mu) / (sd + _STD_EPS)


def windows_to_arrays(windows) -> tuple[np.ndarray, np.ndarray]:
    """Stack windows into (X, y), X standardized per window."""
    windows = list(windows)
    if not windows:
        return np.zeros((0, 0), dtype=np.float32), np.zeros(0, dtype=np.int64)
    lengths = {w.samples.shape[0] for w in windows}
    if len(lengths) != 1:
        raise DataError(f"windows have mixed lengths {sorted(lengths)}")
    x = np.stack([w.samples for w in windows]).astype(np.float32)
    y = np.array([w.label for w in windows], dtype=np.int64)
    return standardize(x), y
