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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class LabeledWindow:
    samples: np.ndarray     # (window_length,) float32
    label: int
    source_id: str = ""


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
        # bytes that are not UTF-8 decode to lone surrogates, which no label
        # or sample parses, so such a row fails naming its line
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
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
            windows.append(LabeledWindow(samples=samples, label=label,
                                         source_id=f"{path}:{lineno}"))
    if not windows:
        warnings.warn(f"{path} holds no data rows", stacklevel=2)
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


@dataclass(frozen=True)
class ClassSpec:
    """One fault class: impulses at rep_hz ringing a resonance at res_hz."""
    rep_hz: float
    res_hz: float
    decay: float        # 1/s envelope rate of each impulse
    amplitude: float
    noise_std: float


@dataclass
class SyntheticSpec:
    sample_rate: float = 12_000.0
    classes: list[ClassSpec] = field(default_factory=list)

    def validate(self):
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        nyquist = self.sample_rate / 2
        seen = set()
        for i, c in enumerate(self.classes):
            if not (0 < c.rep_hz < nyquist and 0 < c.res_hz < nyquist):
                raise ConfigError(
                    f"class {i}: frequencies must lie in (0, {nyquist}), got "
                    f"rep={c.rep_hz}, res={c.res_hz}"
                )
            key = (c.rep_hz, c.res_hz, c.decay, c.amplitude, c.noise_std)
            if key in seen:
                raise ConfigError(f"class {i} duplicates another class's parameters")
            seen.add(key)
        return self


def default_synthetic_spec() -> SyntheticSpec:
    """Ten classes: normal condition plus inner-race / outer-race / ball
    faults at three severities each. Modes differ by repetition frequency,
    severities by impulse amplitude and decay."""
    classes = [ClassSpec(rep_hz=30.0, res_hz=500.0, decay=300.0, amplitude=0.0, noise_std=0.25)]
    for rep, res in ((162.0, 3500.0), (107.0, 2800.0), (141.0, 4200.0)):  # IR, OR, RB
        for amp, decay in ((1.2, 500.0), (2.5, 1200.0), (5.0, 2800.0)):   # mild..severe
            classes.append(ClassSpec(rep_hz=rep, res_hz=res, decay=decay,
                                     amplitude=amp, noise_std=0.25))
    return SyntheticSpec(classes=classes)


def _impulse_train(spec: ClassSpec, n: int, sample_rate: float,
                   rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) / sample_rate
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


def generate_synthetic(spec: SyntheticSpec, n_per_class: int, seed: int,
                       length: int) -> list[LabeledWindow]:
    """Balanced labeled windows, bit-reproducible for a given seed."""
    spec.validate()
    rng = np.random.default_rng(seed)
    windows = []
    for label, cls in enumerate(spec.classes):
        for i in range(n_per_class):
            samples = _impulse_train(cls, length, spec.sample_rate, rng)
            windows.append(LabeledWindow(samples=samples, label=label,
                                         source_id=f"synth:c{label}:{i}"))
    return windows


# ---------------------------------------------------------------------------
# model-facing arrays


def standardize(x: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Per-row zero mean / unit variance; applied to every window before it
    reaches the tokenizer."""
    x = np.asarray(x, dtype=np.float32)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return (x - mu) / (sd + eps)


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
