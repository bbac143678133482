"""Cost accounting, confusion matrices, and embedding-space visualization.

The cost model is closed-form. Parameter counts come in two flavours:
``params_full`` is every trainable scalar in the model, and
``params_comparable`` drops the standalone class-token and position-table
entries, which is the convention the bundled reference sweep's printed
counts follow. The MAC count covers linear maps only (embedding, QKV and
output projections, MLP, head); the score and weighted-value products
inside attention are tracked separately in ``macs_attention`` because the
reference FLOPs figures exclude them.

t-SNE here is the exact O(n^2) algorithm: per-point bandwidths found by
binary search against the target perplexity (finite, >= 1, <= n/3),
symmetrized affinities, Student-t low-dimensional kernel, gradient descent
with momentum 0.5 (0.8 after iteration 250) and early exaggeration x12 for
the first 250 iterations (a run needs at least one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import windows_to_arrays
from .errors import ConfigError, DataError
from .model import TSTConfig, TSTModel
from .tensor import no_grad

# ---------------------------------------------------------------------------
# analytic cost model


@dataclass(frozen=True)
class CostReport:
    macs_linear: int        # multiply-accumulates over linear maps, one sample
    macs_attention: int     # QK^T and weights*V products (informational)
    params_full: int        # every trainable scalar
    params_comparable: int  # minus class token and position table

    @property
    def flops_m(self) -> float:
        return self.macs_linear / 1e6

    @property
    def params_m(self) -> float:
        return self.params_comparable / 1e6


def cost_report(config: TSTConfig) -> CostReport:
    config.validate()
    n = config.ns + 1                      # tokens incl. class slot
    dim, d_k, h = config.dim, config.d_k, config.heads
    hd = h * d_k                           # fused q, k, v (and o) projection width

    per_block_params = (
        2 * 2 * dim                        # two LayerNorm gain/bias pairs
        + 3 * dim * hd                     # Q, K, V projections
        + hd * dim                         # output projection
        + dim * config.dim_mlp + config.dim_mlp
        + config.dim_mlp * dim + dim
    )
    standalone = dim                       # class token
    if config.pos_encoding == "1d":
        standalone += n * dim              # position table
    params_full = (
        config.sub_len * dim               # embedding
        + standalone
        + config.depth * per_block_params
        + 2 * dim                          # final LayerNorm
        + dim * config.n_class + config.n_class
    )

    per_block_macs = n * (3 * dim * hd + hd * dim + 2 * dim * config.dim_mlp)
    macs_linear = (
        config.ns * config.sub_len * dim   # embedding (= L * dim)
        + config.depth * per_block_macs
        + dim * config.n_class
    )
    macs_attention = config.depth * h * n * n * 2 * d_k

    return CostReport(
        macs_linear=macs_linear,
        macs_attention=macs_attention,
        params_full=params_full,
        params_comparable=params_full - standalone,
    )


@dataclass(frozen=True)
class SweepRow:
    label: str
    overrides: dict
    flops_target_m: float
    params_target_m: float

    def config(self) -> TSTConfig:
        return replace(TSTConfig(), **self.overrides).validate()


# Bundled reference sweep: the stock architecture plus the published
# variant rows (A: subsequence count, B: embedding widths, C: key depth,
# D: head count, E: depth, F: no position encoding) with their expected
# FLOPs (linear-MAC millions) and comparable parameter counts (millions).
REFERENCE_SWEEP: tuple[SweepRow, ...] = (
    SweepRow("baseline", {}, 405.52, 1.58),
    SweepRow("A", {"ns": 128}, 203.18, 1.58),
    SweepRow("A", {"ns": 64}, 102.51, 1.58),
    SweepRow("A", {"ns": 32}, 52.17, 1.59),
    SweepRow("A", {"ns": 16}, 27.00, 1.59),
    SweepRow("A", {"ns": 8}, 14.42, 1.61),
    SweepRow("A", {"ns": 4}, 8.13, 1.64),
    SweepRow("A", {"ns": 2}, 4.98, 1.71),
    SweepRow("A", {"ns": 1}, 3.41, 1.84),
    SweepRow("B", {"dim": 16, "dim_mlp": 32}, 39.51, 0.15),
    SweepRow("B", {"dim": 32, "dim_mlp": 64}, 82.18, 0.32),
    SweepRow("B", {"dim": 64, "dim_mlp": 128}, 177.00, 0.69),
    SweepRow("C", {"d_k": 8}, 139.25, 0.55),
    SweepRow("C", {"d_k": 16}, 177.15, 0.69),
    SweepRow("C", {"d_k": 32}, 252.94, 0.99),
    SweepRow("C", {"d_k": 128}, 707.69, 2.76),
    SweepRow("D", {"heads": 1}, 151.88, 0.60),
    SweepRow("D", {"heads": 2}, 202.41, 0.79),
    SweepRow("D", {"heads": 4}, 303.47, 1.19),
    SweepRow("E", {"depth": 1}, 67.67, 0.27),
    SweepRow("E", {"depth": 2}, 135.04, 0.53),
    SweepRow("E", {"depth": 4}, 269.78, 1.05),
    SweepRow("F", {"pos_encoding": "none"}, 404.52, 1.55),
)


def sweep_results() -> list[tuple[SweepRow, CostReport]]:
    return [(row, cost_report(row.config())) for row in REFERENCE_SWEEP]


# ---------------------------------------------------------------------------
# confusion matrices and the 4-mode collapse


def confusion(true_labels, predicted, n_class: int) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise DataError(f"label vectors disagree: {t.shape} vs {p.shape}")
    m = np.zeros((n_class, n_class), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return m


def accuracy_from_confusion(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    total = matrix.sum()
    return float(np.trace(matrix) / total) if total else float("nan")


# class layout: 0 = normal, 1-3 inner race, 4-6 outer race, 7-9 ball,
# severities ordered within each mode
FOUR_CLASS_MAP = np.array([0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
FOUR_CLASS_NAMES = ("NC", "IR", "OR", "RB")


def collapse_to_4class(matrix) -> np.ndarray:
    """Fold a 10x10 confusion matrix into the 4x4 one of the fault modes.

    Within-mode confusion lands on the collapsed diagonal, so accuracy
    never decreases.
    """
    arr = np.asarray(matrix)
    if arr.shape != (10, 10):
        raise DataError(f"expected a 10x10 matrix, got shape {arr.shape}")
    out = np.zeros((4, 4), dtype=arr.dtype)
    np.add.at(out, (FOUR_CLASS_MAP[:, None], FOUR_CLASS_MAP[None, :]), arr)
    return out


# ---------------------------------------------------------------------------
# exact t-SNE

MAX_TSNE_POINTS = 5000
_P_FLOOR = 1e-12


@dataclass
class TsneResult:
    coords: np.ndarray            # (n, 2)
    kl_final: float
    kl_after_exaggeration: float


@dataclass(frozen=True)
class EmbeddingPoint:
    x: float
    y: float
    label: int
    block_index: int    # 0 = raw input, 1..depth = after that block


def _squared_distances(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _conditional_probs(d2_row: np.ndarray, target_entropy: float,
                       steps: int = 64, tol: float = 1e-7) -> np.ndarray:
    """Binary search the precision beta so the row's Shannon entropy matches
    log(perplexity)."""
    beta, lo, hi = 1.0, 0.0, math.inf
    p = np.zeros_like(d2_row)
    for _ in range(steps):
        p = np.exp(-d2_row * beta)
        s = p.sum()
        if s <= 0.0:
            entropy = 0.0
            p[:] = 0.0
        else:
            p /= s
            nz = p > 0
            entropy = float(-np.sum(p[nz] * np.log(p[nz])))
        diff = entropy - target_entropy
        if abs(diff) < tol:
            break
        if diff > 0:      # entropy too high -> tighten the kernel
            lo = beta
            beta = beta * 2.0 if hi is math.inf else (beta + hi) / 2.0
        else:
            hi = beta
            beta = (beta + lo) / 2.0
    return p


def _joint_affinities(features: np.ndarray, perplexity: float) -> np.ndarray:
    n = features.shape[0]
    d2 = _squared_distances(features)
    target = math.log(perplexity)
    p_cond = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        row = np.delete(d2[i], i)
        p = _conditional_probs(row, target)
        p_cond[i, idx != i] = p
    p_joint = (p_cond + p_cond.T) / (2.0 * n)
    return np.maximum(p_joint, _P_FLOOR)


def _kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def tsne_embed(features, perplexity: float = 30.0, iterations: int = 1000,
               seed: int = 0, learning_rate: float = 200.0) -> TsneResult:
    """Exact t-SNE of row vectors down to 2-d; deterministic under seed."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"features must be (n, d), got shape {x.shape}")
    n = x.shape[0]
    if n > MAX_TSNE_POINTS:
        raise ConfigError(f"{n} points exceeds the exact-algorithm cap of {MAX_TSNE_POINTS}")
    if not 1.0 <= perplexity < math.inf:   # nan fails too
        raise ConfigError(f"perplexity must be finite and >= 1, got {perplexity}")
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if n < 3 * perplexity:
        raise ConfigError(f"need at least 3*perplexity={3 * perplexity:g} points, got {n}")

    exaggeration = 12.0
    switch_iter = 250
    p = _joint_affinities(x, perplexity)

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_after_exaggeration = math.nan

    p_used = p * exaggeration
    for it in range(iterations):
        if it == switch_iter:
            p_used = p
            kl_after_exaggeration = _kl_divergence(p, _student_t_q(y)[0])
        q, num = _student_t_q(y)
        momentum = 0.5 if it < switch_iter else 0.8
        # gradient: 4 * sum_j (p_ij - q_ij) * num_ij * (y_i - y_j)
        coeff = (p_used - q) * num
        grad = 4.0 * (coeff.sum(axis=1)[:, None] * y - coeff @ y)
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity

    kl_final = _kl_divergence(p, _student_t_q(y)[0])
    if math.isnan(kl_after_exaggeration):   # short runs never left exaggeration
        kl_after_exaggeration = kl_final
    return TsneResult(coords=y, kl_final=kl_final,
                      kl_after_exaggeration=kl_after_exaggeration)


def _student_t_q(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    num = 1.0 / (1.0 + _squared_distances(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, _P_FLOOR), num


# ---------------------------------------------------------------------------
# per-block class-token export


def collect_stage_features(model: TSTModel, windows) -> tuple[list[np.ndarray], np.ndarray]:
    """Stage 0 is the (standardized) raw window; stages 1..depth are the
    class tokens after each block, captured in eval mode."""
    x, y = windows_to_arrays(windows)
    stages: list[list[np.ndarray]] = [[] for _ in range(model.config.depth + 1)]
    bs = model.config.batch_size
    with no_grad():
        for start in range(0, len(x), bs):
            xb = x[start:start + bs]
            result = model.forward(xb, training=False)
            stages[0].append(xb.astype(np.float64))
            for d, tok in enumerate(result.class_tokens, start=1):
                stages[d].append(tok.data.astype(np.float64))
    return [np.concatenate(parts) for parts in stages], y


def export_embeddings(model: TSTModel, windows, path, perplexity: float = 30.0,
                      iterations: int = 1000, seed: int = 0) -> list[EmbeddingPoint]:
    """t-SNE every stage independently and write block_index,label,x,y rows."""
    stage_features, labels = collect_stage_features(model, windows)
    points: list[EmbeddingPoint] = []
    for block_index, feats in enumerate(stage_features):
        result = tsne_embed(feats, perplexity=perplexity, iterations=iterations, seed=seed)
        for (px, py), label in zip(result.coords, labels):
            points.append(EmbeddingPoint(x=float(px), y=float(py),
                                         label=int(label), block_index=block_index))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block_index,label,x,y\n")
        for pt in points:
            fh.write(f"{pt.block_index},{pt.label},{pt.x!r},{pt.y!r}\n")
    return points
