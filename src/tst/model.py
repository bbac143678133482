"""The full TST: tokenizer -> transformer stack -> linear classifier.

``TSTConfig``, the only config, carries every architecture and training
hyperparameter with the stock defaults (2048-sample windows cut into 256
subsequences of length 8, dim 128, 6 blocks, 6 heads, d_k 64, MLP width
256, dropout 0.1, learned 1-d position encoding, 10 classes, Adam at 3e-5
with a x0.8 step decay every 10 epochs, batch 128, 50 epochs). Blocks keep
only their head count and read every other extent off their weights.

The model outputs logits; the training loss is cross-entropy computed from
them through log-sum-exp.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import math
import numbers
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .tensor import Tensor
from .tokenizer import POS_LEARNED_1D, POS_NONE, TokenizerParams, tokenize
from .transformer import TransformerStack, stack_forward

CHECKPOINT_MAGIC = b"TST1"


@dataclass(frozen=True)
class TSTConfig:
    L: int = 2048
    ns: int = 256
    dim: int = 128
    dim_mlp: int = 256
    d_k: int = 64
    heads: int = 6
    depth: int = 6
    p_drop: float = 0.1
    pos_encoding: str = POS_LEARNED_1D
    n_class: int = 10
    lr: float = 3e-5
    lr_step: int = 10
    lr_gamma: float = 0.8
    batch_size: int = 128
    epochs: int = 50

    @property
    def sub_len(self) -> int:
        return self.L // self.ns

    def __post_init__(self):   # runs on construction and dataclasses.replace: every config is valid
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            try:
                float(value)   # checkpoints store an f64, and an int can exceed every one
            except OverflowError:
                raise ConfigError(f"{name} is too large for a 64-bit float") from None
        if not isinstance(self.pos_encoding, str):
            raise ConfigError(f"pos_encoding must be a string, got {self.pos_encoding!r}")
        for name in _INT_FIELDS:
            value, low = getattr(self, name), 0 if name == "epochs" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not low <= value < 2**32:   # stored as a u32 in checkpoints
                raise ConfigError(f"{name} must be in [{low}, 2**32), got {value}")
        if self.L % self.ns != 0:
            raise ConfigError(f"L={self.L} is not divisible by ns={self.ns}")
        if not 0.0 <= self.p_drop < 1.0:
            raise ConfigError(f"p_drop must be in [0, 1), got {self.p_drop}")
        if self.pos_encoding not in (POS_LEARNED_1D, POS_NONE):
            raise ConfigError(f"pos_encoding must be '1d' or 'none', got {self.pos_encoding!r}")
        if not (0.0 < self.lr < math.inf and 0.0 < self.lr_gamma < math.inf):   # nan fails too
            raise ConfigError(f"lr and lr_gamma must be positive and finite, got "
                              f"{self.lr} and {self.lr_gamma}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TSTConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object of field values, got "
                              f"{type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


# the config fields by type, in declared order: the checkpoint's field layout
_INT_FIELDS = tuple(f.name for f in fields(TSTConfig) if f.type == "int")
_FLOAT_FIELDS = tuple(f.name for f in fields(TSTConfig) if f.type == "float")
_HEADER = struct.Struct("<" + "I" * len(_INT_FIELDS) + "d" * len(_FLOAT_FIELDS) + "B")


class ForwardResult(NamedTuple):
    logits: Tensor         # (B, n_class)
    class_tokens: list     # per-block (B, dim) class tokens, detached
    shards: tuple          # the logits of each row shard, in row order: one or two


class TSTModel:
    """Holds every trainable leaf and runs the forward pass.

    Parameters are enumerable in a fixed declared order (tokenizer, blocks
    in sequence, final norm, head) so checkpoints and optimizer state stay
    aligned across runs.
    """

    # rows x ns x dim of the config's half batch below which batches run whole, in training
    # and eval alike, so a trial's steps record the same graphs (the desk config shards)
    _HALF_MIN = 2**16

    def __init__(self, config: TSTConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.tokenizer = TokenizerParams.init(config, rng, dtype)
        self.stack = TransformerStack.init(config.depth, config.dim, config.dim_mlp,
                                           config.heads, config.d_k, rng, dtype)
        # zero head: the untrained classifier is exactly uniform, so the
        # starting loss is log(n_class) and early training is seed-stable
        self.w_head = Tensor(np.zeros((config.dim, config.n_class), dtype=dtype),
                             requires_grad=True)
        self.b_head = Tensor(np.zeros(config.n_class, dtype=dtype), requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = _tensor_fields("tokenizer", self.tokenizer)
        for i, blk in enumerate(self.stack.blocks):
            out += _tensor_fields(f"block{i}", blk)
        return out + [("final.gain", self.stack.final_gain),
                      ("final.bias", self.stack.final_bias),
                      ("head.w", self.w_head), ("head.b", self.b_head)]

    def forward(self, x, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        """A batch of two or more rows runs as two row shards, ``[0, ceil(B/2))`` and the
        rest, through ``_run_pair``, when the config's half batch reaches ``_HALF_MIN``
        activations, in training and in eval alike. Each shard records its own graph where
        grad mode is on, and draws its dropout from its own generator, spawned from ``rng``.
        ``shards`` keeps each shard's logits (``_joined``); a whole batch is its own one
        shard. On a 2-core host the first call sets OpenBLAS to one thread for good."""
        x = self._input(x)
        if not np.all(np.isfinite(x.data)):
            raise DataError("non-finite values in model input")
        if _CORES == 2:
            _one_blas_thread()
        rows, half = x.data, (len(x.data) + 1) // 2
        cfg = self.config
        if len(rows) < 2 or cfg.batch_size // 2 * cfg.ns * cfg.dim < self._HALF_MIN:
            return self._forward(x, training, rng)
        first, second = rng.spawn(2) if rng is not None else (None, None)
        return _joined(*_run_pair(lambda: self._forward(Tensor(rows[:half]), training, first),
                                  lambda: self._forward(Tensor(rows[half:]), training, second)))

    def _input(self, x) -> Tensor:
        x = T.as_tensor(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.config.L:
            raise ConfigError(f"input shape {x.shape} does not match (B, {self.config.L})")
        return x

    def _forward(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> ForwardResult:
        tokens = tokenize(x, self.tokenizer, training=training,
                          p_drop=self.config.p_drop, rng=rng)
        feature, class_tokens = stack_forward(tokens, self.stack, training=training,
                                              p_drop=self.config.p_drop, rng=rng)
        logits = T.add(T.matmul(feature, self.w_head), self.b_head)
        return ForwardResult(logits, class_tokens, (logits,))

    def eval_batches(self, x, batch_size: int):
        """``(rows, result)`` for each ``batch_size`` rows of ``x``, ``rows`` the slice that one
        eval ``forward`` ran as ``result``; no rows make one empty batch. Only the forwards run
        under ``no_grad``, so the caller's code between batches keeps the caller's grad mode."""
        if batch_size < 1:
            raise ConfigError(f"evaluation batch_size must be >= 1, got {batch_size}")
        x = self._input(x).data
        for start in range(0, max(len(x), 1), batch_size):
            rows = slice(start, start + batch_size)
            with T.no_grad():
                result = self.forward(x[rows], training=False)
            yield rows, result

    def predict(self, x) -> np.ndarray:
        """Row-wise argmax class index (ties resolve to the lowest index), over the
        ``eval_batches`` of the config's batch size that ``evaluate`` runs too."""
        return np.concatenate([np.argmax(result.logits.data, axis=1)
                               for _, result in self.eval_batches(x, self.config.batch_size)])


_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_core_free() -> bool:
    """The measured setup only: two cores, numpy's bundled OpenBLAS at one thread, the main
    thread calling. Trial threads, the worker and hosts of more cores run shards in turn."""
    return (_CORES == 2 and threading.current_thread() is threading.main_thread()
            and _one_blas_thread())


def _run_pair(first, second) -> tuple:
    """``(first(), second())``. When ``_worker_core_free()``, ``second`` runs on the kept
    ``_worker()`` thread in a copy of the caller's context, so with its grad mode and numpy
    error state; otherwise both run in turn on the calling thread, as on the worker itself,
    which is not the main thread. Either way an exception of either call reaches the caller
    once ``second`` has finished."""
    if not _worker_core_free():
        return first(), second()
    later = _worker().submit(contextvars.copy_context().run, second)
    try:
        return first(), later.result()
    finally:
        wait((later,))


@functools.cache
def _one_blas_thread() -> bool:
    """Sets numpy's bundled OpenBLAS to one thread for the rest of the process, once, and
    says whether it could: False where numpy bundles no OpenBLAS. A call racing the first
    sets the same value again. On a 2-core host every GEMM then runs at one thread, sharded
    or not, so outputs do not depend on ``OPENBLAS_NUM_THREADS``, and two shards' GEMMs do
    not contend for the two cores."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so")
    lib = ctypes.CDLL(libs[0]) if libs else None
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if set_threads is None:
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None   # (int) -> void
    set_threads(1)
    return True


@functools.cache
def _worker() -> ThreadPoolExecutor:
    """The one worker thread that runs every second shard, started once for the process
    after glibc is capped at one malloc arena, so that the worker allocates from the main
    arena: an arena of its own raised both stock workloads' peak RSS."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-8, 1)   # M_ARENA_MAX
    return ThreadPoolExecutor(1)


def _joined(first: ForwardResult, second: ForwardResult) -> ForwardResult:
    """Two row shards' results as the batch's: logits through ``T.concat``, which records a
    node only where the shards' logits have one."""
    return ForwardResult(T.concat([first.logits, second.logits]),
                         [Tensor(np.concatenate([a.data, b.data]))
                          for a, b in zip(first.class_tokens, second.class_tokens)],
                         (first.logits, second.logits))


def _tensor_fields(prefix: str, params) -> list[tuple[str, Tensor]]:
    """(prefix.field, tensor) for each dataclass field holding a Tensor, in
    declared order; non-tensor fields and absent (None) tensors are skipped."""
    values = ((f.name, getattr(params, f.name)) for f in fields(params))
    return [(f"{prefix}.{name}", v) for name, v in values if isinstance(v, Tensor)]


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """-(1/B) sum_i log softmax(logits)[i, label_i], via log-sum-exp."""
    logits = T.as_tensor(logits)
    labels, n_class = np.asarray(labels), logits.shape[-1]
    if labels.ndim != 1:
        raise DataError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_class):
        raise DataError(f"labels outside [0, {n_class}): saw {labels.min()}..{labels.max()}")
    labels = labels.astype(np.int64)
    return T.neg(T.mean(T.gather_rows(T.log_softmax(logits, axis=-1), labels)))


# ---------------------------------------------------------------------------
# checkpointing
#
# Layout (all little-endian): magic "TST1"; the _HEADER, which holds the _INT_FIELDS as
# u32, then the _FLOAT_FIELDS as f64, then pos_encoding as u8 (1=learned-1d, 0=none);
# u32 parameter count; then per parameter u32 ndim, u32 dims..., float32
# data in enumeration order. Round-trips bit-exactly for float32 models.


def save_checkpoint(model: TSTModel, path):
    cfg = model.config   # valid, so every int field fits its u32
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_HEADER.pack(*[getattr(cfg, n) for n in _INT_FIELDS + _FLOAT_FIELDS],
                              1 if cfg.pos_encoding == POS_LEARNED_1D else 0))
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for _, p in params:
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack("<" + "I" * p.ndim, *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path, expected_config: TSTConfig | None = None) -> TSTModel:
    try:
        fh = open(path, "rb")
    except OSError as exc:   # missing, a directory, or not readable
        raise DataError(f"cannot open checkpoint {path}: {exc.strerror}") from None
    with fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a TST checkpoint")
        *values, pos_flag = _HEADER.unpack(_read_exact(fh, _HEADER.size, "config"))
        if pos_flag > 1:   # save_checkpoint writes only 0 or 1
            raise DataError(f"checkpoint position-encoding flag is {pos_flag}, not 0 or 1")
        cfg = TSTConfig(**dict(zip(_INT_FIELDS + _FLOAT_FIELDS, values)),
                        pos_encoding=POS_LEARNED_1D if pos_flag else POS_NONE)
        if expected_config is not None and cfg != expected_config:
            raise ConfigError(f"checkpoint config {cfg} does not match expected {expected_config}")
        # the float32 values alone fill 4 bytes per parameter: check the file
        # holds them before building a model of the size the header declares
        from .analysis import cost_report   # analysis imports this module
        needed = 4 * cost_report(cfg).params_full
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < needed:
            raise DataError(f"truncated checkpoint: its config needs at least {needed} bytes "
                            f"of parameters, {remaining} follow the header")

        model = TSTModel(cfg, seed=0)
        params = model.parameters()
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
        if count != len(params):
            raise ConfigError(f"checkpoint holds {count} tensors, model expects {len(params)}")
        for name, p in params:
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, name))
            if ndim != p.ndim:
                raise DataError(f"checkpoint tensor {name} has rank {ndim}, expected {p.ndim}")
            shape = struct.unpack("<" + "I" * ndim, _read_exact(fh, 4 * ndim, name))
            if shape != p.shape:
                raise ConfigError(f"checkpoint tensor {name} has shape {shape}, expected {p.shape}")
            raw = _read_exact(fh, 4 * p.size, name)
            p.data = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
        if fh.read(1):
            raise DataError("trailing bytes after checkpoint payload")
    return model
