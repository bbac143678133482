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

import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .tensor import Tensor
from .tokenizer import POS_LEARNED_1D, POS_NONE, TokenizerParams, tokenize
from .transformer import TransformerStack, stack_forward

CHECKPOINT_MAGIC = b"TST1"


@dataclass
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

    def validate(self):
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
        return self

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
        return cls(**d).validate()


# the config fields by type, in declared order: the checkpoint's field layout
_INT_FIELDS = tuple(f.name for f in fields(TSTConfig) if f.type == "int")
_FLOAT_FIELDS = tuple(f.name for f in fields(TSTConfig) if f.type == "float")


class ForwardResult(NamedTuple):
    logits: Tensor         # (B, n_class)
    class_tokens: list     # per-block (B, dim) class tokens, detached


class TSTModel:
    """Holds every trainable leaf and runs the forward pass.

    Parameters are enumerable in a fixed declared order (tokenizer, blocks
    in sequence, final norm, head) so checkpoints and optimizer state stay
    aligned across runs.
    """

    def __init__(self, config: TSTConfig, seed: int = 0, dtype=np.float32):
        config.validate()
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

    def num_parameters(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def zero_grad(self):
        for _, p in self.parameters():
            p.grad = None

    def forward(self, x, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        x = T.as_tensor(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.config.L:
            raise ConfigError(f"input shape {x.shape} does not match (B, {self.config.L})")
        if not np.all(np.isfinite(x.data)):
            raise DataError("non-finite values in model input")
        tokens = tokenize(x, self.tokenizer, training=training,
                          p_drop=self.config.p_drop, rng=rng)
        feature, class_tokens = stack_forward(tokens, self.stack, training=training,
                                              p_drop=self.config.p_drop, rng=rng)
        logits = T.add(T.matmul(feature, self.w_head), self.b_head)
        return ForwardResult(logits=logits, class_tokens=class_tokens)

    def predict(self, x) -> np.ndarray:
        """Row-wise argmax class index (ties resolve to the lowest index)."""
        with T.no_grad():
            return np.argmax(self.forward(x, training=False).logits.data, axis=1)


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
# Layout (all little-endian): magic "TST1"; the _INT_FIELDS as u32, then the
# _FLOAT_FIELDS as f64, then pos_encoding as u8 (1=learned-1d, 0=none);
# u32 parameter count; then per parameter u32 ndim, u32 dims..., float32
# data in enumeration order. Round-trips bit-exactly for float32 models.


def save_checkpoint(model: TSTModel, path):
    cfg = model.config.validate()   # every int field must fit its u32
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<" + "I" * len(_INT_FIELDS),
                             *[getattr(cfg, n) for n in _INT_FIELDS]))
        fh.write(struct.pack("<" + "d" * len(_FLOAT_FIELDS),
                             *[getattr(cfg, n) for n in _FLOAT_FIELDS]))
        fh.write(struct.pack("<B", 1 if cfg.pos_encoding == POS_LEARNED_1D else 0))
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
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a TST checkpoint")
        ints = struct.unpack("<" + "I" * len(_INT_FIELDS),
                             _read_exact(fh, 4 * len(_INT_FIELDS), "config"))
        floats = struct.unpack("<" + "d" * len(_FLOAT_FIELDS),
                               _read_exact(fh, 8 * len(_FLOAT_FIELDS), "config"))
        pos_flag = struct.unpack("<B", _read_exact(fh, 1, "config"))[0]
        if pos_flag > 1:   # save_checkpoint writes only 0 or 1
            raise DataError(f"checkpoint position-encoding flag is {pos_flag}, not 0 or 1")
        cfg = TSTConfig(**dict(zip(_INT_FIELDS, ints)),
                        **dict(zip(_FLOAT_FIELDS, floats)),
                        pos_encoding=POS_LEARNED_1D if pos_flag else POS_NONE).validate()
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
