"""Turn a raw 1-d vibration window into a tokens sequence.

The pipeline, sized by the model's ``TSTConfig``, is: cut the window into
``ns`` contiguous subsequences, map each through one shared linear
embedding, prepend a learnable class token, and (optionally) add a
learnable per-position table. The class token lives at slot 0 of every
sequence and is the only input-independent token; the final classifier
reads the feature off that slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import TSTConfig

POS_LEARNED_1D = "1d"
POS_NONE = "none"

# std for the class-token / position-table gaussian init; small enough that
# early attention stays near-uniform
INIT_STD = 0.02


@dataclass
class TokenizerParams:
    """Trainable leaves: shared embedding, class token, optional position table."""

    w_embed: Tensor        # (sub_len, dim), shared by every subsequence
    class_token: Tensor    # (1, dim)
    pos_table: Tensor | None  # (ns + 1, dim) or None

    @classmethod
    def init(cls, config: TSTConfig, rng: np.random.Generator, dtype=np.float32):
        w = Tensor(T.xavier_uniform(rng, config.sub_len, config.dim, dtype), requires_grad=True)
        ct = Tensor(rng.normal(0.0, INIT_STD, size=(1, config.dim)).astype(dtype), requires_grad=True)
        pos = None
        if config.pos_encoding == POS_LEARNED_1D:
            pos = Tensor(
                rng.normal(0.0, INIT_STD, size=(config.ns + 1, config.dim)).astype(dtype),
                requires_grad=True,
            )
        return cls(w_embed=w, class_token=ct, pos_table=pos)


def split(series: Tensor, ns: int) -> Tensor:
    """(B, L) -> (B, ns, L/ns) contiguous non-overlapping chunks, in order."""
    series = T.as_tensor(series)
    b, length = series.shape
    if length % ns != 0:
        raise ConfigError(f"series length {length} is not divisible into {ns} subsequences")
    return T.reshape(series, (b, ns, length // ns))


def embed(subseqs: Tensor, w_embed: Tensor) -> Tensor:
    """Per-subsequence product with the shared embedding matrix (no bias)."""
    return T.matmul(subseqs, w_embed)


def tokenize(
    series: Tensor,
    params: TokenizerParams,
    *,
    training: bool = False,
    p_drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """(B, L) -> (B, ns+1, dim) tokens; slot 0 is the class token.

    The position table (when present) is added to the whole sequence, class
    slot included; dropout is applied once to the summed result in training
    mode.
    """
    series = T.as_tensor(series)
    b, length = series.shape
    sub_len, dim = params.w_embed.shape
    if length % sub_len != 0:
        raise ConfigError(f"series length {length} does not tile with subsequence length {sub_len}")
    ns = length // sub_len

    tokens = embed(split(series, ns), params.w_embed)             # (B, ns, dim)
    cls = T.broadcast_to(T.reshape(params.class_token, (1, 1, dim)), (b, 1, dim))
    seq = T.concat([cls, tokens], axis=1)                         # (B, ns+1, dim)
    if params.pos_table is not None:
        if params.pos_table.shape != (ns + 1, dim):
            raise ConfigError(
                f"position table shape {params.pos_table.shape} does not match (ns+1, dim)=({ns + 1}, {dim})"
            )
        seq = T.add(seq, params.pos_table)
    return T.dropout(seq, p_drop, training, rng)
