"""Pre-norm transformer stack: multi-head self-attention + MLP blocks.

Each block computes

    y  = x + dropout(MSA(LayerNorm(x)))
    out = y + dropout(W2 gelu(W1 LayerNorm(y) + b1) + b2)

with the normalization inside the residual branch. The stack output is the
LayerNorm of the class-token slot of the last block; the per-block class
tokens are copied out, detached, for embedding-space inspection.

Projections carry no bias terms; the MLP does. Attention heads are stored
fused: w_q/w_k/w_v are (dim, heads*d_k) and w_o maps (heads*d_k) back to
dim, so a block's dim and d_k are read off ``w_q.shape``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class BlockParams:
    heads: int
    ln1_gain: Tensor
    ln1_bias: Tensor
    w_q: Tensor   # (dim, heads*d_k)
    w_k: Tensor   # (dim, heads*d_k)
    w_v: Tensor   # (dim, heads*d_k)
    w_o: Tensor   # (heads*d_k, dim)
    ln2_gain: Tensor
    ln2_bias: Tensor
    w1: Tensor    # (dim, dim_mlp)
    b1: Tensor
    w2: Tensor    # (dim_mlp, dim)
    b2: Tensor

    @classmethod
    def init(cls, dim: int, dim_mlp: int, heads: int, d_k: int,
             rng: np.random.Generator, dtype=np.float32):
        def ones(n):
            return Tensor(np.ones(n, dtype=dtype), requires_grad=True)

        def zeros(n):
            return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

        def xavier(fan_in, fan_out):
            return Tensor(T.xavier_uniform(rng, fan_in, fan_out, dtype), requires_grad=True)

        return cls(
            heads=heads,
            ln1_gain=ones(dim), ln1_bias=zeros(dim),
            w_q=xavier(dim, heads * d_k),
            w_k=xavier(dim, heads * d_k),
            w_v=xavier(dim, heads * d_k),
            w_o=xavier(heads * d_k, dim),
            ln2_gain=ones(dim), ln2_bias=zeros(dim),
            w1=xavier(dim, dim_mlp), b1=zeros(dim_mlp),
            w2=xavier(dim_mlp, dim), b2=zeros(dim),
        )


@dataclass
class TransformerStack:
    blocks: list[BlockParams] = field(default_factory=list)
    final_gain: Tensor | None = None
    final_bias: Tensor | None = None

    @classmethod
    def init(cls, depth: int, dim: int, dim_mlp: int, heads: int, d_k: int,
             rng: np.random.Generator, dtype=np.float32):
        blocks = [BlockParams.init(dim, dim_mlp, heads, d_k, rng, dtype) for _ in range(depth)]
        return cls(
            blocks=blocks,
            final_gain=Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
            final_bias=Tensor(np.zeros(dim, dtype=dtype), requires_grad=True),
        )


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, return_weights: bool = False):
    """softmax(q k^T / sqrt(d_k)) v over the last two axes.

    Works for any leading batch extents; every attention-weight row is a
    probability distribution over the key positions.
    """
    q, k, v = T.as_tensor(q), T.as_tensor(k), T.as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key depth disagree: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value token counts disagree: {k.shape} vs {v.shape}")
    d_k = q.shape[-1]
    # scale q instead of the (much larger) score matrix
    scores = T.matmul(T.mul(q, 1.0 / math.sqrt(d_k)), T.transpose(k, _swap_last(k.ndim)))
    weights = T.softmax(scores, axis=-1)
    out = T.matmul(weights, v)
    if return_weights:
        return out, weights.numpy()
    return out


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def multi_head(x: Tensor, params: BlockParams, return_weights: bool = False):
    """Self-attention with fused per-head projections.

    (B, n, dim) -> (B, n, dim); optionally also returns the (B, heads, n, n)
    attention maps as a detached array.
    """
    x = T.as_tensor(x)
    b, n, dim = x.shape
    model_dim, width = params.w_q.shape      # width = heads * d_k
    if dim != model_dim:
        raise ShapeError(f"input depth {dim} does not match attention dim {model_dim}")

    def split_heads(t: Tensor) -> Tensor:
        t = T.reshape(t, (b, n, params.heads, width // params.heads))
        return T.transpose(t, (0, 2, 1, 3))     # (B, heads, n, d_k)

    q = split_heads(T.matmul(x, params.w_q))
    k = split_heads(T.matmul(x, params.w_k))
    v = split_heads(T.matmul(x, params.w_v))

    if return_weights:
        ctx, weights = scaled_dot_product_attention(q, k, v, return_weights=True)
    else:
        ctx = scaled_dot_product_attention(q, k, v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, width))
    out = T.matmul(ctx, params.w_o)
    return (out, weights) if return_weights else out


def block_forward(
    x: Tensor,
    params: BlockParams,
    *,
    training: bool = False,
    p_drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One pre-norm residual block; shape (B, n, dim) preserved."""
    attn = multi_head(T.layer_norm(x, params.ln1_gain, params.ln1_bias), params)
    x = T.add(x, T.dropout(attn, p_drop, training, rng))

    h = T.layer_norm(x, params.ln2_gain, params.ln2_bias)
    h = T.gelu(T.add(T.matmul(h, params.w1), params.b1))
    h = T.add(T.matmul(h, params.w2), params.b2)
    return T.add(x, T.dropout(h, p_drop, training, rng))


def stack_forward(
    tokens: Tensor,
    stack: TransformerStack,
    *,
    training: bool = False,
    p_drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[Tensor]]:
    """Run every block, then LayerNorm the class-token slot.

    Returns (feature (B, dim), per-block class tokens [(B, dim)] * depth).
    The class tokens are detached leaves: no gradient flows through them.
    """
    y = tokens
    class_tokens = []
    for block in stack.blocks:
        y = block_forward(y, block, training=training, p_drop=p_drop, rng=rng)
        class_tokens.append(Tensor(y.data[:, 0, :]))
    feature = T.layer_norm(y[:, 0, :], stack.final_gain, stack.final_bias)
    return feature, class_tokens
