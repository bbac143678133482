"""Pre-norm transformer stack: multi-head self-attention + MLP blocks.

Each block computes

    y  = x + dropout(MSA(LayerNorm(x)))
    out = y + dropout(W2 gelu(W1 LayerNorm(y) + b1) + b2)

with the normalization inside the residual branch. The stack output is the
LayerNorm of the class-token slot of the last block; the per-block class
tokens are copied out, detached, for embedding-space inspection. Since
nothing reads the last block's other rows, that block runs ``class_only``:
slot 0 is its one query over the keys and values of every row, and the
residual, MLP and dropouts cover that row alone. The stack computes the
same function; only that block's layer norm and key/value projections
still run over all n rows.

Projections carry no bias terms; the MLP does. Attention heads are stored
fused: w_q/w_k/w_v are (dim, heads*d_k) and w_o maps (heads*d_k) back to
dim, so a block's dim and d_k are read off ``w_q.shape``.

The attention itself is one op, ``tensor.self_attention``: the three
projections, the per-head scaled dot products, the softmax and the head
merge run as a single node whose hand-written pullback keeps only the
block input, q, k, v and the attention probabilities, not the scores or
any per-head transpose copy; in the class-only block those probabilities
are (B, heads, 1, n). Only ``w_o`` is a separate matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
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


def multi_head(x: Tensor, params: BlockParams, return_weights: bool = False, *,
               class_only: bool = False):
    """Self-attention: the fused ``T.self_attention`` op, then ``w_o``.

    (B, n, dim) -> (B, n, dim); optionally also returns the (B, heads, n, n)
    attention maps as a detached array. With ``class_only`` only slot 0
    queries, still over keys and values from every row: (B, 1, dim) out,
    (B, heads, 1, n) maps.
    """
    ctx = T.self_attention(x, params.w_q, params.w_k, params.w_v, params.heads, return_weights,
                           queries=1 if class_only else None)
    if return_weights:
        ctx, weights = ctx
        return T.matmul(ctx, params.w_o), weights
    return T.matmul(ctx, params.w_o)


def block_forward(
    x: Tensor,
    params: BlockParams,
    *,
    training: bool = False,
    p_drop: float = 0.0,
    rng: np.random.Generator | None = None,
    class_only: bool = False,
) -> Tensor:
    """One pre-norm residual block; shape (B, n, dim) preserved.

    With ``class_only`` the block computes only the class-token row: slot 0
    attends over every row of its input, and the residual, MLP and both
    dropouts run on that row alone, so the result is (B, 1, dim).
    """
    attn = multi_head(T.layer_norm(x, params.ln1_gain, params.ln1_bias), params,
                      class_only=class_only)
    if class_only:
        x = x[:, :1, :]
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

    Nothing downstream reads any other row of the last block's output, so
    that block runs ``class_only``; the others keep every row.

    Returns (feature (B, dim), per-block class tokens [(B, dim)] * depth).
    The class tokens are detached leaves: no gradient flows through them.
    """
    y = tokens
    class_tokens = []
    last = len(stack.blocks) - 1
    for i, block in enumerate(stack.blocks):
        y = block_forward(y, block, training=training, p_drop=p_drop, rng=rng,
                          class_only=i == last)
        class_tokens.append(Tensor(y.data[:, 0, :]))
    feature = T.layer_norm(y[:, 0, :], stack.final_gain, stack.final_bias)
    return feature, class_tokens
