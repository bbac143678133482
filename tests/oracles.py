"""Reference forms the library does not use, kept as test oracles."""

import math

import numpy as np

from tst import tensor as T


def cross_entropy(probs, labels):
    """-(1/B) sum_i log probs[i, label_i], straight from probabilities: the
    textbook form that ``cross_entropy_from_logits`` must agree with."""
    probs = T.as_tensor(probs)
    return T.neg(T.mean(T.log(T.gather_rows(probs, np.asarray(labels)))))


def gelu_tanh(x):
    """The common tanh approximation of gelu (cubic constant 0.044715)."""
    x = np.asarray(x)
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def scaled_dot_product_attention(q, k, v, return_weights=False):
    """softmax(q k^T / sqrt(d_k)) v over the last two axes, composed from
    the recorded primitives: the attention the fused op must agree with."""
    q, k, v = T.as_tensor(q), T.as_tensor(k), T.as_tensor(v)
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = T.matmul(T.mul(q, 1.0 / math.sqrt(q.shape[-1])), T.transpose(k, axes))
    weights = T.softmax(scores, axis=-1)
    out = T.matmul(weights, v)
    return (out, weights.numpy()) if return_weights else out


def self_attention(x, w_q, w_k, w_v, heads, return_weights=False):
    """``tensor.self_attention`` composed from primitives: per-projection
    matmuls, heads split by reshape and transpose, the composed attention
    above, and the heads merged back."""
    x = T.as_tensor(x)
    b, n, _ = x.shape
    width = w_q.shape[-1]

    def split_heads(w):   # (B, heads, n, d_k)
        t = T.reshape(T.matmul(x, w), (b, n, heads, width // heads))
        return T.transpose(t, (0, 2, 1, 3))

    attended = scaled_dot_product_attention(split_heads(w_q), split_heads(w_k),
                                            split_heads(w_v), return_weights)
    ctx, weights = attended if return_weights else (attended, None)
    out = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, width))
    return (out, weights) if return_weights else out
