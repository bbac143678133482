"""Reference forms the library does not use, kept as test oracles."""

import math

import numpy as np

from tst import tensor as T
from tst import transformer as tf
from tst.tokenizer import tokenize


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
    return (out, weights.data.copy()) if return_weights else out


def self_attention(x, w_q, w_k, w_v, heads, return_weights=False, queries=None):
    """``tensor.self_attention`` composed from primitives: per-projection
    matmuls (queries from the leading ``queries`` rows, all by default),
    heads split by reshape and transpose, the composed attention above, and
    the heads merged back."""
    x = T.as_tensor(x)
    b, n, _ = x.shape
    m = n if queries is None else queries
    width = w_q.shape[-1]

    def split_heads(rows, w):   # (B, heads, rows, d_k)
        t = T.reshape(T.matmul(rows, w), (b, rows.shape[1], heads, width // heads))
        return T.transpose(t, (0, 2, 1, 3))

    attended = scaled_dot_product_attention(split_heads(x[:, :m, :], w_q), split_heads(x, w_k),
                                            split_heads(x, w_v), return_weights)
    ctx, weights = attended if return_weights else (attended, None)
    out = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, m, width))
    return (out, weights) if return_weights else out


def stack_forward(tokens, stack, *, training=False, p_drop=0.0, rng=None):
    """``transformer.stack_forward`` with every block over every row: the
    function the stack with a class-only last block must still compute."""
    y = tokens
    class_tokens = []
    for block in stack.blocks:
        y = tf.block_forward(y, block, training=training, p_drop=p_drop, rng=rng)
        class_tokens.append(T.Tensor(y.data[:, 0, :]))
    feature = T.layer_norm(y[:, 0, :], stack.final_gain, stack.final_bias)
    return feature, class_tokens


def unsplit_eval(model, x, batch_size):
    """Eval-mode logits and per-block class tokens of ``model`` over ``x``,
    one whole-batch pass per ``batch_size`` rows composed from the model's
    parts: what its forward over two half-batches must reproduce."""
    logits, stages = [], []
    with T.no_grad():
        for start in range(0, len(x), batch_size):
            xb = T.Tensor(x[start:start + batch_size], dtype=model.dtype)
            feature, class_tokens = tf.stack_forward(tokenize(xb, model.tokenizer), model.stack)
            logits.append(T.add(T.matmul(feature, model.w_head), model.b_head).data)
            stages.append([t.data for t in class_tokens])
    return np.concatenate(logits), [np.concatenate(stage) for stage in zip(*stages)]
