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
