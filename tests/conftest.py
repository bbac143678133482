import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from tst import tensor as T
from tst.gradcheck import max_rel_error, numerical_grads
from tst.tensor import Tensor, backward


def op_grad_check(build, arrays, h=1e-4, seed=99):
    """Compare analytic gradients of sum(build(inputs) * R) against central
    finite differences, for a fixed random weighting R. Returns the worst
    relative error over all inputs."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    probe = build([Tensor(a) for a in arrays])
    weights = np.random.default_rng(seed).normal(size=probe.shape)

    def scalar(arrs):
        out = build([Tensor(a) for a in arrs])
        return float(np.sum(out.data * weights))

    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    loss = T.tsum(T.mul(build(inputs), Tensor(weights)))
    analytic = backward(loss, inputs)
    numeric = numerical_grads(scalar, arrays, h=h)
    return max_rel_error(analytic, numeric)


# property tests: derandomized, so every run draws the same examples
FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def call_bounded(fn, limit: int):
    """fn(), asserting the ``tracemalloc`` peak stays below ``limit`` bytes;
    returns its result or the exception it raised, for the caller to check."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except Exception as exc:
            result = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak} bytes, bound {limit}"
    return result


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
