#!/usr/bin/env python3
"""A tour of the tensor core: forward ops, backward pass, gradient checking.

Everything the model does reduces to the handful of primitives shown here.
The finiteness of the gradient-check errors (at float64) is the whole
reason the training loop can be trusted.
"""

import numpy as np

from tst import tensor as T
from tst.gradcheck import max_rel_error, numerical_grads
from tst.tensor import Tensor, backward

rng = np.random.default_rng(0)

print("== building a small expression graph ==")
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

hidden = T.gelu(T.add(T.matmul(x, w), b))
loss = T.mean(T.mul(hidden, hidden))
print(f"x {x.shape} @ w {w.shape} + b -> gelu -> mean(h*h) = {loss.item():.6f}")

gx, gw, gb = backward(loss, [x, w, b])
print(f"dloss/dw row 0: {gw[0]}")
print(f"dloss/db:       {gb}")

print("\n== checking the analytic gradients against central differences ==")


def forward(arrays):
    xx, ww, bb = (Tensor(a) for a in arrays)
    h = T.gelu(T.add(T.matmul(xx, ww), bb))
    return T.mean(T.mul(h, h)).item()


numeric = numerical_grads(forward, [x.data, w.data, b.data], h=1e-4)
for name, analytic, num in zip("xwb", [gx, gw, gb], numeric):
    print(f"max relative error d/d{name}: {max_rel_error(analytic, num):.2e}")

print("\n== shared subexpressions accumulate ==")
z = Tensor(np.array([1.5, -0.5]), requires_grad=True)
(gz,) = backward(T.tsum(T.mul(z, z)), [z])      # z**2 built as z*z
print(f"grad of sum(z*z) at {z.data} -> {gz} (expected {2 * z.data})")

print("\n== softmax stability ==")
s = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
print(f"softmax([1000, 0]) = {s.data}  (no overflow; max-subtraction inside)")

print("\n== dropout is inverted: expectation preserved ==")
big = T.dropout(Tensor(np.ones(100_000)), 0.1, training=True,
                rng=np.random.default_rng(1))
print(f"mean after dropout(p=0.1) on ones: {big.data.mean():.4f}")
