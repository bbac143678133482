"""Central finite-difference gradient oracle.

Deliberately independent of the autodiff machinery: the only thing it does
is re-evaluate a scalar-valued forward function under elementwise
perturbations. Use float64 inputs; at float32 the h^2 truncation error is
swamped by rounding.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_FLOOR = 1e-6   # max_rel_error's denominator where both values are near zero


def numerical_grads(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    h: float = 1e-4,
) -> list[np.ndarray]:
    """Central differences (f(x+h) - f(x-h)) / 2h for every element of every input."""
    grads = []
    work = [np.array(a, dtype=np.float64) for a in arrays]
    for i, a in enumerate(work):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = f(work)
            flat[j] = keep - h
            down = f(work)
            flat[j] = keep
            gflat[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric) -> float:
    """Worst elementwise |a - n| / max(|a| + |n|, _FLOOR) over paired arrays."""
    if isinstance(analytic, np.ndarray):
        analytic, numeric = [analytic], [numeric]
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(np.abs(a) + np.abs(n), _FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
