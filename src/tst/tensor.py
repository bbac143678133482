"""Dense tensors with reverse-mode automatic differentiation.

Every other module in the package composes the primitives defined here.
A ``Tensor`` wraps a contiguous row-major numpy array. Operations compute
their result eagerly and, when any input participates in gradients, store
the parent tensors together with a pullback closure that maps the output
adjoint to input adjoints. ``backward()`` on a scalar result builds a
``Tape`` (the reverse-topological schedule of recorded ops) and replays
the pullbacks, accumulating ``grad`` on every ``requires_grad`` leaf.

Values default to float32; pass float64 arrays (or ``dtype=np.float64``)
when finite-difference tolerances demand it. Tensors are treated as
immutable once created; only an optimizer may rewrite a leaf's ``data``
between forward passes.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Inside this context ops compute values but record no graph edges.

    Inference over a large model would otherwise retain every
    intermediate for a backward pass that never comes. Per-thread, so
    concurrent trials stay independent.
    """

    def __enter__(self):
        self._saved = _grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_STATE.enabled = self._saved
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def is_leaf(self) -> bool:
        return self._vjp is None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Detached copy of the values."""
        return self.data.copy()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"

    # operator sugar; everything routes through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands, pinning python scalars to the partner's dtype so a
    float32 graph is not silently promoted to float64."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _result(data, parents, vjp) -> Tensor:
    """Wrap an op result, recording the graph edge only when needed."""
    out = Tensor(data, requires_grad=_grad_enabled()
                 and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to the pre-broadcast shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tape:
    """Reverse-topological schedule of the ops reachable from a root tensor.

    Construction walks the recorded graph once (iterative post-order DFS,
    shared subexpressions visited a single time); ``run_backward`` then
    pushes adjoints through the schedule in reverse, so every node's
    pullback executes exactly once.
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._order = order  # parents before dependents
        self._root = root

    def __len__(self):
        return len(self._order)

    def nodes(self) -> list[Tensor]:
        return list(self._order)

    def run_backward(self, seed: np.ndarray):
        adjoints: dict[int, np.ndarray] = {id(self._root): np.asarray(seed, dtype=self._root.dtype)}
        for node in reversed(self._order):
            g = adjoints.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                # leaf: accumulate (repeated backward calls add up until zero_grad)
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if acc is None else acc + pg


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad leaf that ``loss`` depends on."""
    if loss.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward() on a tensor with no gradient path (no requires_grad inputs)")
    Tape(loss).run_backward(np.ones(loss.shape, dtype=loss.dtype))


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; also covers scaling by a constant."""
    a, b = _pair(a, b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Batched matrix product a[..., m, k] @ b[..., k, n] with broadcasting
    over the leading extents. Adjoints: da = g b^T, db = a^T g."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:  # batch extents not broadcastable
        raise ShapeError(f"matmul batch extents incompatible: {a.shape} @ {b.shape}") from exc

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _result(data, (a, b), vjp)


def softmax(x, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; each slice sums to one."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    s = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(s, out=s)   # one large temporary, reused; attention maps are big
    s /= np.sum(s, axis=axis, keepdims=True)

    def vjp(g):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _result(s, (x,), vjp)


def log_softmax(x, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed via the log-sum-exp shift."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    ls = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(ls) * np.sum(g, axis=axis, keepdims=True),)

    return _result(ls, (x,), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    elementwise affine ``gain * xhat + bias``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last extent {dim}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            gh = g * gain.data
            gx = (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) * inv
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            ggain = (g * xhat).sum(axis=lead)
        if bias.requires_grad:
            gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp)


def gelu(x) -> Tensor:
    """Gaussian error linear unit x * Phi(x), exact erf form."""
    x = as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi + x.data * pdf),)

    return _result(out, (x,), vjp)


def dropout(x, p_drop: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero each element with probability ``p_drop`` and
    scale survivors by 1/(1-p) so expectations are preserved; identity in
    eval mode or at p=0."""
    if not 0.0 <= p_drop < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p_drop}")
    x = as_tensor(x)
    if not training or p_drop == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    keep = (rng.random(x.shape) >= p_drop).astype(x.dtype)
    scale = 1.0 / (1.0 - p_drop)
    mask = keep * scale
    return _result(x.data * mask, (x,), lambda g: (g * mask,))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for t, p in zip(tensors, parts))

    return _result(data, tuple(tensors), vjp)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    return _result(data, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    inverse = tuple(np.argsort(axes))
    return _result(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def tslice(x, key) -> Tensor:
    """Basic (view-style) slicing; the adjoint scatters back into zeros."""
    x = as_tensor(x)
    data = x.data[key]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _result(data, (x,), vjp)


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape)
    return _result(data, (x,), lambda g: (_unbroadcast(g, x.shape),))


def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.mean(axis=axis)
    count = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape) / count,)

    return _result(data, (x,), vjp)


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _result(data, (x,), vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    return _result(np.log(x.data), (x,), lambda g: (g / x.data,))


def gather_rows(x, index) -> Tensor:
    """out[i] = x[i, index[i]] for a 2-d tensor and integer row labels."""
    x = as_tensor(x)
    idx = np.asarray(index)
    if x.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"gather_rows needs (N, C) and (N,), got {x.shape} and {idx.shape}")
    rows = np.arange(x.shape[0])
    data = x.data[rows, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return (gx,)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# parameter initialization helpers


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
