"""Dense tensors with reverse-mode automatic differentiation.

Every other module in the package composes the primitives defined here.
A ``Tensor`` wraps a contiguous row-major numpy array. Operations compute
their result eagerly and, when any input participates in gradients, give
it a graph vertex, a ``_Node``: the parents' nodes and a pullback closure
that maps the output adjoint to input adjoints. ``backward()`` on a scalar
result builds a ``Tape`` (the reverse-topological schedule of recorded
nodes) and replays the pullbacks, accumulating ``grad`` on every
``requires_grad`` leaf.

A node keeps only what its pullback reads. It holds no tensor, except
that a ``requires_grad`` leaf's node holds the leaf that receives
``grad``; each pullback binds the arrays, shapes and flags its formula
uses (a matmul keeps its operands, an add only their shapes, ``gelu`` its
derivative). So an intermediate value no pullback reads is freed as soon
as the forward drops its tensor, not when backward reaches it.
``Tensor._vjp`` reads and replaces the node's pullback; nothing in the
package needs it, but the benchmark's span tracer wraps pullbacks through
it.

A graph can be backpropagated once. Backward releases it as it goes: each
interior node drops its parents and its pullback (and with them every
array the pullback kept) right after use, so a second ``backward``
through the same nodes raises ``ValueError``. Build the loss again to
accumulate a second gradient.

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


class _Node:
    """A vertex of the recorded graph.

    ``_parents`` lines up with the pullback's outputs: one entry per op
    input, ``None`` where no gradient flows. A leaf node has no pullback
    and holds the ``requires_grad`` tensor its adjoint accumulates into.
    """

    __slots__ = ("_parents", "_vjp", "tensor")

    def __init__(self, parents: tuple, vjp, tensor: Tensor | None = None):
        self._parents = parents
        self._vjp = vjp
        self.tensor = tensor

    def is_leaf(self) -> bool:
        return self._vjp is None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

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


def _records(*inputs: Tensor) -> bool:
    """Whether an op over ``inputs`` records a graph node."""
    return _grad_enabled() and any(t.requires_grad for t in inputs)


def _grad_node(t: Tensor) -> _Node | None:
    """The node adjoints reach ``t`` through: its op's node, a leaf node
    made on first use for a ``requires_grad`` leaf, else None. A leaf and
    its node refer to each other; leaves are mostly long-lived parameters."""
    if t._node is None and t.requires_grad:
        t._node = _Node((), None, t)
    return t._node


def _result(data, parents, vjp) -> Tensor:
    """Wrap an op result, recording the graph node only when needed. ``vjp``
    must bind arrays, shapes and flags, never a ``Tensor``: the node keeps
    exactly what the closure holds."""
    if not _records(*parents):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._node = _Node(tuple(_grad_node(p) for p in parents), vjp)
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
    """Reverse-topological schedule of the nodes reachable from a root tensor.

    Construction walks the recorded graph once (iterative post-order DFS,
    shared subexpressions visited a single time); ``run_backward`` then
    pushes adjoints through the schedule in reverse, so every node's
    pullback executes exactly once.
    """

    def __init__(self, root: Tensor):
        self._root = _grad_node(root)
        self._dtype = root.dtype
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._root, False)]
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
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        self._order = order  # parents before dependents

    def __len__(self):
        return len(self._order)

    def nodes(self) -> list[_Node]:
        return list(self._order)

    def run_backward(self, seed: np.ndarray):
        """Push ``seed`` back through the schedule, releasing the graph as it
        goes: each interior node is popped, pulled back once, then cut from
        its parents and its pullback, so every intermediate the forward kept
        is freed as soon as backward no longer needs it."""
        adjoints: dict[int, np.ndarray] = {id(self._root): np.asarray(seed, dtype=self._dtype)}
        order = self._order
        while order:
            node = order.pop()
            g = adjoints.pop(id(node), None)
            if node._vjp is None:
                if g is not None:
                    # leaf: accumulate (repeated backward calls add up until zero_grad)
                    leaf = node.tensor
                    leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
                continue
            parents = node._parents
            pgs = node._vjp(g) if g is not None else ()
            node._parents, node._vjp = (), _released
            for parent, pg in zip(parents, pgs):
                if pg is None or parent is None:
                    continue
                acc = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if acc is None else acc + pg


def _released(g):
    raise ValueError("graph already released by backward()")


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
    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, a_shape) if a_grad else None,
            _unbroadcast(g, b_shape) if b_grad else None,
        )

    return _result(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data
    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, a_shape) if a_grad else None,
            _unbroadcast(-g, b_shape) if b_grad else None,
        )

    return _result(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; also covers scaling by a constant."""
    a, b = _pair(a, b)
    data = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    # each adjoint reads the other operand, so keep an operand only when
    # its partner needs a gradient
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        return (
            _unbroadcast(g * b_data, a_shape) if b_data is not None else None,
            _unbroadcast(g * a_data, b_shape) if a_data is not None else None,
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
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None   # as in mul: each adjoint reads the other
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)
        if a_data is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)
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


def self_attention(x, w_q, w_k, w_v, heads: int, return_weights: bool = False,
                   queries: int | None = None):
    """Multi-head scaled dot-product self-attention as one recorded op.

    ``x`` (B, n, dim) is projected by the three (dim, heads*d_k) matrices,
    each head attends with softmax(q k^T / sqrt(d_k)) v, and the heads'
    contexts come out side by side, (B, m, heads*d_k). Keys and values come
    from all n rows; queries only from the leading m = ``queries`` rows (all
    of them by default), so the output has one row per query. The heads are
    strided views of two projection products (one key/value GEMM over all
    rows, one query GEMM over the leading m), q is scaled in place and the
    max-shifted softmax overwrites the scores, so besides its output the
    node keeps only x, the concatenated weights, the scaled q, k, v and the
    (B, heads, m, n) probabilities; the pullback writes the softmax, matmul and projection
    adjoints out by hand, with a zero query adjoint for the rows past m.
    With ``return_weights`` a copy of the probabilities comes back as well.
    """
    x, w_q, w_k, w_v = (as_tensor(t) for t in (x, w_q, w_k, w_v))
    if x.ndim != 3:
        raise ShapeError(f"self_attention needs a (B, n, dim) input, got {x.shape}")
    b, n, dim = x.shape
    m = n if queries is None else queries
    if not 1 <= m <= n:
        raise ShapeError(f"self_attention queries must be in [1, {n}], got {queries}")
    width = w_q.shape[-1]
    if any(w.shape != (dim, width) for w in (w_q, w_k, w_v)):
        raise ShapeError(f"projections {w_q.shape}/{w_k.shape}/{w_v.shape} do not all map "
                         f"input depth {dim} to one width")
    if heads < 1 or width % heads:
        raise ShapeError(f"projection width {width} does not split into {heads} heads")
    d_k = width // heads
    w = np.concatenate([w_q.data, w_k.data, w_v.data], axis=1)    # (dim, 3*width)
    kv = np.matmul(x.data.reshape(b * n, dim), w[:, width:])
    k, v = kv.reshape(b, n, 2, heads, d_k).transpose(2, 0, 3, 1, 4)   # (B, heads, n, d_k)
    q = np.matmul(x.data[:, :m].reshape(b * m, dim), w[:, :width])
    q = q.reshape(b, m, heads, d_k).transpose(0, 2, 1, 3)
    scale = q.dtype.type(1.0 / math.sqrt(d_k))
    q *= scale                     # scale q rather than the much larger scores
    probs = np.matmul(q, k.swapaxes(-1, -2))
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    out = np.matmul(probs, v).transpose(0, 2, 1, 3).reshape(b, m, width)
    x_data, x_grad = x.data, x.requires_grad

    def vjp(g):
        g_ctx = g.reshape(b, m, heads, d_k).transpose(0, 2, 1, 3)
        d_qkv = np.empty((b, n, 3, heads, d_k), dtype=g.dtype)
        dq, dk, dv = d_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), g_ctx, out=dv)
        d_scores = np.matmul(g_ctx, v.swapaxes(-1, -2))    # d probs, then in place d scores
        # softmax: probs * (d_probs - rowsum(d_probs * probs)), and that row
        # sum equals rowsum(g_ctx * ctx) per head, an (m, d_k) product
        inner = np.sum((g * out).reshape(b, m, heads, d_k), axis=-1)
        d_scores -= inner.transpose(0, 2, 1)[..., None]
        d_scores *= probs
        dq[:, :, m:] = 0.0         # rows past m asked no query
        dq = dq[:, :, :m]
        np.matmul(d_scores, k, out=dq)
        dq *= scale
        np.matmul(d_scores.swapaxes(-1, -2), q, out=dk)
        d_qkv = d_qkv.reshape(b * n, 3 * width)
        gx = np.matmul(d_qkv, w.T).reshape(b, n, dim) if x_grad else None
        gw = np.matmul(x_data.reshape(b * n, dim).T, d_qkv)
        return gx, gw[:, :width], gw[:, width:2 * width], gw[:, 2 * width:]

    result = _result(out, (x, w_q, w_k, w_v), vjp)
    return (result, probs.copy()) if return_weights else result


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
    gain_data = gain.data
    x_grad, gain_grad, bias_grad = x.requires_grad, gain.requires_grad, bias.requires_grad

    def vjp(g):
        gx = ggain = gbias = None
        if x_grad:
            gh = g * gain_data
            gx = (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) * inv
        lead = tuple(range(g.ndim - 1))
        if gain_grad:
            ggain = (g * xhat).sum(axis=lead)
        if bias_grad:
            gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp)


def gelu(x) -> Tensor:
    """Gaussian error linear unit x * Phi(x), exact erf form.

    A recorded node keeps one array, the derivative Phi(x) + x * pdf(x),
    rather than x and Phi(x); without a node no derivative is computed.
    """
    x = as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi
    if not _records(x):
        return Tensor(out)
    # phi + x * pdf(x), in one buffer; each step rounds as the plain
    # expression phi + x * (exp(-0.5 * x * x) * (1/sqrt(2 pi))) does
    deriv = x.data * -0.5
    deriv *= x.data
    np.exp(deriv, out=deriv)
    deriv *= _INV_SQRT2PI
    deriv *= x.data
    deriv += phi
    return _result(out, (x,), lambda g: (g * deriv,))


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
    keep = rng.random(x.shape) >= p_drop   # boolean: a quarter of a float32 mask
    scale = x.dtype.type(1.0 / (1.0 - p_drop))

    def apply(a):
        out = a * keep   # (a * keep) * scale rounds exactly as a * (keep * scale)
        out *= scale
        return out

    return _result(apply(x.data), (x,), lambda g: (apply(g),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    grads = [t.requires_grad for t in tensors]

    def vjp(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if needed else None for needed, p in zip(grads, parts))

    return _result(data, tuple(tensors), vjp)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    x_shape = x.shape
    return _result(data, (x,), lambda g: (g.reshape(x_shape),))


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    inverse = tuple(np.argsort(axes))
    return _result(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def tslice(x, key) -> Tensor:
    """Basic (view-style) slicing; the adjoint scatters back into zeros."""
    x = as_tensor(x)
    data = x.data[key]
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.zeros(x_shape, dtype=x_dtype)
        gx[key] = g
        return (gx,)

    return _result(data, (x,), vjp)


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape)
    x_shape = x.shape
    return _result(data, (x,), lambda g: (_unbroadcast(g, x_shape),))


def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.mean(axis=axis)
    count = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])
    x_shape = x.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x_shape) / count,)

    return _result(data, (x,), vjp)


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis)
    x_shape = x.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x_shape).copy(),)

    return _result(data, (x,), vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    x_data = x.data
    return _result(np.log(x_data), (x,), lambda g: (g / x_data,))


def gather_rows(x, index) -> Tensor:
    """out[i] = x[i, index[i]] for a 2-d tensor and integer row labels."""
    x = as_tensor(x)
    idx = np.asarray(index)
    if x.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"gather_rows needs (N, C) and (N,), got {x.shape} and {idx.shape}")
    rows = np.arange(x.shape[0])
    data = x.data[rows, idx]
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.zeros(x_shape, dtype=x_dtype)
        gx[rows, idx] = g
        return (gx,)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# parameter initialization helpers


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
