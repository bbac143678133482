"""Dense tensors with reverse-mode automatic differentiation.

Every other module in the package composes the primitives defined here.
A ``Tensor`` wraps a contiguous row-major numpy array. Operations compute
their result eagerly and, when any input participates in gradients, give
it a graph vertex, a ``_Node``: the parents' nodes and a pullback closure
that maps the output adjoint to input adjoints. A ``requires_grad`` leaf
gets its node, one with neither parents nor pullback, when it is built.
``backward(loss, wrt)`` builds a ``Tape`` (the reverse-topological schedule
of recorded nodes), replays the pullbacks and returns the gradient of each
tensor in ``wrt``; it writes no tensor.

A node keeps only what its pullback reads. It holds no tensor: each
pullback binds the arrays, shapes and flags its formula uses (a matmul
keeps its operands, an add only their shapes, ``gelu`` its derivative).
The fused block halves, ``self_attention`` and ``feed_forward``, keep their
norm's xhat and row statistic, not its output, and recompute the attention's
q, k, v and probabilities and the MLP activations. ``Tensor._vjp`` reads and replaces
the node's pullback: ``backward()`` tells a leaf from an op result by it,
and the benchmark's span tracer wraps pullbacks through it.

A graph can be backpropagated once. Backward releases it as it goes: each
interior node drops its parents and its pullback (and with them every
array the pullback kept) right after use, so a second ``backward``
through the same nodes raises ``ValueError``. Build the loss again for a
second gradient.

Values default to float32; pass float64 arrays (or ``dtype=np.float64``)
when finite-difference tolerances demand it. The package needs numpy only:
``gelu`` takes erf from a rational kernel in float32 and from ``math.erf``,
exactly, in float64. Tensors are treated as immutable once created; only an
optimizer may rewrite a leaf's ``data`` between forward passes.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

from .errors import ConfigError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) from Eigen's fast float erf,
# erf(z) ~ z P(z^2) / Q(z^2) on z clamped to [-4, 4] (erf(4) rounds to 1 in
# float32), with z = x / sqrt 2 and the outer 0.5 folded into the
# coefficients: Phi(x) = 0.5 + x P'(x^2) / Q'(x^2) on x clamped to 4 sqrt 2.
# Eigen's numerator coefficients, of z^1, z^3, ..., z^13:
_ERF_P = (-1.60960333262415e-2, -2.95459980854025e-3, -7.34990630326855e-4,
          -5.69250639462346e-5, -2.10102402082508e-6, 2.77068142495902e-8,
          -2.72614225801306e-10)
# and denominator coefficients, of z^0, z^2, ..., z^8
_ERF_Q = (-1.42647390514189e-2, -7.37332916720468e-3, -1.68282697438203e-3,
          -2.13374055278905e-4, -1.45660718464996e-5)
# P' and Q' in x^2, highest power first, for Horner's rule
_PHI_P = np.array([a * 0.5 ** (k + 1.5) for k, a in enumerate(_ERF_P)][::-1], dtype=np.float32)
_PHI_Q = np.array([b * 0.5 ** k for k, b in enumerate(_ERF_Q)][::-1], dtype=np.float32)
_PHI_CLAMP = np.float32(4.0 * math.sqrt(2.0))
# MLP-width elements per feed_forward row block (at least one batch row): the gelu kernel's
# three 256 KiB scratch buffers per block stay in cache, ~3x faster than whole-array passes
_GELU_CHUNK = 2**16
# score, key and value elements per attention row block: at most a 1 MiB float32 tile, half
# a 2 MiB per-core L2, so the softmax passes run in cache and the pullback's probability and
# score-adjoint tiles fit L2 together. A row is the smallest block, so one row whose scores
# alone exceed it (the stock shape: 6 * 257 * 257) runs as a block of its own
_ATTN_BLOCK = 2**18
_erf = np.frompyfunc(math.erf, 1, 1)

_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


def _grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


class no_grad:
    """Inside this context ops compute values but record no graph edges.

    Inference over a large model would otherwise retain every
    intermediate for a backward pass that never comes. Per context, and
    each thread starts with grad on, so concurrent trials stay independent.
    """

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


class _Node:
    """A vertex of the recorded graph.

    ``_parents`` lines up with the pullback's outputs: one entry per op
    input, ``None`` where no gradient flows. A leaf node, built with its
    ``requires_grad`` tensor, has no parents and no pullback; backward
    returns the adjoint that reaches it.
    """

    __slots__ = ("_parents", "_vjp")

    def __init__(self, parents: tuple, vjp):
        self._parents = parents
        self._vjp = vjp

    def is_leaf(self) -> bool:
        return self._vjp is None


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self._node: _Node | None = _Node((), None) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        """A leaf built with ``requires_grad``, or an op result with a node."""
        return self._node is not None

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"

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


def _result(data, parents, vjp) -> Tensor:
    """Wrap an op result, recording the graph node only when needed. An input without a
    node becomes a ``None`` parent, whose adjoint backward drops. ``vjp`` must bind arrays,
    shapes and flags, never a ``Tensor``: the node keeps exactly what the closure holds."""
    out = Tensor(data)
    if _records(*parents):
        out._node = _Node(tuple(p._node for p in parents), vjp)
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
        self._root = root._node
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

    def nodes(self) -> list[_Node]:
        return list(self._order)

    def run_backward(self, seed: np.ndarray) -> dict[_Node, np.ndarray]:
        """Push ``seed`` back through the schedule and return the adjoint of
        every leaf node it reaches, keyed by the node. The graph is released
        as backward goes: each interior node is popped, pulled back once,
        then cut from its parents and its pullback, so every intermediate the
        forward kept is freed as soon as backward no longer needs it."""
        adjoints: dict[_Node, np.ndarray] = {self._root: np.asarray(seed, dtype=self._dtype)}
        order = self._order
        while order:
            node = order.pop()
            if node._vjp is None:
                continue   # a leaf: its adjoint is complete and stays in ``adjoints``
            g = adjoints.pop(node, None)
            parents = node._parents
            pgs = node._vjp(g) if g is not None else ()
            node._parents, node._vjp = (), _released
            for parent, pg in zip(parents, pgs):
                if pg is None or parent is None:
                    continue
                acc = adjoints.get(parent)
                adjoints[parent] = pg if acc is None else acc + pg
        return adjoints


def _released(g):
    raise ValueError("graph already released by backward()")


def backward(loss: Tensor, wrt: list[Tensor]) -> list[np.ndarray | None]:
    """The gradient of the scalar ``loss`` with respect to each leaf tensor
    in ``wrt``, in order, or ``None`` where ``loss`` does not depend on it.
    Writes no tensor; two gradients may share one array, so treat them as
    read-only."""
    if loss.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward() on a tensor with no gradient path (no requires_grad inputs)")
    if any(t._vjp is not None for t in wrt):
        raise ValueError("backward() returns gradients of leaf tensors only")
    grads = Tape(loss).run_backward(np.ones(loss.shape, dtype=loss.dtype))
    return [grads.get(t._node) for t in wrt]


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
    return add(a, neg(b))


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
    np.exp(s, out=s)
    s /= np.sum(s, axis=axis, keepdims=True)

    def vjp(g):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _result(s, (x,), vjp)


def _even_slices(total: int, most: int) -> list[slice]:
    """0..total as ceil(total / most) consecutive slices of near-equal length; an empty
    range as one empty slice, so a loop over the slices runs once for an empty batch."""
    count = max(1, -(-total // most))
    edges = [total * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def self_attention(x, ln_gain, ln_bias, w_q, w_k, w_v, w_o, heads: int,
                   queries: int | None = None) -> Tensor:
    """A pre-norm block's attention half, attention(layer_norm(x)) @ w_o, as one op.

    ``x`` (B, n, dim) is normalized as ``layer_norm`` does, projected by the three (dim,
    heads*d_k) matrices; each head attends with softmax(q k^T / sqrt(d_k)) v, and the heads'
    contexts, side by side, map through ``w_o`` (heads*d_k, dim_out). Keys and values come
    from all n rows, queries from the leading m = ``queries`` (default n): (B, m, dim_out).

    The B rows run in near-equal blocks sized by ``_ATTN_BLOCK``, at least one row each,
    through one reused (rows, heads, m, n) score tile that holds all of a block's heads. Each
    row block's norm, projections and ``w_o`` GEMM run in the loop; normed rows, q, k and v
    go into one row block's buffers, xhat and the context into whole-batch arrays when a node
    is recorded, else into row-block buffers too: an eval forward holds no whole-batch normed
    rows, projections or context.

    A recorded node keeps xhat, each row's 1/sqrt(var + eps), the concatenated weights,
    ``w_o``, the context and each softmax row's max and sum, but no q, k or v. Its pullback
    applies ``w_o``'s adjoints as ``matmul`` does, then per row block rebuilds the norm
    output and the scaled q, k, v through the forward's own ``project`` and each block's
    probabilities by the forward's ops, so every output and gradient is bit for bit the
    composed ops'. Rows past m get no query.
    """
    inputs = tuple(as_tensor(t) for t in (x, ln_gain, ln_bias, w_q, w_k, w_v, w_o))
    x, gain, bias, w_q, w_k, w_v, w_o = (t.data for t in inputs)
    if x.ndim != 3:
        raise ShapeError(f"self_attention needs a (B, n, dim) input, got {x.shape}")
    (b, n, dim), width = x.shape, w_q.shape[-1]
    m = n if queries is None else queries
    if not 1 <= m <= n:
        raise ShapeError(f"self_attention queries must be in [1, {n}], got {queries}")
    shapes = tuple(t.shape for t in (gain, bias, w_q, w_k, w_v)) + (w_o.shape[:1], w_o.ndim)
    if shapes != ((dim,), (dim,)) + ((dim, width),) * 3 + ((width,), 2):
        raise ShapeError(f"self_attention shapes {x.shape}, {shapes[:5]}, {w_o.shape} don't chain")
    if heads < 1 or width % heads:
        raise ShapeError(f"projection width {width} does not split into {heads} heads")
    d_k = width // heads
    w = np.concatenate([w_q, w_k, w_v], axis=1)    # (dim, 3*width)
    # one-query blocks of 2+ rows: BLAS rounds a one-row query GEMM apart from taller ones
    most = max(3 if m == 1 else 1, _ATTN_BLOCK // (heads * m * n + 2 * n * width))
    row_blocks = _even_slices(b, most)
    rows = max(r.stop - r.start for r in row_blocks)
    dtype = np.result_type(x, gain, bias, w, w_o)
    scale = dtype.type(1.0 / math.sqrt(d_k))

    def project(at: slice, h_r: np.ndarray, kv: np.ndarray, q: np.ndarray):
        """The norm output of xhat rows ``at`` into ``h_r``, then q, k and v of those rows,
        each (rows, heads, ., d_k), in the leading rows of the row-block buffers kv and q."""
        kv_r, q_r = kv[:len(h_r)], q[:len(h_r)]
        np.multiply(xhat[at], gain, out=h_r)
        h_r += bias                # layer_norm's xhat * gain + bias
        np.matmul(h_r.reshape(-1, dim), w[:, width:], out=kv_r.reshape(-1, 2 * width))
        np.matmul(h_r[:, :m].reshape(-1, dim), w[:, :width], out=q_r.reshape(-1, width))
        q_r *= scale               # scale q rather than the much larger scores
        return (q_r.transpose(0, 2, 1, 3),) + tuple(kv_r.transpose(2, 0, 3, 1, 4))

    # rows of xhat and context held: all for the pullback, else one row block's, whose norm
    # then runs in place where the dtypes agree; q, k and v are one row block's either way
    records = _records(*inputs)
    held = b if records else rows
    xhat, inv = np.empty((held, n, dim), dtype=x.dtype), np.empty((held, n, 1), dtype=x.dtype)
    normed = xhat if not records and dtype == x.dtype else np.empty((rows, n, dim), dtype)
    kv, q = np.empty((rows, n, 2, heads, d_k), dtype), np.empty((rows, m, heads, d_k), dtype)
    context = np.empty((held, m, heads, d_k), dtype=dtype)
    scores = np.empty((rows, heads, m, n), dtype=dtype)
    row_max, row_sum = np.empty((2, b, heads, m, 1), dtype=dtype)
    out = np.empty((b, m, w_o.shape[1]), dtype=dtype)
    for r in row_blocks:
        at = r if held == b else slice(0, r.stop - r.start)
        inv[at] = _ln_forward(x[r], xhat[at])[1]
        q_r, k_r, v_r = project(at, normed[:r.stop - r.start], kv, q)
        p = np.matmul(q_r, k_r.swapaxes(-1, -2), out=scores[:r.stop - r.start])
        row_max[r] = np.max(p, axis=-1, keepdims=True)
        p -= row_max[r]
        np.exp(p, out=p)
        row_sum[r] = np.sum(p, axis=-1, keepdims=True)
        p /= row_sum[r]
        np.matmul(p, v_r, out=context[at].transpose(0, 2, 1, 3))
        np.matmul(context[at].reshape(-1, m, width), w_o, out=out[r])
    context = context.reshape(held, m, width)   # every row, when recorded

    def vjp(g):
        nonlocal context           # freed once gw_o and the softmax row sums are taken
        g_attn = np.matmul(g, w_o.T)   # w_o's adjoints, as matmul's pullback writes them
        gw_o = _unbroadcast(np.matmul(np.swapaxes(context, -1, -2), g), w_o.shape)
        g_ctx = g_attn.reshape(b, m, heads, d_k).transpose(0, 2, 1, 3)
        # softmax: probs * (d_probs - rowsum(d_probs * probs)), and that row
        # sum equals rowsum(g_ctx * ctx) per head, an (m, d_k) product
        inner = np.sum((g_attn * context).reshape(b, m, heads, d_k),
                       axis=-1).transpose(0, 2, 1)[..., None]
        context = None
        d_qkv = np.empty((b, n, 3, heads, d_k), dtype=g.dtype)
        dq, dk, dv = d_qkv.transpose(2, 0, 3, 1, 4)
        dq[:, :, m:] = 0.0         # rows past m asked no query
        dq = dq[:, :, :m]
        normed = np.empty((b, n, dim), dtype=dtype)   # the norm output, for w's adjoint
        kv, q = np.empty((rows, n, 2, heads, d_k), dtype), np.empty((rows, m, heads, d_k), dtype)
        tiles = np.empty((2, rows, heads, m, n), dtype=g.dtype)   # probabilities, score adjoints
        for r in row_blocks:
            # the forward's q, k, v and probabilities again: the same GEMMs, shift and scale
            q_r, k_r, v_r = project(r, normed[r], kv, q)
            p = np.matmul(q_r, k_r.swapaxes(-1, -2), out=tiles[0, :r.stop - r.start])
            p -= row_max[r]
            np.exp(p, out=p)
            p /= row_sum[r]
            np.matmul(p.swapaxes(-1, -2), g_ctx[r], out=dv[r])
            d_scores = np.matmul(g_ctx[r], v_r.swapaxes(-1, -2), out=tiles[1, :r.stop - r.start])
            d_scores -= inner[r]   # d probs, then in place d scores
            d_scores *= p
            np.matmul(d_scores, k_r, out=dq[r])
            np.matmul(d_scores.swapaxes(-1, -2), q_r, out=dk[r])
        dq *= scale
        d_qkv = d_qkv.reshape(b * n, 3 * width)
        normed = normed.reshape(b * n, dim)
        gw = np.matmul(normed.T, d_qkv)
        gh = np.matmul(d_qkv, w.T, out=normed).reshape(b, n, dim)
        g_attn = g_ctx = d_qkv = dq = dk = dv = kv = q = q_r = k_r = v_r = p = d_scores = None
        tiles = None               # no big array but gh held through the norm's pullback
        return _ln_pullback(gh, gain, xhat, inv) + (
            gw[:, :width], gw[:, width:2 * width], gw[:, 2 * width:], gw_o)

    return _result(out, inputs, vjp)


def log_softmax(x, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed via the log-sum-exp shift."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    ls = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(ls) * np.sum(g, axis=axis, keepdims=True),)

    return _result(ls, (x,), vjp)


def _ln_forward(x: np.ndarray, out: np.ndarray | None = None):
    """xhat of x's last axis (into ``out`` if given) and each row's 1/sqrt(var + 1e-5)."""
    xhat = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)   # centered once
    var = (xhat * xhat).mean(axis=-1, keepdims=True)                  # as np.var computes it
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    return xhat, inv


def _ln_pullback(g, gain, xhat, inv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints of ``gain * xhat + bias`` for the input, the gain and the bias."""
    gx = g * gain
    t = gx * xhat
    inner = t.mean(axis=-1, keepdims=True)
    gx -= gx.mean(axis=-1, keepdims=True)   # in place, the same roundings as
    gx -= np.multiply(xhat, inner, out=t)   # (gh - mean(gh) - xhat * mean(gh xhat)) * inv
    gx *= inv
    lead = tuple(range(g.ndim - 1))
    return gx, np.multiply(g, xhat, out=t).sum(axis=lead), g.sum(axis=lead)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    elementwise affine ``gain * xhat + bias``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last extent {dim}"
        )
    xhat, inv = _ln_forward(x.data)
    gain_data = gain.data
    return _result(xhat * gain.data + bias.data, (x, gain, bias),
                   lambda g: _ln_pullback(g, gain_data, xhat, inv))


def _horner(s: np.ndarray, coefs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at ``s``, into ``out``."""
    np.multiply(s, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= s
    out += coefs[-1]
    return out


def _add_x_pdf(x: np.ndarray, phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phi + x * pdf(x) into ``out``; each step rounds as the plain expression
    phi + x * (exp(-0.5 * x * x) * (1/sqrt(2 pi))) does."""
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT2PI
    out *= x
    out += phi
    return out


def _gelu_into(x: np.ndarray, out: np.ndarray, grad: np.ndarray | None = None) -> np.ndarray:
    """x * Phi(x) into ``out``, which may be ``x`` itself, and with ``grad`` also the
    derivative Phi(x) + x * pdf(x). A float32 ``x`` goes through the rational kernel in one
    pass over three scratch buffers of its size; ``feed_forward``'s row blocks bound it."""
    if x.dtype != np.float32:
        phi = 0.5 * (1.0 + np.asarray(_erf(x * _INV_SQRT2), dtype=x.dtype))
        if grad is not None:
            _add_x_pdf(x, phi, grad)
        return np.multiply(x, phi, out=out)
    c, s, phi = np.empty((3,) + x.shape, dtype=np.float32)
    np.clip(x, -_PHI_CLAMP, _PHI_CLAMP, out=c)
    np.multiply(c, c, out=s)
    _horner(s, _PHI_P, phi)
    phi *= c
    phi /= _horner(s, _PHI_Q, c)   # c is read for the last time above
    phi += 0.5
    if grad is not None:
        _add_x_pdf(x, phi, grad)
    return np.multiply(x, phi, out=out)


def gelu(x) -> Tensor:
    """Gaussian error linear unit x * Phi(x) (Hendrycks & Gimpel 2016).

    float32 takes Phi from a clamped rational erf (Eigen's fast float erf),
    within 2e-6 absolute of the exact gelu; every other dtype takes it from
    an exact per-element ``math.erf``. A recorded node keeps one array, the
    derivative Phi(x) + x * pdf(x), rather than x and Phi(x); without a node
    no derivative is computed.
    """
    x = as_tensor(x)
    grad = np.empty_like(x.data) if _records(x) else None
    return _result(_gelu_into(x.data, np.empty_like(x.data), grad), (x,), lambda g: (g * grad,))


def feed_forward(x, ln_gain, ln_bias, w1, b1, w2, b2) -> Tensor:
    """A block's feed-forward half, gelu(layer_norm(x) @ w1 + b1) @ w2 + b2, as one op.

    ``x`` is (B, n, dim). Forward and pullback run near-equal blocks of whole batch rows,
    at most ``_GELU_CHUNK`` elements of MLP width each, through reused buffers. A recorded
    node keeps only the norm's xhat and each row's 1/sqrt(var + eps); its pullback
    recomputes each block's norm output, ``w1`` GEMM and gelu with its derivative. Each
    per-row GEMM, elementwise pass and reduction is the composed ops' own, so the output
    and every adjoint are bit for bit theirs.
    """
    inputs = tuple(as_tensor(t) for t in (x, ln_gain, ln_bias, w1, b1, w2, b2))
    x, gain, bias, w1, b1, w2, b2 = (t.data for t in inputs)
    if x.ndim != 3:
        raise ShapeError(f"feed_forward needs a (B, n, dim) input, got {x.shape}")
    (b, n, dim), width, dim_out = x.shape, w1.shape[-1], w2.shape[-1]
    shapes = (gain.shape, bias.shape, w1.shape, b1.shape, w2.shape, b2.shape)
    if shapes != ((dim,), (dim,), (dim, width), (width,), (width, dim_out), (dim_out,)):
        raise ShapeError(f"feed_forward shapes {x.shape}, {shapes} do not chain")
    row_blocks = _even_slices(b, max(1, _GELU_CHUNK // (n * width)))
    rows = max(r.stop - r.start for r in row_blocks)
    held = b if _records(*inputs) else rows   # xhat rows: all for the pullback, else one block
    xhat, inv = np.empty((held, n, dim), dtype=x.dtype), np.empty((held, n, 1), dtype=x.dtype)
    dtype = np.result_type(x, gain, bias, w1, b1, w2, b2)

    def hidden(at: slice, a: np.ndarray, d: np.ndarray | None = None):
        """h, the norm output of xhat rows ``at``; gelu(h @ w1 + b1) into ``a``, gelu' into ``d``."""
        h = xhat[at] * gain
        h += bias
        np.matmul(h, w1, out=a)
        a += b1
        return h, _gelu_into(a, a, d)

    buffer, out = np.empty((rows, n, width), dtype=dtype), np.empty((b, n, dim_out), dtype=dtype)
    for r in row_blocks:
        at = r if held == b else slice(0, r.stop - r.start)
        inv[at] = _ln_forward(x[r], xhat[at])[1]
        np.matmul(hidden(at, buffer[:r.stop - r.start])[1], w2, out=out[r])
        out[r] += b2

    def vjp(g):
        gu, gh = np.empty((b, n, width), dtype=g.dtype), np.empty((b, n, dim), dtype=g.dtype)
        gw1, gw2 = np.empty((b, dim, width), g.dtype), np.empty((b, width, dim_out), g.dtype)
        activation, derivative = np.empty((2, rows, n, width), dtype=dtype)
        for r in row_blocks:
            d = derivative[:r.stop - r.start]
            h, a = hidden(r, activation[:r.stop - r.start], d)
            np.matmul(np.swapaxes(a, -1, -2), g[r], out=gw2[r])
            np.matmul(g[r], w2.T, out=gu[r])
            gu[r] *= d
            np.matmul(np.swapaxes(h, -1, -2), gu[r], out=gw1[r])
            np.matmul(gu[r], w1.T, out=gh[r])
        return _ln_pullback(gh, gain, xhat, inv) + (
            _unbroadcast(gw1, w1.shape), _unbroadcast(gu, b1.shape),
            _unbroadcast(gw2, w2.shape), _unbroadcast(g, b2.shape))

    return _result(out, inputs, vjp)


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
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _result(data, tuple(tensors), lambda g: np.split(g, splits, axis=axis))


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    x_shape = x.shape
    return _result(data, (x,), lambda g: (g.reshape(x_shape),))


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    inverse = tuple(np.argsort(axes))
    return _result(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def _indexed(x: Tensor, key) -> Tensor:
    """``x.data[key]``; the adjoint scatters back into zeros of x's shape."""
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.zeros(x_shape, dtype=x_dtype)
        gx[key] = g
        return (gx,)

    return _result(x.data[key], (x,), vjp)


def tslice(x, key) -> Tensor:
    """Basic (view-style) slicing."""
    return _indexed(as_tensor(x), key)


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
    return _indexed(x, (np.arange(x.shape[0]), idx))


# ---------------------------------------------------------------------------
# parameter initialization helpers


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
