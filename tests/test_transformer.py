import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import call_bounded, op_grad_check
from oracles import attention_half, feed_forward, scaled_dot_product_attention
from oracles import stack_forward as all_rows_stack_forward
from tst import model as tstmodel
from tst import tensor as T
from tst import tokenizer as tok
from tst import transformer as tf
from tst.errors import ShapeError
from tst.model import TSTConfig, TSTModel, cross_entropy_from_logits
from tst.tensor import Tape, Tensor, backward
from tst.gradcheck import numerical_grads, max_rel_error


def make_block(dim=6, dim_mlp=12, heads=2, d_k=3, seed=0, dtype=np.float64):
    return tf.BlockParams.init(dim, dim_mlp, heads, d_k,
                               np.random.default_rng(seed), dtype)


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_attention_single_token_returns_value(rng):
    q = Tensor(rng.normal(size=(2, 1, 4)))
    k = Tensor(rng.normal(size=(2, 1, 4)))
    v = Tensor(rng.normal(size=(2, 1, 5)))
    out = scaled_dot_product_attention(q, k, v)
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)


def test_attention_uniform_when_scores_vanish(rng):
    k = Tensor(rng.normal(size=(1, 4, 3)))
    v = Tensor(rng.normal(size=(1, 4, 3)))
    q = Tensor(np.zeros((1, 4, 3)))  # orthogonal to every key
    out = scaled_dot_product_attention(q, k, v)
    expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), out.shape)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_attention_matches_per_row_oracle(rng):
    q = rng.normal(size=(1, 4, 3))
    k = rng.normal(size=(1, 4, 3))
    v = rng.normal(size=(1, 4, 5))
    out, weights = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v),
                                                return_weights=True)
    for i in range(4):  # naive evaluation, one query row at a time
        scores = np.array([np.dot(q[0, i], k[0, j]) for j in range(4)]) / np.sqrt(3)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        np.testing.assert_allclose(weights[0, i], w, atol=1e-12)
        np.testing.assert_allclose(out.data[0, i], w @ v[0], atol=1e-12)


def test_multi_head_degenerate_fusion_reduces_to_attention(rng):
    dim = 4
    params = make_block(dim=dim, heads=1, d_k=dim)
    eye = Tensor(np.eye(dim))
    params.w_q = params.w_k = params.w_v = params.w_o = eye
    x = rng.normal(size=(2, 5, dim))
    out = tf.multi_head(Tensor(x), params)   # attends over the block input's ln1
    normed = T.layer_norm(Tensor(x), params.ln1_gain, params.ln1_bias)
    direct = scaled_dot_product_attention(normed, normed, normed)
    np.testing.assert_allclose(out.data, direct.data, atol=1e-12)


def test_multi_head_zero_output_projection(rng):
    params = make_block()
    params.w_o = Tensor(np.zeros(params.w_o.shape))
    out = tf.multi_head(Tensor(rng.normal(size=(2, 5, 6))), params)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_multi_head_equals_manual_two_heads(rng):
    dim, d_k, heads = 6, 3, 2
    params = make_block(dim=dim, heads=heads, d_k=d_k, seed=5)
    x = rng.normal(size=(2, 4, dim))
    out = tf.multi_head(Tensor(x), params).data
    x = T.layer_norm(Tensor(x), params.ln1_gain, params.ln1_bias).data

    # over ln1's output, two independent single-head runs, concatenated then projected
    concat = np.zeros((2, 4, heads * d_k))
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        q = x @ params.w_q.data[:, cols]
        k = x @ params.w_k.data[:, cols]
        v = x @ params.w_v.data[:, cols]
        w = softmax_rows(q @ np.swapaxes(k, -1, -2) / np.sqrt(d_k))
        concat[:, :, cols] = w @ v
    np.testing.assert_allclose(out, concat @ params.w_o.data, atol=1e-10)


def _attention_inputs(rng, heads, b=2, n=5, dim=4, d_k=3, dim_out=2):
    """float64 input, ln1 gain and bias, projections and ``w_o``; n, dim, d_k and dim_out
    all differ."""
    width = heads * d_k
    return ([rng.normal(size=(b, n, dim)), rng.normal(size=dim), rng.normal(size=dim)]
            + [rng.normal(size=(dim, width)) for _ in range(3)]
            + [rng.normal(size=(width, dim_out))])


def _blocks_of_two(monkeypatch, heads, n, queries, width, split="rows"):
    """Shrink the attention block to two rows' scores, keys and values, so a batch of five
    rows runs as blocks of 1, 2 and 2 rows (one-query rows, at least two a block: 2 and 3);
    or, with ``split="wide"``, to two heads' scores, below one row's 3 heads, so each row
    runs as a block of its own (one-query rows: 2 and 3), with all its heads in one tile."""
    m = queries or n
    per_row = heads * m * n + 2 * n * width if split == "rows" else m * n
    monkeypatch.setattr(T, "_ATTN_BLOCK", 2 * per_row)


# queries=None: every row queries; "query1": only slot 0 does, as in the last block;
# "blocks": five rows in blocks of 1, 2 and 2; "wide": each row's 3 heads exceed the block
@pytest.mark.parametrize("heads, queries, blocks",
                         [(1, None, False), (2, None, False), (3, None, False), (2, 1, False),
                          (2, None, "rows"), (2, 1, "rows"), (3, None, "wide")],
                         ids=["1", "2", "3", "2-query1", "2-blocks", "2-query1-blocks",
                              "3-wide"])
def test_self_attention_gradients_match_finite_differences(rng, monkeypatch, heads, queries,
                                                           blocks):
    if blocks:
        _blocks_of_two(monkeypatch, heads, n=5, queries=queries, width=3 * heads, split=blocks)
    arrays = _attention_inputs(rng, heads, b=5 if blocks else 2)
    err = op_grad_check(lambda t: T.self_attention(*t, heads, queries=queries), arrays)
    assert err < 1e-4, f"heads={heads}: worst relative error {err:.2e}"


# float64 for heads 1, 2, 4 and a one-query op, then at 3 heads: "rows", five rows in
# attention row blocks of 1, 2 and 2 (2 and 3 for one-query rows); "wide", each row's 3
# heads exceed the block, so each row runs alone; "query1", only slot 0 queries, as in the
# last block; "empty", B = 0. The same at 3 heads in float32.
_ORACLE_CASES = [(3, None, 5, None), (3, None, 5, "rows"), (3, None, 5, "wide"),
                 (3, 1, 5, None), (3, 1, 5, "rows"), (3, None, 0, None)]
_ORACLE_IDS = ["3", "3-rows", "3-wide", "3-query1", "3-query1-rows", "3-empty"]


@pytest.mark.parametrize(
    "heads, queries, b, split, dtype",
    [(1, None, 2, None, np.float64), (2, None, 2, None, np.float64),
     (4, None, 2, None, np.float64), (2, 1, 2, None, np.float64)]
    + [case + (np.float64,) for case in _ORACLE_CASES[1:]]
    + [case + (np.float32,) for case in _ORACLE_CASES],
    ids=["1", "2", "4", "2-query1"] + _ORACLE_IDS[1:] + ["f32-" + i for i in _ORACLE_IDS])
def test_self_attention_matches_composed_oracle(rng, monkeypatch, heads, queries, b, split,
                                                dtype):
    # Against layer_norm, the composed attention and matmul: float64 agrees to 1e-12. In
    # float32 the output is theirs bit for bit where every row queries, as the same GEMMs,
    # shift and scale run; the one-query oracle projects one row at a time, which BLAS
    # rounds apart. The gradients agree to float32 precision only: the fused pullback takes
    # the softmax row sums from the context and each projection adjoint from one GEMM.
    n, d_k, dim_out = 7, 5, 4
    arrays = [a.astype(dtype) for a in _attention_inputs(rng, heads, b, n, 6, d_k, dim_out)]
    weighting = Tensor(rng.normal(size=(b, queries or n, dim_out)).astype(dtype))
    if split:
        _blocks_of_two(monkeypatch, heads, n, queries, heads * d_k, split)
    results = []
    for op in (T.self_attention, attention_half):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*inputs, heads, queries=queries)
        grads = backward(T.tsum(T.mul(out, weighting)), inputs)
        with T.no_grad():
            unrecorded = op(*arrays, heads, queries=queries)
        results.append([out.data, unrecorded.data] + grads)
    fused, composed = results
    assert len(fused) == 9 and np.array_equal(fused[0], fused[1])
    for got, want in zip(fused, composed):
        assert got.dtype == want.dtype and got.shape == want.shape
        if dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            assert np.max(np.abs(got - want), initial=0) <= 5e-5 * np.max(np.abs(want),
                                                                          initial=1)
    if dtype == np.float32 and queries is None:
        assert np.array_equal(fused[0], composed[0]) and np.array_equal(fused[1], composed[1])


def test_self_attention_rejects_mismatched_shapes(rng):
    arrays = _attention_inputs(rng, heads=2)   # dim 4, width 6
    with pytest.raises(ShapeError):
        T.self_attention(*arrays, heads=4)   # width 6 does not split into 4
    with pytest.raises(ShapeError):
        T.self_attention(arrays[0][0], *arrays[1:], heads=2)   # no batch axis
    for queries in (0, 6):   # the input has 5 rows
        with pytest.raises(ShapeError):
            T.self_attention(*arrays, heads=2, queries=queries)
    for i, wrong in [(1, (5,)), (2, (4, 1)), (5, (4, 5)), (6, (5, 2)), (6, (6,))]:
        bad = list(arrays)
        bad[i] = np.zeros(wrong)
        with pytest.raises(ShapeError):
            T.self_attention(*bad, heads=2)


@pytest.mark.parametrize("queries, split", [(None, "rows"), (1, "rows"), (None, "wide"),
                                            (1, "wide")],
                         ids=["all-rows", "query1", "all-rows-wide", "query1-wide"])
@pytest.mark.parametrize("graph", [True, False], ids=["graph", "no-grad"])
def test_self_attention_in_blocks_equals_one_block(rng, monkeypatch, queries, graph, split):
    heads, n = 3, 7
    arrays = [a.astype(np.float32) for a in _attention_inputs(rng, heads, b=5, n=n, dim=6)]
    weighting = Tensor(rng.normal(size=(5, queries or n, 2)).astype(np.float32))

    def attend():
        inputs = [Tensor(a, requires_grad=graph) for a in arrays]
        with T.no_grad() if not graph else contextlib.nullcontext():
            out = T.self_attention(*inputs, heads, queries=queries)
        grads = backward(T.tsum(T.mul(out, weighting)), inputs) if graph else []
        return [out.data] + grads

    whole = attend()                 # one block holds all 5 rows
    _blocks_of_two(monkeypatch, heads, n, queries, 3 * heads, split)
    blocked = attend()               # blocks of 1, 2 and 2 rows, or one row each (one-query: 2, 3)
    assert len(blocked) == 1 + 7 * graph
    for one, many in zip(whole, blocked):
        assert np.array_equal(one, many)


def _f32_attention_inputs(rng, b, n, dim, width, requires_grad=False):
    """float32 attention-half inputs: (b, n, dim) rows, ln1 gain and bias, three (dim, width)
    projections and a (width, dim) ``w_o``."""
    shapes = [(b, n, dim), (dim,), (dim,)] + [(dim, width)] * 3 + [(width, dim)]
    return [Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=requires_grad)
            for shape in shapes]


def test_eval_attention_never_holds_the_full_probabilities(rng):
    b, n, heads, dim = 32, 129, 4, 8
    inputs = _f32_attention_inputs(rng, b, n, dim, dim)
    full_probs = b * heads * n * n * 4            # 8.5 MB of float32
    with T.no_grad():
        out = call_bounded(lambda: T.self_attention(*inputs, heads), full_probs)
    assert out.shape == (b, n, dim)


def test_eval_attention_never_holds_whole_batch_projections(rng):
    b, n, heads, dim, d_k = 256, 33, 4, 32, 24    # projection width 96 = 3 * dim
    assert T._ATTN_BLOCK < b * heads * n * n      # so the rows run as several row blocks
    inputs = _f32_attention_inputs(rng, b, n, dim, heads * d_k)
    projections = 3 * b * n * heads * d_k * 4    # whole-batch q, k and v: 9.7 MB of float32
    with T.no_grad():
        out = call_bounded(lambda: T.self_attention(*inputs, heads), projections)
    assert out.shape == (b, n, dim)


@pytest.mark.parametrize("queries", [None, 1], ids=["all-rows", "query1"])
def test_self_attention_of_an_empty_batch_is_empty(rng, queries):
    arrays = _attention_inputs(rng, heads=2, b=0)
    with T.no_grad():
        assert T.self_attention(*arrays, 2, queries=queries).shape == (0, queries or 5, 2)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = T.self_attention(*inputs, 2, queries=queries)
    assert out.shape == (0, queries or 5, 2)
    grads = backward(T.tsum(out), inputs)
    assert [g.shape for g in grads] == [a.shape for a in arrays]
    assert not any(g.any() for g in grads)


def test_recorded_attention_never_holds_the_full_probabilities(rng):
    b, n, heads, dim = 32, 129, 4, 8
    inputs = _f32_attention_inputs(rng, b, n, dim, dim, requires_grad=True)
    full_probs = b * heads * n * n * 4            # 8.5 MB of float32
    kept = []                                     # the recorded node outlives the forward
    out = call_bounded(lambda: kept.append(T.self_attention(*inputs, heads)), full_probs)
    assert out is None and kept[0].requires_grad
    grads = call_bounded(lambda: backward(T.tsum(kept.pop()), inputs), full_probs)
    assert [g.shape for g in grads] == [t.shape for t in inputs]


def test_attention_pullback_never_rebuilds_whole_batch_projections(rng):
    b, n, heads, dim, d_k = 64, 33, 4, 16, 24     # projection width 96 = 6 * dim
    width, token = heads * d_k, b * n * 4        # bytes of one float a token, float32
    rows = T._ATTN_BLOCK // (heads * n * n + 2 * n * width)
    assert rows < b // 2                          # so the rows run as 3 or more row blocks
    inputs = _f32_attention_inputs(rng, b, n, dim, width, requires_grad=True)
    loss = T.tsum(T.self_attention(*inputs, heads))
    # the pullback's whole-batch arrays (the output adjoint, g_attn, d_qkv, the norm output
    # that then takes its adjoint) beside one row block's q, k and v and its two score tiles
    whole = token * (dim + width + 3 * width + dim)
    row_block = 4 * rows * n * (3 * width + 2 * heads * n)
    bound = whole + row_block + 2**17
    assert bound < whole + 3 * width * token      # whole-batch q, k and v would not fit
    grads = call_bounded(lambda: backward(loss, inputs), bound)
    assert [g.shape for g in grads] == [t.shape for t in inputs]


def test_recorded_attention_keeps_xhat_not_the_norm_output(rng):
    # What a recorded stock-shaped attention half allocates and keeps: xhat and each row's
    # 1/sqrt(var + eps) and the context (dim + 1 + width floats a token), each softmax row's
    # max and sum (2 * heads), and the concatenated projections (3 * dim * width). No q, k
    # or v: the pullback projects them again. Keeping ln1's output as well would add dim
    # floats a token, 0.5 MB here.
    cfg = TSTConfig()
    b, n, width = 4, cfg.ns + 1, cfg.heads * cfg.d_k
    inputs = _f32_attention_inputs(rng, b, n, cfg.dim, width, requires_grad=True)
    kept = 4 * (b * n * (cfg.dim + 1 + width + 2 * cfg.heads) + 3 * cfg.dim * width)
    tracemalloc.start()
    try:
        out = T.self_attention(*inputs, cfg.heads)
        retained = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert retained < kept + 2**14 < kept + b * n * cfg.dim * 4, (retained, kept)
    x = inputs[0].data
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(_kept(out._node._vjp, "xhat"), xhat, rtol=1e-4, atol=1e-5)
    grads = backward(T.tsum(out), inputs)
    assert [g.shape for g in grads] == [t.shape for t in inputs]


@pytest.mark.parametrize("class_only", [False, True], ids=["all-rows", "class-only"])
def test_eval_block_never_holds_a_whole_shard_context_or_normed_input(rng, class_only):
    # A no-grad stock block over 32 rows, whose (32, 257, 128) float32 activation is 4.2 MB
    # and whose whole attention context (width 384) is three of them. Beside its input the
    # block holds at most three activations at once (the residual sum, the MLP output and
    # the block output) and one row block's attention working set: the concatenated
    # projections (3 * dim * width), a row's xhat and normed row, its q, k, v and context,
    # the row's heads * n * n score tile (1.58 MB, more than one _ATTN_BLOCK), and the shard's
    # softmax row max and sum. The MLP's buffers are smaller. That is 17.1 MB. Holding ln1's
    # whole output, the whole context and the w_o product together (5 activations) peaks at
    # 22 MB; a class-only block holding its shard's whole normed rows, k and v at 31 MB.
    cfg = TSTConfig()
    b, n, width = 32, cfg.ns + 1, cfg.heads * cfg.d_k
    block = tf.BlockParams.init(cfg.dim, cfg.dim_mlp, cfg.heads, cfg.d_k,
                                np.random.default_rng(0))
    x = Tensor(rng.normal(size=(b, n, cfg.dim)).astype(np.float32))
    activation = b * n * cfg.dim * 4
    row_block = 4 * (3 * cfg.dim * width + 2 * n * cfg.dim + 4 * n * width + cfg.heads * n * n
                     + 2 * b * cfg.heads * n)
    with T.no_grad():
        out = call_bounded(lambda: tf.block_forward(x, block, class_only=class_only),
                           3 * activation + row_block + 2**16)
    assert out.shape == (b, 1 if class_only else n, cfg.dim)


@pytest.mark.parametrize("split", [None, "rows", "wide"], ids=["whole", "rows", "wide"])
def test_attention_weights_sum_to_one_per_query(rng, monkeypatch, split):
    # every key differs, but every value row is the same vector u: the normed rows' first
    # three columns vary (gain 50) and feed only the keys and queries, their last three are
    # one row c for all tokens (gain 0, bias c) and feed only the values. With the identity
    # for w_o, each query's output is then u times its weights' sum.
    heads, b, n = 3, 5, 7
    x = rng.normal(size=(b, n, 6))
    gain, bias = np.array([50.0] * 3 + [0.0] * 3), np.r_[np.zeros(3), rng.normal(size=3)]
    w_q, w_k, w_v = (rng.normal(size=(6, heads * 2)) for _ in range(3))
    w_q[3:] = w_k[3:] = 0.0
    w_v[:3] = 0.0
    u = bias @ w_v
    if split:
        _blocks_of_two(monkeypatch, heads, n, None, heads * 2, split)
    out = T.self_attention(x, gain, bias, w_q, w_k, w_v, np.eye(heads * 2), heads).data
    np.testing.assert_allclose(out, np.broadcast_to(u, out.shape), rtol=1e-12, atol=1e-12)


def _feed_forward_inputs(rng, b, n=7, dim=6, width=10, dtype=np.float64):
    """x (b, n, dim), the norm's gain and bias, w1, b1, w2 and b2, all in ``dtype``."""
    shapes = [(b, n, dim), (dim,), (dim,), (dim, width), (width,), (width, dim), (dim,)]
    return [rng.normal(size=shape).astype(dtype) for shape in shapes]


# "rows": five rows through feed_forward's row blocks of 1, 2 and 2 (one whole block else);
# "class-only": the last block's (B, 1, dim); "stock": one stock shard row per block
@pytest.mark.parametrize("b, n, dim, width, blocks", [
    (5, 7, 6, 10, False), (5, 7, 6, 10, True), (3, 1, 6, 10, False), (0, 7, 6, 10, False),
    (2, 257, 128, 256, False)], ids=["whole", "rows", "class-only", "empty", "stock"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_feed_forward_matches_composed_oracle(rng, monkeypatch, b, n, dim, width, blocks,
                                              dtype):
    # float32 must give the composed ops' bits; float64's exact erf is held to 1e-12
    arrays = _feed_forward_inputs(rng, b, n, dim, width, dtype)
    weighting = Tensor(rng.normal(size=(b, n, dim)).astype(dtype))
    if blocks:
        monkeypatch.setattr(T, "_GELU_CHUNK", 2 * n * width)
    results = []
    for op in (T.feed_forward, feed_forward):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*inputs)
        grads = backward(T.tsum(T.mul(out, weighting)), inputs)
        with T.no_grad():
            unrecorded = op(*arrays)
        results.append([out.data, unrecorded.data] + grads)
    assert len(results[0]) == 9
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype and fused.shape == composed.shape
        if dtype == np.float32:
            assert np.array_equal(fused, composed)
        else:
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)


def test_feed_forward_rejects_mismatched_shapes(rng):
    arrays = _feed_forward_inputs(rng, b=2)
    with pytest.raises(ShapeError):
        T.feed_forward(arrays[0][0], *arrays[1:])          # no batch axis
    for i, wrong in [(1, (5,)), (3, (6, 9)), (4, (9,)), (5, (9, 6)), (6, (5,))]:
        bad = list(arrays)
        bad[i] = np.zeros(wrong)
        with pytest.raises(ShapeError):
            T.feed_forward(*bad)


def _stock_mlp(rng, b):
    """Recorded float32 feed_forward inputs at a stock block's shape: (b, 257, 128) rows,
    MLP width 256."""
    cfg = TSTConfig()
    arrays = _feed_forward_inputs(rng, b, cfg.ns + 1, cfg.dim, cfg.dim_mlp, np.float32)
    return [Tensor(a, requires_grad=True) for a in arrays], cfg


def test_recorded_feed_forward_keeps_only_the_normalized_input(rng):
    inputs, cfg = _stock_mlp(rng, b=4)
    x = inputs[0]
    kept = x.data.nbytes + x.data.nbytes // cfg.dim   # xhat and one 1/sqrt(var + eps) a row
    mlp_wide = 4 * (cfg.ns + 1) * cfg.dim_mlp * 4     # one MLP-width array: 1.05 MB
    tracemalloc.start()
    try:
        out = T.feed_forward(*inputs)
        retained = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert retained < kept + 2**14 < mlp_wide, (retained, kept)
    grads = backward(T.tsum(out), inputs)
    assert [g.shape for g in grads] == [t.shape for t in inputs]


def test_unrecorded_feed_forward_holds_one_row_block(rng):
    # eight stock rows run as eight row blocks of one row, since one row's MLP activations
    # (257 x 256) already fill _GELU_CHUNK. Beside its output the op holds that row's buffer
    # of MLP width, the gelu kernel's three chunk buffers (_GELU_CHUNK elements each), and
    # the row's xhat and norm output: 1.31 MB, under the 2.1 MB of one whole-batch
    # MLP-width array.
    inputs, cfg = _stock_mlp(rng, b=8)
    tokens = cfg.ns + 1
    output = 8 * tokens * cfg.dim * 4
    bound = output + tokens * cfg.dim_mlp * 4 + 3 * T._GELU_CHUNK * 4 + 2 * tokens * cfg.dim * 4
    with T.no_grad():
        out = call_bounded(lambda: T.feed_forward(*inputs), bound + 2**16)
    assert out.shape == (8, tokens, cfg.dim) and not out.requires_grad


def test_block_identity_when_branches_vanish(rng):
    params = make_block(seed=2)
    params.w_o = Tensor(np.zeros(params.w_o.shape))
    params.w2 = Tensor(np.zeros(params.w2.shape))
    params.b2 = Tensor(np.zeros(params.b2.shape))
    x = rng.normal(size=(2, 5, 6))
    out = tf.block_forward(Tensor(x), params)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_block_preserves_shape(rng):
    params = make_block(seed=4)
    x = Tensor(rng.normal(size=(3, 9, 6)))
    assert tf.block_forward(x, params).shape == x.shape


def test_block_gradients_match_finite_differences(rng):
    params = make_block(seed=6)
    x = rng.normal(size=(2, 4, 6))
    names = ["ln1_gain", "ln1_bias", "w_q", "w_k", "w_v", "w_o",
             "ln2_gain", "ln2_bias", "w1", "b1", "w2", "b2"]

    loss = T.tsum(tf.block_forward(Tensor(x), params))
    grads = backward(loss, [getattr(params, name) for name in names])
    worst = 0.0
    for name, grad in zip(names, grads):
        p = getattr(params, name)

        def f(arrays, p=p):
            saved = p.data
            p.data = arrays[0]
            try:
                return T.tsum(tf.block_forward(Tensor(x), params)).item()
            finally:
                p.data = saved

        num = numerical_grads(f, [p.data])[0]
        worst = max(worst, max_rel_error(grad, num))
    assert worst < 1e-3


def make_stack(depth, dim=6, dim_mlp=12, heads=2, d_k=3, seed=0, dtype=np.float64):
    return tf.TransformerStack.init(depth, dim, dim_mlp, heads, d_k,
                                    np.random.default_rng(seed), dtype)


def test_stack_depth_one_equals_block_plus_final_norm(rng):
    stack = make_stack(depth=1)
    x = rng.normal(size=(2, 5, 6))
    feature, toks = tf.stack_forward(Tensor(x), stack)
    y = tf.block_forward(Tensor(x), stack.blocks[0])
    manual = T.layer_norm(y[:, 0, :], stack.final_gain, stack.final_bias)
    np.testing.assert_allclose(feature.data, manual.data, atol=1e-12)
    assert len(toks) == 1
    np.testing.assert_allclose(toks[0].data, y.data[:, 0, :])


def test_stack_captures_class_token_per_block_at_default_depth(rng):
    stack = make_stack(depth=6)
    feature, toks = tf.stack_forward(Tensor(rng.normal(size=(2, 5, 6))), stack)
    assert len(toks) == 6
    assert feature.shape == (2, 6)
    assert all(t.shape == (2, 6) for t in toks)


def test_feature_shape_contract(rng):
    for depth, ns in [(1, 3), (3, 8)]:
        stack = make_stack(depth=depth)
        feature, _ = tf.stack_forward(Tensor(rng.normal(size=(4, ns + 1, 6))), stack)
        assert feature.shape == (4, 6)


def test_msa_is_permutation_equivariant(rng):
    params = make_block(seed=8)
    x = rng.normal(size=(2, 6, 6))
    perm = np.random.default_rng(0).permutation(6)
    out = tf.multi_head(Tensor(x), params).data
    out_perm = tf.multi_head(Tensor(x[:, perm, :]), params).data
    np.testing.assert_allclose(out_perm, out[:, perm, :], atol=1e-10)


def _feature_after_permutation(pos, rng, permute):
    """Tokenize + stack with subsequence order optionally permuted."""
    cfg = TSTConfig(L=24, ns=6, dim=6, pos_encoding=pos)
    params = tok.TokenizerParams.init(cfg, np.random.default_rng(11), np.float64)
    stack = make_stack(depth=2, seed=12)
    x = rng.normal(size=(3, 24))
    if permute:
        chunks = x.reshape(3, 6, 4)[:, [3, 0, 5, 1, 4, 2], :]
        x = chunks.reshape(3, 24)
    tokens = tok.tokenize(Tensor(x), params)
    feature, _ = tf.stack_forward(tokens, stack)
    return feature.data


def test_class_feature_invariant_to_subsequence_order_without_positions():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 24))
    base = _feature_after_permutation("none", np.random.default_rng(21), permute=False)
    perm = _feature_after_permutation("none", np.random.default_rng(21), permute=True)
    np.testing.assert_allclose(perm, base, atol=1e-5)


def test_class_feature_changes_under_permutation_with_positions():
    base = _feature_after_permutation("1d", np.random.default_rng(21), permute=False)
    perm = _feature_after_permutation("1d", np.random.default_rng(21), permute=True)
    assert np.max(np.abs(perm - base)) > 1e-4


def test_stack_residual_degeneracy(rng):
    stack = make_stack(depth=3, seed=9)
    for blk in stack.blocks:
        blk.w_o = Tensor(np.zeros(blk.w_o.shape))
        blk.w2 = Tensor(np.zeros(blk.w2.shape))
        blk.b2 = Tensor(np.zeros(blk.b2.shape))
    x = rng.normal(size=(2, 5, 6))
    feature, _ = tf.stack_forward(Tensor(x), stack)
    expected = T.layer_norm(Tensor(x[:, 0, :]), stack.final_gain, stack.final_bias)
    np.testing.assert_allclose(feature.data, expected.data, atol=1e-12)


@pytest.mark.parametrize("pos", ["1d", "none"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_class_only_last_block_matches_all_rows_oracle(depth, pos, monkeypatch):
    """float64, no dropout: the stack whose last block computes only the
    class row gives the all-rows stack's feature, logits, per-block class
    tokens and parameter gradients."""
    cfg = TSTConfig(L=24, ns=6, dim=6, dim_mlp=10, d_k=3, heads=2, depth=depth,
                    p_drop=0.0, pos_encoding=pos, n_class=4)
    model = TSTModel(cfg, seed=depth, dtype=np.float64)
    rng = np.random.default_rng(40 + depth)
    model.w_head.data = rng.normal(size=model.w_head.shape)   # the zero head hides the logits
    x, labels = rng.normal(size=(3, 24)), np.array([0, 3, 1])
    runs = []
    for forward in (tf.stack_forward, all_rows_stack_forward):
        features = []

        def capture(*args, forward=forward, **kwargs):
            out = forward(*args, **kwargs)
            features.append(out[0].data)
            return out

        monkeypatch.setattr(tstmodel, "stack_forward", capture)
        result = model.forward(x, training=True, rng=np.random.default_rng(0))
        params = [p for _, p in model.parameters()]
        runs.append([features[0], result.logits.data]
                    + [t.data for t in result.class_tokens]
                    + backward(cross_entropy_from_logits(result.logits, labels), params))
    assert len(runs[0]) == 2 + depth + len(model.parameters())
    for got, want in zip(*runs):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _kept(vjp, name):
    """The array a pullback closure binds under ``name``, or None."""
    free = vjp.__code__.co_freevars
    return vjp.__closure__[free.index(name)].cell_contents if name in free else None


def test_last_block_attention_keeps_one_query_row(rng):
    b, n, heads = 3, 5, 2
    stack = make_stack(depth=2, heads=heads)
    feature, _ = tf.stack_forward(Tensor(rng.normal(size=(b, n, 6))), stack)
    attention = [node._vjp for node in Tape(T.tsum(feature)).nodes()
                 if not node.is_leaf() and _kept(node._vjp, "row_max") is not None]
    for name in ("row_max", "row_sum"):   # each softmax row's statistics, not its probabilities
        assert [_kept(vjp, name).shape for vjp in attention] == [(b, heads, n, 1),
                                                                 (b, heads, 1, 1)]
    for vjp, m in zip(attention, (n, 1)):
        # what the pullback binds, and through it the projection helper it shares with the
        # forward: no q, k or v, which the pullback projects again row block by row block
        cells = [(name, cell.cell_contents) for fn in [vjp] + [
                     c.cell_contents for c in vjp.__closure__ if callable(c.cell_contents)]
                 for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)]
        arrays = {name: a for name, a in cells if isinstance(a, np.ndarray)}
        assert set(arrays) == {"xhat", "inv", "gain", "bias", "w", "w_o", "context",
                               "row_max", "row_sum"}
        assert all(a.size != b * heads * m * n for a in arrays.values())


# each op's inputs, the first the op's x (concat's first part), and the op over them
_PARTIAL_OPS = {
    "attention": (lambda rng: _attention_inputs(rng, 3, b=5, dim=6),
                  lambda t: T.self_attention(*t, 3)),
    "attention-query1": (lambda rng: _attention_inputs(rng, 3, b=5, dim=6),
                         lambda t: T.self_attention(*t, 3, queries=1)),
    "feed_forward": (lambda rng: _feed_forward_inputs(rng, 5), lambda t: T.feed_forward(*t)),
    "layer_norm": (lambda rng: [rng.normal(size=s) for s in [(5, 7, 6), (6,), (6,)]],
                   lambda t: T.layer_norm(*t)),
    "concat": (lambda rng: [rng.normal(size=(k, 3, 4)) for k in (2, 1, 3)],
               lambda t: T.concat(t, axis=0)),
}


@pytest.mark.parametrize("op", sorted(_PARTIAL_OPS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_partial_requires_grad_gives_the_all_inputs_gradients_bit_for_bit(rng, op, dtype):
    # the graph alone decides which inputs get a gradient: marking fewer inputs changes
    # which gradients backward returns, never their bits
    make, build = _PARTIAL_OPS[op]
    arrays = [a.astype(dtype) for a in make(rng)]
    weighting = Tensor(rng.normal(size=build([Tensor(a) for a in arrays]).shape).astype(dtype))

    def grads(marked):
        inputs = [Tensor(a, requires_grad=i in marked) for i, a in enumerate(arrays)]
        return backward(T.tsum(T.mul(build(inputs), weighting)), [inputs[i] for i in marked])

    every = grads(range(len(arrays)))
    assert all(g is not None for g in every)
    for marked in ([0], range(1, len(arrays))):   # only x, or only the weights
        for i, g in zip(marked, grads(marked)):
            assert g.dtype == every[i].dtype and np.array_equal(g, every[i]), (op, i)
