import numpy as np
import pytest

from conftest import op_grad_check
from oracles import scaled_dot_product_attention, self_attention
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
    out = tf.multi_head(Tensor(x), params)
    direct = scaled_dot_product_attention(Tensor(x), Tensor(x), Tensor(x))
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

    # two independent single-head runs, concatenated then projected
    concat = np.zeros((2, 4, heads * d_k))
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        q = x @ params.w_q.data[:, cols]
        k = x @ params.w_k.data[:, cols]
        v = x @ params.w_v.data[:, cols]
        w = softmax_rows(q @ np.swapaxes(k, -1, -2) / np.sqrt(d_k))
        concat[:, :, cols] = w @ v
    np.testing.assert_allclose(out, concat @ params.w_o.data, atol=1e-10)


def _attention_inputs(rng, heads, b=2, n=5, dim=4, d_k=3):
    """float64 input and projections; n, dim and d_k all differ."""
    width = heads * d_k
    return [rng.normal(size=(b, n, dim))] + [rng.normal(size=(dim, width)) for _ in range(3)]


# queries=None: every row queries; "query1": only slot 0 does, as in the last block
@pytest.mark.parametrize("heads, queries", [(1, None), (2, None), (3, None), (2, 1)],
                         ids=["1", "2", "3", "2-query1"])
def test_self_attention_gradients_match_finite_differences(rng, heads, queries):
    arrays = _attention_inputs(rng, heads)
    err = op_grad_check(lambda t: T.self_attention(*t, heads, queries=queries), arrays)
    assert err < 1e-4, f"heads={heads}: worst relative error {err:.2e}"


@pytest.mark.parametrize("heads, queries", [(1, None), (2, None), (4, None), (2, 1)],
                         ids=["1", "2", "4", "2-query1"])
def test_self_attention_matches_composed_oracle(rng, heads, queries):
    arrays = _attention_inputs(rng, heads, n=7, dim=6, d_k=5)
    weighting = Tensor(rng.normal(size=(2, queries or 7, heads * 5)))
    results = []
    for attend in (T.self_attention, self_attention):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out, maps = attend(*inputs, heads, return_weights=True, queries=queries)
        backward(T.tsum(T.mul(out, weighting)))
        results.append([out.data, maps] + [t.grad for t in inputs])
    for fused, composed in zip(*results):
        np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)


def test_self_attention_rejects_mismatched_shapes(rng):
    x, w_q, w_k, w_v = (Tensor(a) for a in _attention_inputs(rng, heads=2))
    with pytest.raises(ShapeError):
        T.self_attention(x, w_q, w_k, Tensor(np.zeros((4, 5))), heads=2)
    with pytest.raises(ShapeError):
        T.self_attention(x, w_q, w_k, w_v, heads=4)   # width 6 does not split into 4
    with pytest.raises(ShapeError):
        T.self_attention(Tensor(np.zeros((5, 4))), w_q, w_k, w_v, heads=2)
    for queries in (0, 6):   # the input has 5 rows
        with pytest.raises(ShapeError):
            T.self_attention(x, w_q, w_k, w_v, heads=2, queries=queries)


def test_attention_weights_row_stochastic(rng):
    params = make_block(seed=3)
    _, weights = tf.multi_head(Tensor(rng.normal(size=(3, 7, 6)) * 50), params,
                               return_weights=True)
    assert weights.shape == (3, 2, 7, 7)
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


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
    backward(loss)
    worst = 0.0
    for name in names:
        p = getattr(params, name)

        def f(arrays, p=p):
            saved = p.data
            p.data = arrays[0]
            try:
                return T.tsum(tf.block_forward(Tensor(x), params)).item()
            finally:
                p.data = saved

        num = numerical_grads(f, [p.data])[0]
        worst = max(worst, max_rel_error(p.grad, num))
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
        model.zero_grad()
        result = model.forward(x, training=True, rng=np.random.default_rng(0))
        backward(cross_entropy_from_logits(result.logits, labels))
        runs.append([features[0], result.logits.data]
                    + [t.data for t in result.class_tokens]
                    + [p.grad for _, p in model.parameters()])
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
    kept = [_kept(node._vjp, "probs") for node in Tape(T.tsum(feature)).nodes()
            if not node.is_leaf()]
    shapes = [p.shape for p in kept if p is not None]
    assert shapes == [(b, heads, n, n), (b, heads, 1, n)]
