import numpy as np
import pytest

from tst import tokenizer as tok
from tst.errors import ConfigError
from tst.model import TSTConfig
from tst.tensor import Tensor


def make_params(length, ns, dim, pos="1d", seed=0):
    cfg = TSTConfig(L=length, ns=ns, dim=dim, pos_encoding=pos)
    return cfg, tok.TokenizerParams.init(cfg, np.random.default_rng(seed))


def test_split_hand_case():
    out = tok.split(Tensor([[1.0, 2, 3, 4, 5, 6, 7, 8]]), ns=2)
    np.testing.assert_array_equal(out.data, [[[1, 2, 3, 4], [5, 6, 7, 8]]])


def test_split_default_scale():
    x = Tensor(np.zeros((2, 2048)))
    assert tok.split(x, ns=256).shape == (2, 256, 8)


def test_split_indivisible():
    with pytest.raises(ConfigError, match="2048.*3"):
        tok.split(Tensor(np.zeros((1, 2048))), ns=3)


@pytest.mark.parametrize("length,ns", [(8, 2), (24, 3), (64, 64), (30, 5)])
def test_split_roundtrip(length, ns, rng):
    x = rng.normal(size=(3, length))
    chunks = tok.split(Tensor(x), ns=ns)
    np.testing.assert_array_equal(chunks.data.reshape(3, length), x)


def test_embed_identity_and_zero(rng):
    sub = rng.normal(size=(2, 4, 3))
    out = tok.embed(Tensor(sub), Tensor(np.eye(3)))
    np.testing.assert_allclose(out.data, sub)
    out = tok.embed(Tensor(sub), Tensor(np.zeros((3, 5))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 5)))


def test_embed_linearity(rng):
    w = Tensor(rng.normal(size=(4, 6)))
    x, y = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    lhs = tok.embed(Tensor(2.0 * x + 3.0 * y), w).data
    rhs = 2.0 * tok.embed(Tensor(x), w).data + 3.0 * tok.embed(Tensor(y), w).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)


def test_embed_equals_strided_convolution(rng):
    """One shared linear map over subsequences == multi-channel 1-d
    convolution with kernel width and stride both equal to the
    subsequence length (direct loop oracle)."""
    length, ns, dim = 32, 4, 5
    sub_len = length // ns
    x = rng.normal(size=(2, length))
    w = rng.normal(size=(sub_len, dim))

    out = tok.embed(tok.split(Tensor(x), ns), Tensor(w)).data

    conv = np.zeros((2, ns, dim))
    for b in range(2):
        for j in range(dim):           # output channel = embedding column
            kernel = w[:, j]
            for pos in range(ns):      # stride = kernel width = sub_len
                seg = x[b, pos * sub_len:(pos + 1) * sub_len]
                conv[b, pos, j] = float(np.dot(seg, kernel))
    np.testing.assert_allclose(out, conv, atol=1e-10)


def test_tokenize_shape_table_defaults(rng):
    _, params = make_params(2048, 256, 128)
    out = tok.tokenize(Tensor(rng.normal(size=(128, 2048)).astype(np.float32)), params)
    assert out.shape == (128, 257, 128)


def test_tokenize_without_positions_is_plain_concat(rng):
    _, params = make_params(16, 4, 6, pos="none")
    x = rng.normal(size=(3, 16))
    out = tok.tokenize(Tensor(x), params)
    embedded = tok.embed(tok.split(Tensor(x), 4), params.w_embed).data
    np.testing.assert_array_equal(out.data[:, 1:, :], embedded)
    np.testing.assert_array_equal(out.data[:, 0, :],
                                  np.broadcast_to(params.class_token.data, (3, 6)))


def test_class_token_is_input_independent(rng):
    _, params = make_params(16, 4, 6)
    a = tok.tokenize(Tensor(rng.normal(size=(1, 16))), params)
    b = tok.tokenize(Tensor(rng.normal(size=(1, 16))), params)
    np.testing.assert_array_equal(a.data[:, 0, :], b.data[:, 0, :])


def test_tokenize_dropout_only_in_training(rng):
    _, params = make_params(16, 4, 6)
    x = Tensor(rng.normal(size=(2, 16)))
    eval_out = tok.tokenize(x, params, training=False, p_drop=0.5)
    train_out = tok.tokenize(x, params, training=True, p_drop=0.5,
                             rng=np.random.default_rng(0))
    assert np.any(train_out.data != eval_out.data)
    assert np.any(train_out.data == 0.0)


def test_config_validation():
    rng = np.random.default_rng(0)
    for bad in (dict(L=10, ns=3), dict(L=8, ns=2, pos_encoding="2d"), dict(L=0, ns=1)):
        with pytest.raises(ConfigError):
            tok.TokenizerParams.init(TSTConfig(dim=4, **bad), rng)
