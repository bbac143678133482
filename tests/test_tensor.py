import math
import weakref

import numpy as np
import pytest

from conftest import op_grad_check
from oracles import gelu_tanh
from tst import tensor as T
from tst.errors import ConfigError, ShapeError
from tst.tensor import Tape, Tensor, backward

GRAD_TOL = 1e-4


def test_matmul_identity():
    m = np.arange(9, dtype=np.float64).reshape(3, 3) + 1
    out = T.matmul(Tensor(np.eye(3)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_batch_broadcast(rng):
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(5, 2))
    out = T.matmul(Tensor(a), Tensor(b))
    assert out.shape == (4, 3, 2)
    np.testing.assert_allclose(out.data, a @ b)


def test_softmax_symmetry_and_stability():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)
    with np.errstate(over="raise"):
        big = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-6)


def test_softmax_rows_stochastic(rng):
    for scale in (1.0, 1e3):
        x = rng.normal(size=(6, 9)) * scale
        s = T.softmax(Tensor(x), axis=1).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_layer_norm_constant_row_gives_bias():
    x = Tensor(np.full((2, 4), 5.0))
    gain = Tensor(np.ones(4))
    bias = Tensor(np.array([0.0, 1.0, -2.0, 3.0]))
    out = T.layer_norm(x, gain, bias)
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias.data, (2, 4)))


def test_layer_norm_moments():
    out = T.layer_norm(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert abs(out.data.mean()) < 1e-5
    assert abs(out.data.var() - 1.0) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64, 65, 32), (64, 1, 32), (3, 7)])
def test_layer_norm_is_bit_identical_to_the_np_var_form(dtype, shape):
    rng = np.random.default_rng(5)
    x, gain, bias = (rng.normal(1.0, 3.0, size=s).astype(dtype)
                     for s in (shape, shape[-1:], shape[-1:]))
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    want = (x - x.mean(axis=-1, keepdims=True)) * inv * gain + bias
    got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


def test_gelu_values():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0
    # independent oracle: x * Phi(x) through math.erf
    expected = 2.0 * 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    assert abs(T.gelu(Tensor([2.0], dtype=np.float64)).data[0] - expected) < 1e-12


GELU_GRID = np.linspace(-8.0, 8.0, 160001).astype(np.float32)


def exact_gelu_and_derivative(x):
    """x * Phi(x) and Phi(x) + x * pdf(x) in float64, Phi through math.erf."""
    x = x.astype(np.float64)
    phi = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    return x * phi, phi + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_float32_gelu_kernel_is_within_2e6_of_the_exact_gelu():
    x = Tensor(GELU_GRID, requires_grad=True)
    out = T.gelu(x)
    (deriv,) = backward(T.tsum(out), [x])
    value, slope = exact_gelu_and_derivative(GELU_GRID)
    assert out.dtype == deriv.dtype == np.float32
    assert np.max(np.abs(out.data - value)) < 2e-6
    assert np.max(np.abs(deriv - slope)) < 1e-6


def test_float32_gelu_without_a_node_gives_the_recorded_values():
    recorded = T.gelu(Tensor(GELU_GRID, requires_grad=True)).data
    np.testing.assert_array_equal(T.gelu(Tensor(GELU_GRID)).data, recorded)


def test_gelu_tanh_approximation_close_on_grid():
    grid = np.linspace(-5.0, 5.0, 4001)
    exact = T.gelu(Tensor(grid)).data
    assert np.max(np.abs(gelu_tanh(grid) - exact)) < 2e-3


def test_dropout_identity_paths():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x
    out = T.dropout(x, 0.1, training=False)
    assert out is x  # eval mode is bit-identical


def test_dropout_expectation():
    rng = np.random.default_rng(7)
    out = T.dropout(Tensor(np.ones(100_000)), 0.1, training=True, rng=rng)
    assert abs(out.data.mean() - 1.0) < 0.01
    survivors = out.data[out.data != 0]
    np.testing.assert_allclose(survivors, 1.0 / 0.9)


def test_dropout_validation():
    x = Tensor(np.ones(3))
    with pytest.raises(ConfigError):
        T.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        T.dropout(x, 0.5, training=True, rng=None)


def test_backward_on_leaf():
    x = Tensor(np.array(4.0), requires_grad=True)
    assert backward(x, [x]) == [1.0]


def test_backward_product_rule():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = Tensor(np.array(3.0), requires_grad=True)
    assert backward(T.mul(x, y), [x, y]) == [3.0, 2.0]


def test_backward_shared_subexpression_sums():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    (gx,) = backward(T.tsum(T.mul(x, x)), [x])  # d/dx sum(x*x) = 2x
    np.testing.assert_allclose(gx, 2.0 * x.data)


def test_backward_returns_none_where_the_loss_does_not_depend():
    x = Tensor(np.array(2.0), requires_grad=True)
    unused = Tensor(np.array(5.0), requires_grad=True)
    constant = Tensor(np.array(7.0))
    assert backward(T.mul(x, 3.0), [unused, x, constant]) == [None, 3.0, None]
    # nothing accumulates: a second loss gives its own gradient alone
    assert backward(T.mul(x, 3.0), [x]) == [3.0]


def test_backward_releases_the_graph(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = T.tsum(T.gelu(T.matmul(T.layer_norm(x, np.ones(4), np.zeros(4)), w)))
    interior = [node for node in Tape(loss).nodes() if not node.is_leaf()]
    assert len(interior) == 4
    gx, gw = backward(loss, [x, w])
    assert all(node._parents == () and not node.is_leaf() for node in interior)
    assert gx.shape == x.shape and gw.shape == w.shape


def test_second_backward_through_a_graph_raises(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    hidden = T.mul(x, x)
    (gx,) = backward(T.tsum(hidden), [x])
    with pytest.raises(ValueError, match="released"):
        backward(T.tsum(hidden), [x])   # a new root over the released node
    with pytest.raises(ValueError, match="released"):
        backward(T.tsum(T.mul(hidden, 2.0)), [x])
    np.testing.assert_allclose(gx, 2.0 * x.data)


def test_backward_usage_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.mul(x, 2.0), [x])
    with pytest.raises(ValueError, match="no gradient path"):
        backward(Tensor(np.array(1.0)), [x])
    hidden = T.mul(x, 2.0)
    with pytest.raises(ValueError, match="leaf tensors only"):
        backward(T.tsum(hidden), [hidden])


def test_tape_visits_each_node_once_in_topo_order(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    a = T.mul(x, 2.0)
    b = T.add(a, a)       # diamond: a feeds b twice
    c = T.tsum(T.matmul(b, a))
    tape = Tape(c)
    nodes = tape.nodes()
    assert len(nodes) == len({id(n) for n in nodes}) == 5   # x, a, b, matmul, tsum
    pos = {id(n): i for i, n in enumerate(nodes)}
    for n in nodes:
        for p in n._parents:
            if p is not None:
                assert pos[id(p)] < pos[id(n)]
    assert [n for n in nodes if n.is_leaf()] == [x._node]


@pytest.mark.parametrize("consumer,reads_input", [
    (lambda h, w: T.add(h, w[0]), False),   # add keeps only shapes
    (lambda h, w: T.gelu(h), False),        # gelu keeps its derivative, not its input
    (lambda h, w: T.matmul(h, w), True),    # the w adjoint reads h
], ids=["add", "gelu", "matmul"])
def test_value_is_kept_only_while_a_pullback_reads_it(consumer, reads_input, rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    hidden = T.matmul(x, w)
    value = weakref.ref(hidden.data)
    loss = T.tsum(consumer(hidden, w))
    del hidden
    assert (value() is not None) == reads_input
    gx, gw = backward(loss, [x, w])
    assert value() is None
    assert gx.shape == x.shape and gw.shape == w.shape


def test_finite_outputs_on_finite_inputs(rng):
    x = rng.normal(size=(4, 6)) * 1e3
    for out in (
        T.softmax(Tensor(x), axis=-1),
        T.gelu(Tensor(x)),
        T.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))),
        T.log_softmax(Tensor(x), axis=-1),
    ):
        assert np.all(np.isfinite(out.data))


def test_grad_matmul(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    err = op_grad_check(lambda t: T.matmul(t[0], t[1]), [a, b])
    assert err < GRAD_TOL


def test_grad_matmul_batched(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    err = op_grad_check(lambda t: T.matmul(t[0], t[1]), [a, b])
    assert err < GRAD_TOL


def test_grad_softmax(rng):
    err = op_grad_check(lambda t: T.softmax(t[0], axis=-1), [rng.normal(size=5)])
    assert err < GRAD_TOL


def test_grad_layer_norm(rng):
    arrays = [rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)]
    err = op_grad_check(lambda t: T.layer_norm(t[0], t[1], t[2]), arrays)
    assert err < GRAD_TOL


@pytest.mark.parametrize(
    "name,build,shapes",
    [
        ("add_broadcast", lambda t: T.add(t[0], t[1]), [(3, 4), (4,)]),
        ("sub", lambda t: T.sub(t[0], t[1]), [(3, 4), (3, 4)]),
        ("neg", lambda t: T.neg(t[0]), [(5,)]),
        ("mul_broadcast", lambda t: T.mul(t[0], t[1]), [(2, 3), (3,)]),
        ("gelu", lambda t: T.gelu(t[0]), [(7,)]),
        ("log_softmax", lambda t: T.log_softmax(t[0], axis=-1), [(4, 5)]),
        ("concat", lambda t: T.concat([t[0], t[1]], axis=1), [(2, 3), (2, 2)]),
        ("reshape", lambda t: T.reshape(t[0], (6,)), [(2, 3)]),
        ("transpose", lambda t: T.transpose(t[0], (1, 0, 2)), [(2, 3, 4)]),
        ("slice", lambda t: t[0][:, 1, :], [(2, 3, 4)]),
        ("broadcast_to", lambda t: T.broadcast_to(t[0], (4, 2, 3)), [(2, 3)]),
        ("mean_all", lambda t: T.mean(t[0]), [(3, 4)]),
        ("mean_axis", lambda t: T.mean(t[0], axis=-1), [(3, 4)]),
        ("sum_axis", lambda t: T.tsum(t[0], axis=0), [(3, 4)]),
        ("scale", lambda t: T.mul(t[0], 0.37), [(3, 2)]),
    ],
)
def test_grad_primitives(name, build, shapes, rng):
    arrays = [rng.normal(size=s) for s in shapes]
    assert op_grad_check(build, arrays) < GRAD_TOL


def test_grad_log(rng):
    arrays = [rng.uniform(0.5, 2.0, size=(4,))]
    assert op_grad_check(lambda t: T.log(t[0]), arrays) < GRAD_TOL


def test_grad_gather_rows(rng):
    x = rng.normal(size=(4, 5))
    idx = np.array([0, 2, 4, 1])
    assert op_grad_check(lambda t: T.gather_rows(t[0], idx), [x]) < GRAD_TOL


def test_grad_dropout_mask_is_scaled_passthrough():
    x = Tensor(np.ones((200,), dtype=np.float64), requires_grad=True)
    out = T.dropout(x, 0.25, training=True, rng=np.random.default_rng(3))
    (gx,) = backward(T.tsum(out), [x])
    survivors = out.data != 0
    np.testing.assert_allclose(gx[survivors], 1.0 / 0.75)
    np.testing.assert_allclose(gx[~survivors], 0.0)


def test_float32_graph_stays_float32(rng):
    x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = T.mul(T.add(x, 1.0), 0.5)
    assert out.dtype == np.float32


def test_no_grad_blocks_recording(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, 2.0)
        assert not out.requires_grad and out._node is None
        with pytest.raises(ValueError):
            backward(T.tsum(out), [x])
    # recording resumes outside the context
    (gx,) = backward(T.tsum(T.mul(x, 2.0)), [x])
    np.testing.assert_allclose(gx, 2.0)
