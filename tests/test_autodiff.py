import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.autodiff import ParameterSet, ShapeError, Tensor
from dgssm.optim import grad_check
from dgssm.rng import RngStream

from conftest import conv_same_reference


def check(fn, shape, seed=0, tol=1e-4, positive=False):
    """Gradient-check a scalar-valued tensor function on a random input."""
    stream = RngStream(seed)
    data = stream.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    report = grad_check(fn, Tensor(data), eps=1e-4, tol=tol)
    assert report.passed, str(report)


SEG = np.array([0, 0, 1, 2, 2, 2])


@pytest.mark.parametrize(
    "name,fn,shape,positive",
    [
        ("add_bias", lambda x: ad.sum_(ad.mul(ad.add(x, Tensor(np.arange(4.0))), ad.constant(np.random.default_rng(0).normal(size=(3, 4))))), (3, 4), False),
        ("sub", lambda x: ad.sum_(ad.mul(ad.sub(x, 1.5), ad.sub(x, 0.5))), (3, 4), False),
        ("div", lambda x: ad.sum_(ad.div(1.0, ad.add(ad.mul(x, x), 1.0))), (2, 5), False),
        ("exp", lambda x: ad.sum_(ad.exp(ad.mul(x, 0.3))), (4, 2), False),
        ("log", lambda x: ad.sum_(ad.log(x)), (5,), True),
        ("power", lambda x: ad.sum_(ad.power(x, 1.5)), (4,), True),
        ("power_half", lambda x: ad.sum_(ad.power(x, 0.5)), (6,), True),
        ("sigmoid", lambda x: ad.sum_(ad.sigmoid(x)), (3, 3), False),
        ("relu", lambda x: ad.sum_(ad.relu(ad.add(x, 0.05))), (40,), True),
        ("matmul", lambda x: ad.sum_(ad.matmul(x, ad.constant(np.random.default_rng(1).normal(size=(4, 3))))), (2, 4), False),
        ("softmax", lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=1), ad.constant(np.random.default_rng(2).normal(size=(3, 5))))), (3, 5), False),
        ("mean_axis", lambda x: ad.sum_(ad.mul(ad.mean(x, axis=0, keepdims=True), ad.mean(x, axis=1, keepdims=True))), (3, 3), False),
        ("max_axis", lambda x: ad.sum_(ad.max_(x, axis=0)), (4, 3), False),
        ("transpose", lambda x: ad.sum_(ad.mul(ad.transpose(x, (1, 2, 0)), ad.constant(np.random.default_rng(3).normal(size=(3, 4, 2))))), (2, 3, 4), False),
        ("reshape", lambda x: ad.sum_(ad.mul(x.reshape(6, 2), ad.constant(np.random.default_rng(4).normal(size=(6, 2))))), (3, 4), False),
        ("concat", lambda x: ad.sum_(ad.mul(ad.concat([x, ad.mul(x, 2.0)], axis=1), ad.constant(np.random.default_rng(5).normal(size=(3, 8))))), (3, 4), False),
        ("gather", lambda x: ad.sum_(ad.mul(ad.gather_rows(x, np.array([0, 2, 2, 1])), ad.constant(np.random.default_rng(6).normal(size=(4, 3))))), (3, 3), False),
        ("segment_sum", lambda x: ad.sum_(ad.mul(ad.segment_sum(x, SEG, 4), ad.constant(np.random.default_rng(7).normal(size=(4, 2))))), (6, 2), False),
        ("segment_mean", lambda x: ad.sum_(ad.mul(ad.segment_mean(x, SEG, 4), ad.constant(np.random.default_rng(8).normal(size=(4, 2))))), (6, 2), False),
        ("segment_max", lambda x: ad.sum_(ad.mul(ad.segment_max(x, SEG, 4), ad.constant(np.random.default_rng(9).normal(size=(4, 2))))), (6, 2), False),
        ("segment_softmax", lambda x: ad.sum_(ad.mul(ad.segment_softmax(x, SEG, 3), ad.constant(np.random.default_rng(10).normal(size=(6, 2))))), (6, 2), False),
        ("layer_norm", lambda x: ad.sum_(ad.mul(ad.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))), ad.constant(np.random.default_rng(11).normal(size=(4, 5))))), (4, 5), False),
        ("mse", lambda x: ad.mse_loss(x, ad.constant(np.random.default_rng(12).normal(size=(4, 3)))), (4, 3), False),
        ("cross_entropy", lambda x: ad.cross_entropy(x, np.array([0, 2, 1])), (3, 3), False),
        # A transposed leaf gives the op a strided (6, 2, 3) input.
        ("segment_max_strided", lambda x: ad.sum_(ad.mul(ad.segment_max(ad.transpose(x, (2, 1, 0)), SEG, 4), ad.constant(np.random.default_rng(18).normal(size=(4, 2, 3))))), (3, 2, 6), False),
    ],
)
def test_op_gradients_match_finite_differences(name, fn, shape, positive):
    check(fn, shape, positive=positive)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
def test_gradients_on_size_one_edge_dimensions(shape):
    check(lambda x: ad.sum_(ad.mul(ad.sigmoid(x), x)), shape)


@pytest.mark.parametrize("c_out", [1, 2])
@pytest.mark.parametrize(
    "spatial,kernel",
    [((6,), (1,)), ((6,), (3,)), ((4,), (7,)), ((4, 5), (3, 3)), ((3, 2), (1, 7)), ((2, 3), (7, 3))],
    ids=["L6-k1", "L6-k3", "L4-k7", "4x5-k3x3", "3x2-k1x7", "2x3-k7x3"],
)
def test_conv_same_matches_per_tap_reference(spatial, kernel, c_out):
    stream = RngStream(13)
    x = Tensor(stream.normal(size=(3, 2) + spatial))
    w = Tensor(stream.normal(size=(c_out, 2) + kernel))
    b = Tensor(stream.normal(size=(c_out,)))
    out = ad.conv_same(x, w, b)
    want = conv_same_reference(x.data, w.data, b.data)
    assert out.shape == want.shape
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    probe = ad.constant(stream.normal(size=want.shape))
    operands = {"x": x, "w": w, "b": b}
    for name, leaf in operands.items():
        def fn(t, name=name):
            args = {**operands, name: t}
            return ad.sum_(ad.mul(ad.conv_same(args["x"], args["w"], args["b"]), probe))

        report = grad_check(fn, Tensor(leaf.data.copy()), eps=1e-5, tol=1e-6)
        assert report.passed, f"{name}: {report}"


def test_broadcast_mul_3d_patterns():
    check(lambda x: ad.sum_(ad.mul(x, ad.constant(np.random.default_rng(16).normal(size=(4, 2, 1))))), (4, 2, 3))
    check(lambda x: ad.sum_(ad.mul(ad.constant(np.random.default_rng(17).normal(size=(5, 1, 3))), x)), (5, 4, 3))


# -- structural behaviour ---------------------------------------------------------


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="mse"):
        ad.mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="segment"):
        ad.segment_sum(Tensor(np.zeros((3, 2))), np.array([0, 1]), 2)
    with pytest.raises(ShapeError, match="conv_same"):
        ad.conv_same(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError, match="conv_same"):
        ad.conv_same(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(1)))


def test_softmax_single_element_segment_is_one():
    y = ad.segment_softmax(Tensor(np.array([3.7])), np.array([0]), 1)
    assert y.data[0] == 1.0


def test_segment_ops_single_segment_match_whole_axis():
    stream = RngStream(21)
    x = stream.normal(size=(7, 3))
    seg = np.zeros(7, dtype=np.int64)
    assert np.allclose(ad.segment_sum(Tensor(x), seg, 1).data[0], x.sum(axis=0))
    assert np.allclose(ad.segment_mean(Tensor(x), seg, 1).data[0], x.mean(axis=0))
    assert np.allclose(ad.segment_max(Tensor(x), seg, 1).data[0], x.max(axis=0))
    sm = ad.segment_softmax(Tensor(x), seg, 1).data
    want = np.exp(x - x.max(axis=0)) / np.exp(x - x.max(axis=0)).sum(axis=0)
    assert np.allclose(sm, want)


def test_segment_max_ties_and_empty_segments():
    # Unsorted keys; segment 1 is empty; column 0 ties within both segments.
    x = Tensor(np.array([[1.0, 0.0], [2.0, 5.0], [1.0, 3.0], [2.0, 4.0]]), requires_grad=True)
    seg = np.array([2, 0, 2, 0])
    y = ad.segment_max(x, seg, 3)
    assert np.array_equal(y.data, [[2.0, 5.0], [0.0, 0.0], [1.0, 3.0]])
    g = np.arange(1.0, 7.0).reshape(3, 2)
    ad.sum_(ad.mul(y, ad.constant(g))).backward()
    # Each tie goes to the earliest row; the empty segment's gradient goes nowhere.
    assert np.array_equal(x.grad, [[5.0, 0.0], [1.0, 2.0], [0.0, 6.0], [0.0, 0.0]])


@pytest.mark.parametrize("keepdims", [False, True])
def test_max_ties_route_gradient_to_first_maximum(keepdims):
    # Row 0 ties at positions 1 and 3, row 1 at all three of 0, 2 and 3.
    x = Tensor(np.array([[1.0, 4.0, 2.0, 4.0], [3.0, 1.0, 3.0, 3.0]]), requires_grad=True)
    y = ad.max_(x, axis=1, keepdims=keepdims)
    assert np.array_equal(y.data.reshape(-1), [4.0, 3.0])
    ad.sum_(ad.mul(y, ad.constant(np.array([2.0, 5.0]).reshape(y.shape)))).backward()
    assert np.array_equal(x.grad, [[0.0, 2.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]])


def test_segment_ops_handle_unsorted_keys():
    stream = RngStream(22)
    x = stream.normal(size=(6, 2))
    seg_sorted = np.array([0, 0, 1, 1, 2, 2])
    shuffle = np.array([3, 0, 5, 2, 1, 4])
    a = ad.segment_sum(Tensor(x), seg_sorted, 3).data
    b = ad.segment_sum(Tensor(x[shuffle]), seg_sorted[shuffle], 3).data
    assert np.allclose(a, b)


def test_backward_requires_scalar():
    with pytest.raises(ShapeError, match="scalar"):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_grad_accumulates_until_zeroed():
    x = Tensor(np.ones(3), requires_grad=True)
    for _ in range(2):
        ad.sum_(ad.mul(x, 2.0)).backward()
    assert np.allclose(x.grad, 4.0)
    x.zero_grad()
    ad.sum_(x).backward()
    assert np.allclose(x.grad, 1.0)


def test_tensor_used_twice_in_one_op():
    x = Tensor(np.array([3.0]), requires_grad=True)
    ad.sum_(ad.mul(x, x)).backward()
    assert np.allclose(x.grad, 6.0)


def test_linear_loss_gradient_is_ones():
    w = Tensor(np.arange(5.0), requires_grad=True)
    ad.sum_(w).backward()
    assert np.allclose(w.grad, 1.0)


def test_quadratic_loss_gradient_is_w():
    w = Tensor(np.arange(5.0), requires_grad=True)
    ad.mul(ad.sum_(ad.mul(w, w)), 0.5).backward()
    assert np.allclose(w.grad, w.data)


def test_disconnected_parameters_get_no_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    ad.sum_(used).backward()
    assert unused.grad is None


def test_composite_graph_gradcheck():
    stream = RngStream(23)
    w = ad.constant(stream.normal(size=(3, 4)))
    target = ad.constant(stream.normal(size=(2, 4)))
    seg = np.array([0, 0, 1, 1])

    def fn(x):
        h = ad.sigmoid(ad.matmul(x, w))
        pooled = ad.segment_sum(ad.gather_rows(h, np.array([0, 1, 1, 2])), seg, 2)
        return ad.mse_loss(pooled, target)

    report = grad_check(fn, Tensor(stream.normal(size=(3, 3))), tol=1e-4)
    assert report.passed, str(report)


# -- dropout ----------------------------------------------------------------------


def test_dropout_eval_is_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert ad.dropout(x, 0.4, train=False) is x


def test_dropout_train_matches_expectation():
    stream = RngStream(24)
    x = Tensor(np.ones((100, 100)))
    out = ad.dropout(x, 0.3, train=True, stream=stream)
    n = out.data.size
    # Inverted scaling keeps the expectation at 1; 3 sigma over n samples.
    sigma = np.sqrt(0.3 / 0.7 / n)
    assert abs(out.data.mean() - 1.0) < 3 * sigma
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.0 / 0.7)


def test_dropout_requires_stream_in_train_mode():
    with pytest.raises(ValueError, match="RngStream"):
        ad.dropout(Tensor(np.ones(3)), 0.5, train=True)


def test_dropout_zeroed_entries_get_zero_gradient():
    stream = RngStream(25)
    x = Tensor(np.ones(1000), requires_grad=True)
    out = ad.dropout(x, 0.5, train=True, stream=stream)
    ad.sum_(out).backward()
    dropped = out.data == 0
    assert dropped.any()
    assert np.all(x.grad[dropped] == 0.0)


# -- parameter set ----------------------------------------------------------------


def test_parameter_set_unique_names_and_order():
    p = ParameterSet()
    p.add("b", Tensor(np.zeros(2)))
    p.add("a", Tensor(np.zeros(3)))
    assert p.names() == ["b", "a"]
    assert p.num_values() == 5
    with pytest.raises(ValueError, match="duplicate"):
        p.add("a", Tensor(np.zeros(1)))

