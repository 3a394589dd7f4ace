import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.autodiff import ParameterSet, ShapeError, Tensor
from dgssm.graphs import DiGraph
from dgssm.model import ModelConfig, init_weights, model_forward, model_loss
from dgssm.rng import RngStream
from dgssm.train import collate, prepare_graphs

from conftest import (conv_same_reference, exp, grad_check, layer_norm_reference, make_random_digraph, reshape,
                      softmax, sum_, transpose)


def check(fn, shape, seed=0, tol=1e-4, positive=False):
    """Gradient-check a scalar-valued tensor function on a random input."""
    stream = RngStream(seed)
    data = stream.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    report = grad_check(fn, Tensor(data), eps=1e-4, tol=tol)
    assert report.passed, str(report)


SEG = np.array([0, 0, 1, 2, 2, 2])
# cross_axis_fusion's arguments after x on two graphs of 3 and 2 nodes, x
# of width 6 in 2 heads: pagerank, batch_index, num_graphs, the weights and
# heads.
FUSION_ARGS = (
    np.array([0.5, 0.2, 0.3, 0.7, 0.3]), np.array([0, 0, 0, 1, 1]), 2,
    *(Tensor(np.random.default_rng(28 + i).normal(size=shape)) for i, shape in enumerate(
        [(1, 2, 7), (1,), (1, 2, 1), (1,), (1, 2, 3, 3), (1,), (1,), (1,)]
    )),
    2,
)
# hop_attention_scan's arguments after fx on 4 nodes, d_in 3, d 4, state 3,
# 2 heads: wq, wk, wv, a_log, log_dt, b, c, pairs, spd, heads.
SCAN_PAIRS = np.array([[0, 0], [3, 0], [1, 1], [0, 1], [2, 2], [1, 2], [0, 2], [3, 3]])
SCAN_SPD = np.array([0, 1, 0, 1, 0, 1, 2, 0])
SCAN_ARGS = (
    *(Tensor(np.random.default_rng(40 + i).normal(size=shape)) for i, shape in enumerate(
        [(3, 4), (3, 4), (3, 4), (3,), (3,), (3, 4), (4, 3)]
    )),
    SCAN_PAIRS, SCAN_SPD, 2,
)
SCAN_FX = Tensor(np.random.default_rng(47).normal(size=(4, 3)))


def _scan_with_a_log(a_log):
    # dt = 1.5 spreads a_bar over (0, 1), far from the near-1 values of the
    # model's initialization.
    wq, wk, wv, _, _, b, c, *rest = SCAN_ARGS
    return ad.hop_attention_scan(SCAN_FX, wq, wk, wv, a_log, np.full(3, np.log(1.5)), b, c, *rest)


@pytest.mark.parametrize(
    "name,fn,shape,positive",
    [
        ("add_bias", lambda x: sum_(ad.mul(ad.add(x, Tensor(np.arange(4.0))), ad.constant(np.random.default_rng(0).normal(size=(3, 4))))), (3, 4), False),
        ("mse_target", lambda x: ad.mse_loss(ad.constant(np.random.default_rng(13).normal(size=(3, 4))), x), (3, 4), False),
        # A transposed leaf gives the scan a strided (4, 3) fx.
        ("hop_attention_scan_strided", lambda x: sum_(ad.mul(ad.hop_attention_scan(transpose(x, (1, 0)), *SCAN_ARGS), ad.constant(np.random.default_rng(48).normal(size=(4, 4))))), (3, 4), False),
        ("exp", lambda x: sum_(exp(ad.mul(x, 0.3))), (4, 2), False),
        ("hop_attention_scan_a_log", lambda x: sum_(ad.mul(_scan_with_a_log(x), ad.constant(np.random.default_rng(49).normal(size=(4, 4))))), (3,), True),
        ("layer_norm_gain", lambda x: sum_(ad.mul(ad.layer_norm(ad.constant(np.random.default_rng(19).normal(size=(4, 5))), x, Tensor(np.linspace(-1.0, 2.0, 5))), ad.constant(np.random.default_rng(20).normal(size=(4, 5))))), (5,), False),
        ("layer_norm_bias", lambda x: sum_(ad.mul(exp(ad.layer_norm(ad.constant(np.random.default_rng(21).normal(size=(4, 5))), Tensor(np.linspace(0.5, -1.5, 5)), x)), ad.constant(np.random.default_rng(22).normal(size=(4, 5))))), (5,), False),
        ("sigmoid", lambda x: sum_(ad.sigmoid(x)), (3, 3), False),
        ("relu", lambda x: sum_(ad.relu(ad.add(x, 0.05))), (40,), True),
        ("matmul", lambda x: sum_(ad.matmul(x, ad.constant(np.random.default_rng(1).normal(size=(4, 3))))), (2, 4), False),
        ("softmax", lambda x: sum_(ad.mul(softmax(x, axis=1), ad.constant(np.random.default_rng(2).normal(size=(3, 5))))), (3, 5), False),
        ("sum_axis", lambda x: sum_(ad.mul(sum_(x, axis=0, keepdims=True), sum_(x, axis=1, keepdims=True))), (3, 3), False),
        # A transposed leaf gives the fused op an F-ordered (5, 6) input, as the scan does.
        ("cross_axis_fusion_strided", lambda x: sum_(ad.mul(ad.cross_axis_fusion(transpose(x, (1, 0)), *FUSION_ARGS), ad.constant(np.random.default_rng(27).normal(size=(5, 6))))), (6, 5), False),
        ("transpose", lambda x: sum_(ad.mul(transpose(x, (1, 2, 0)), ad.constant(np.random.default_rng(3).normal(size=(3, 4, 2))))), (2, 3, 4), False),
        ("reshape", lambda x: sum_(ad.mul(reshape(x, (6, 2)), ad.constant(np.random.default_rng(4).normal(size=(6, 2))))), (3, 4), False),
        ("concat", lambda x: sum_(ad.mul(ad.concat([x, ad.mul(x, 2.0)], axis=1), ad.constant(np.random.default_rng(5).normal(size=(3, 8))))), (3, 4), False),
        ("gather", lambda x: sum_(ad.mul(ad.gather_rows(x, np.array([0, 2, 2, 1])), ad.constant(np.random.default_rng(6).normal(size=(4, 3))))), (3, 3), False),
        ("segment_sum", lambda x: sum_(ad.mul(ad.segment_sum(x, SEG, 4), ad.constant(np.random.default_rng(7).normal(size=(4, 2))))), (6, 2), False),
        ("segment_mean", lambda x: sum_(ad.mul(ad.segment_mean(x, SEG, 4), ad.constant(np.random.default_rng(8).normal(size=(4, 2))))), (6, 2), False),
        ("segment_max", lambda x: sum_(ad.mul(ad.segment_max(x, SEG, 4), ad.constant(np.random.default_rng(9).normal(size=(4, 2))))), (6, 2), False),
        ("segment_softmax", lambda x: sum_(ad.mul(ad.segment_softmax(x, SEG, 3), ad.constant(np.random.default_rng(10).normal(size=(6, 2))))), (6, 2), False),
        ("layer_norm", lambda x: sum_(ad.mul(ad.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))), ad.constant(np.random.default_rng(11).normal(size=(4, 5))))), (4, 5), False),
        ("mse", lambda x: ad.mse_loss(x, ad.constant(np.random.default_rng(12).normal(size=(4, 3)))), (4, 3), False),
        ("cross_entropy", lambda x: ad.cross_entropy(x, np.array([0, 2, 1])), (3, 3), False),
        # A transposed leaf gives the op a strided (6, 2, 3) input.
        ("segment_max_strided", lambda x: sum_(ad.mul(ad.segment_max(transpose(x, (2, 1, 0)), SEG, 4), ad.constant(np.random.default_rng(18).normal(size=(4, 2, 3))))), (3, 2, 6), False),
        ("layer_norm_scaled", lambda x: sum_(ad.mul(ad.layer_norm(x, Tensor(np.linspace(-1.0, 2.0, 5)), Tensor(np.linspace(0.5, -1.5, 5))), ad.constant(np.random.default_rng(23).normal(size=(4, 5))))), (4, 5), False),
    ],
)
def test_op_gradients_match_finite_differences(name, fn, shape, positive):
    check(fn, shape, positive=positive)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
def test_gradients_on_size_one_edge_dimensions(shape):
    check(lambda x: sum_(ad.mul(ad.sigmoid(x), x)), shape)


@pytest.mark.parametrize("c_out", [1, 2])
@pytest.mark.parametrize(
    "spatial,kernel",
    [((6,), (1,)), ((6,), (3,)), ((4,), (7,)), ((4, 5), (3, 3)), ((3, 2), (1, 7)), ((2, 3), (7, 3))],
    ids=["L6-k1", "L6-k3", "L4-k7", "4x5-k3x3", "3x2-k1x7", "2x3-k7x3"],
)
def test_conv_same_matches_per_tap_reference(spatial, kernel, c_out):
    # cross_axis_fusion runs its convolutions as banded matmuls: the input
    # times the band matrix, and in the backward the probe times its
    # transpose and the band gradient folded onto the taps. The convolution
    # is linear in x and in w, so the exact gradients are the reference's
    # response to each unit input and to each unit kernel.
    stream = RngStream(13)
    x = stream.normal(size=(3, 2) + spatial)
    w = stream.normal(size=(c_out, 2) + kernel)
    b = stream.normal(size=(c_out,))
    band, fold = ad._conv_band(w, spatial)
    x2 = x.reshape(3, -1)
    out = (x2 @ band).reshape((3, c_out) + spatial) + b.reshape((-1,) + (1,) * len(spatial))
    want = conv_same_reference(x, w, b)
    assert out.shape == want.shape
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    probe = stream.normal(size=want.shape)
    p2 = probe.reshape(3, -1)
    units = lambda a: (np.eye(a.size)[i].reshape(a.shape) for i in range(a.size))
    gx = [np.sum(probe * conv_same_reference(e, w, np.zeros_like(b))) for e in units(x)]
    gw = [np.sum(probe * conv_same_reference(x, e, np.zeros_like(b))) for e in units(w)]
    for got, exact in [((p2 @ band.T).ravel(), gx), (fold(x2.T @ p2).ravel(), gw)]:
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("shape", [(4, 5), (3, 1), (2, 3, 6)], ids=["rows", "d1", "3d"])
def test_layer_norm_matches_reference(shape):
    stream = RngStream(26)
    x = stream.normal(size=shape)
    x[0] = 1.7  # a constant row: zero variance, only eps in the denominator
    gain, bias = stream.normal(size=shape[-1:]), stream.normal(size=shape[-1:])
    got = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    assert np.abs(got.data - layer_norm_reference(x, gain, bias)).max() <= 1e-12


def test_broadcast_mul_3d_patterns():
    check(lambda x: sum_(ad.mul(x, ad.constant(np.random.default_rng(16).normal(size=(4, 2, 1))))), (4, 2, 3))
    check(lambda x: sum_(ad.mul(ad.constant(np.random.default_rng(17).normal(size=(5, 1, 3))), x)), (5, 4, 3))


# -- structural behaviour ---------------------------------------------------------


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="mse"):
        ad.mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="segment"):
        ad.segment_sum(Tensor(np.zeros((3, 2))), np.array([0, 1]), 2)
    pagerank, batch_index, num_graphs, nd_w, *rest = FUSION_ARGS
    with pytest.raises(ShapeError, match="cross_axis_fusion"):  # x is not (n, d)
        ad.cross_axis_fusion(Tensor(np.zeros((5, 3, 2))), *FUSION_ARGS)
    with pytest.raises(ShapeError, match="cross_axis_fusion"):  # an even kernel
        ad.cross_axis_fusion(Tensor(np.zeros((5, 6))), pagerank, batch_index, num_graphs,
                             Tensor(np.zeros((1, 2, 6))), *rest)
    wq, wk, wv, a_log, log_dt, b, c, pairs, spd, heads = SCAN_ARGS
    with pytest.raises(ShapeError, match="hop_attention_scan"):  # b is (D, d + 1)
        ad.hop_attention_scan(SCAN_FX, wq, wk, wv, a_log, log_dt, np.zeros((3, 5)), c,
                              pairs, spd, heads)


# Each op called with a head count for an input of width d = 4.
HEAD_OPS = {
    "hop_attention_scan": lambda heads: ad.hop_attention_scan(SCAN_FX, *SCAN_ARGS[:-1], heads),
    "cross_axis_fusion": lambda heads: ad.cross_axis_fusion(Tensor(np.zeros((5, 4))), *FUSION_ARGS[:-1], heads),
}


@pytest.mark.parametrize("op", sorted(HEAD_OPS))
@pytest.mark.parametrize("heads", [0, -2, 3], ids=["zero", "negative", "non-divisor"])
def test_head_counts_below_one_or_not_dividing_d_raise_naming_the_op(op, heads):
    # Unchecked, 0 heads would divide by zero and -2 would fail inside
    # numpy's reshape.
    with pytest.raises(ShapeError, match=f"{op}: .*heads {heads}"):
        HEAD_OPS[op](heads)


@pytest.mark.parametrize("shape", [(737, 1), (64, 1), (3, 4), (5,), ()])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mse_loss_equals_its_composition(shape, seed):
    # One tape node, equal to the bit to the add/mul/sum_ composition of the
    # mean squared error: its value, and the gradients of a prediction and of
    # a target that both require one, under an incoming gradient other than 1.
    rng = np.random.default_rng(seed)
    leaves = rng.normal(size=(2, *shape))
    pred, target = Tensor(leaves[0], requires_grad=True), Tensor(leaves[1], requires_grad=True)
    loss = ad.mse_loss(pred, target)
    assert loss._record.parents == (pred._record, target._record)
    ad.mul(loss, 0.7).backward()
    cpred, ctarget = Tensor(leaves[0], requires_grad=True), Tensor(leaves[1], requires_grad=True)
    diff = ad.add(cpred, ad.mul(ctarget, -1.0))
    want = ad.mul(sum_(ad.mul(diff, diff)), 1.0 / diff.size)
    ad.mul(want, 0.7).backward()
    assert loss.data == want.data
    assert np.array_equal(pred.grad, cpred.grad) and np.array_equal(target.grad, ctarget.grad)


def test_mse_loss_rejects_empty_input():
    with pytest.raises(ShapeError, match="mse_loss"):
        ad.mse_loss(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 1))))


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
    sum_(ad.mul(y, ad.constant(g))).backward()
    # Each tie goes to the earliest row; the empty segment's gradient goes nowhere.
    assert np.array_equal(x.grad, [[5.0, 0.0], [1.0, 2.0], [0.0, 6.0], [0.0, 0.0]])


# The digest of _fused_digest's outputs and gradients; a change to any bit
# of the fused ops or of segment_max changes it. Recorded with numpy 2.4.6
# and its bundled OpenBLAS on x86-64: another BLAS build may round the
# ops' matmuls differently.
FUSED_DIGEST = "93a4dbf2f59a82b8"


def _fused_digest() -> str:
    """The output and every input gradient, under a seeded incoming
    gradient, of hop_attention_scan, cross_axis_fusion and segment_max on
    seeded inputs that hold exact ties (repeated rows and values on a coarse
    grid) and an empty group (a center without pairs, a graph or segment
    without rows), hashed as raw bytes."""
    h = hashlib.sha256()
    stream = RngStream(31)

    def run(op, leaves):
        leaves = [Tensor(a, requires_grad=True) for a in leaves]
        out = op(*leaves)
        sum_(ad.mul(out, ad.constant(stream.normal(size=out.shape)))).backward()
        for a in (out.data, *(t.grad for t in leaves)):
            h.update(np.ascontiguousarray(a).tobytes())

    # 7 nodes, fx rows 1 and 2 equal, so their keys tie in every center
    # they both feed; center 5 has no pairs.
    pairs, spd = [], []
    for v in (0, 1, 2, 3, 4, 6):
        preds = [v] + [int(u) for u in stream.permutation(7)[:3] if u != v]
        pairs += [(u, v) for u in preds]
        spd += [0] + [int(s) for s in stream.integers(1, 4, size=len(preds) - 1)]
    pairs += [(1, 6), (2, 6)]
    spd += [2, 2]
    for heads in (1, 2, 4):
        fx = stream.normal(size=(7, 3))
        fx[2] = fx[1]
        weights = [stream.normal(size=s) for s in [(3, 8)] * 3 + [(4,), (4,), (4, 8), (8, 4)]]
        run(lambda *t: ad.hop_attention_scan(*t, np.array(pairs), np.array(spd), heads), [fx, *weights])

    # 9 nodes in graphs 0, 2 and 3 of 4; graph 1 is empty. With ties, x and
    # pagerank lie on a coarse grid, so they tie within graphs, heads and
    # features, and nodes 0 and 1 are equal.
    batch_index = np.array([0, 0, 0, 2, 2, 2, 2, 3, 3])
    for heads, dh in [(1, 3), (2, 4), (4, 2)]:
        for ties in (False, True):
            x = stream.normal(size=(9, heads * dh))
            pagerank = stream.uniform(size=9)
            if ties:
                x, pagerank = np.round(x), np.round(pagerank * 2) / 2
                x[1], pagerank[1] = x[0], pagerank[0]
            weights = [stream.normal(size=s) for s in
                       [(1, 2, 3), (1,), (1, 2, 3), (1,), (1, 2, 3, 3), (1,), (1,), (1,)]]
            run(lambda x, *w: ad.cross_axis_fusion(x, pagerank, batch_index, 4, *w, heads), [x, *weights])

    # Unsorted keys; segment 3 of 5 is empty.
    seg = np.array([4, 0, 2, 0, 4, 1, 2, 0, 4, 1])
    for row in [(), (3,), (2, 2)]:
        x = np.round(stream.normal(size=(10, *row)) * 2) / 2
        run(lambda x: ad.segment_max(x, seg, 5), [x])
    return h.hexdigest()[:16]


def test_fused_ops_and_segment_max_give_their_pinned_bits():
    assert _fused_digest() == FUSED_DIGEST


def test_scan_working_memory_stays_under_two_state_blocks():
    # A chains-sized scan, 960 centers of 15-25 pairs at up to 16 hops: the
    # peak of its forward and of its backward, above what the node keeps for
    # its backward, stays under two (heads, D, E) arrays of float64.
    stream = RngStream(5)
    n, heads, d, state = 960, 4, 32, 8
    v = np.repeat(np.arange(n), stream.integers(15, 26, size=n))
    pairs = np.column_stack([stream.integers(0, n, size=v.size), v])
    spd = stream.integers(0, 17, size=v.size)
    shapes = [(n, 3), (3, d), (3, d), (3, d), (state,), (state,), (state, d), (d, state)]
    leaves = [Tensor(stream.normal(size=s), requires_grad=True) for s in shapes]
    g = stream.normal(size=(n, d))
    tracemalloc.start()
    try:
        out = ad.hop_attention_scan(*leaves, pairs, spd, heads)
        saved, fwd_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out._backward(g)
        bwd_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(fwd_peak, bwd_peak) - saved < 2 * heads * state * v.size * 8


def test_segment_ops_handle_unsorted_keys():
    stream = RngStream(22)
    x = stream.normal(size=(6, 2))
    seg_sorted = np.array([0, 0, 1, 1, 2, 2])
    shuffle = np.array([3, 0, 5, 2, 1, 4])
    a = ad.segment_sum(Tensor(x), seg_sorted, 3).data
    b = ad.segment_sum(Tensor(x[shuffle]), seg_sorted[shuffle], 3).data
    assert np.allclose(a, b)


def _keyed_sums(vals, keys, num):
    """The segment_sum forward and the gather_rows backward of ``vals`` keyed by ``keys``."""
    fwd = ad.segment_sum(Tensor(vals), keys, num).data
    table = Tensor(np.zeros((num, *vals.shape[1:])), requires_grad=True)
    sum_(ad.mul(ad.gather_rows(table, keys), ad.constant(vals))).backward()
    return fwd, table.grad


# Unsorted keys with empty segments 1 and 4 of 6, and no rows at all.
KEYED_CASES = {
    "unsorted": (np.array([3, 0, 5, 3, 2, 0, 0, 5, 3]), 6),
    "no_rows": (np.zeros(0, np.int64), 3),
}


@pytest.mark.parametrize("row", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("case", sorted(KEYED_CASES))
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "normal"])
def test_keyed_sums_match_add_at(row, case, integer):
    keys, num = KEYED_CASES[case]
    rng = np.random.default_rng(23)
    vals = rng.normal(size=(keys.size, *row))
    if integer:
        vals = np.round(vals * 100)
    want = np.zeros((num, *row))
    np.add.at(want, keys, vals)
    for got in _keyed_sums(vals, keys, num):
        assert got.shape == want.shape
        if integer:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_keyed_sum_of_one_key_ignores_the_others():
    # Changing, adding or dropping the rows of key 2 leaves every other
    # key's sum bit-identical.
    rng = np.random.default_rng(24)
    keys = rng.integers(0, 5, size=40)
    vals = rng.normal(size=(40, 4))
    base = _keyed_sums(vals, keys, 5)
    others = np.arange(5) != 2
    changed = np.where((keys == 2)[:, None], rng.normal(size=vals.shape), vals)
    grown = np.concatenate([keys, [2, 2]]), np.concatenate([vals, rng.normal(size=(2, 4))])
    for k, v in [(keys, changed), grown, (keys[keys != 2], vals[keys != 2])]:
        for got, want in zip(_keyed_sums(v, k, 5), base):
            assert np.array_equal(got[others], want[others])


# Each op called with three ids that must lie in [0, 2).
ID_OPS = {
    "segment_sum": lambda ids: ad.segment_sum(Tensor(np.ones((3, 2))), ids, 2),
    "segment_mean": lambda ids: ad.segment_mean(Tensor(np.ones((3, 2))), ids, 2),
    "segment_max": lambda ids: ad.segment_max(Tensor(np.ones((3, 2))), ids, 2),
    "segment_softmax": lambda ids: ad.segment_softmax(Tensor(np.ones((3, 2))), ids, 2),
    "gather_rows": lambda ids: ad.gather_rows(Tensor(np.ones((2, 2))), ids),
    "cross_entropy": lambda ids: ad.cross_entropy(Tensor(np.zeros((3, 2))), ids),
    "cross_axis_fusion": lambda ids: ad.cross_axis_fusion(
        Tensor(np.zeros((5, 6))), FUSION_ARGS[0], np.concatenate([ids, [1, 1]]), 2,
        *FUSION_ARGS[3:],
    ),
}


@pytest.mark.parametrize("op", sorted(ID_OPS))
@pytest.mark.parametrize(
    "ids", [[-1, 0, 0], [0, 2, 1], [0, 0.5, 1]], ids=["negative", "past_count", "fractional"]
)
def test_ids_outside_their_range_raise_naming_the_op(op, ids):
    # Each op keys rows by ids in [0, count); a -1 would otherwise wrap to
    # the last row or segment, an id past the count would die in numpy, and
    # a cast would truncate 0.5 to the valid id 0.
    with pytest.raises(ShapeError, match=op):
        ID_OPS[op](np.array(ids))


@pytest.mark.parametrize("op", sorted(ID_OPS))
def test_whole_float_ids_are_accepted(op):
    ID_OPS[op](np.array([0.0, 1.0, 1.0]))


def test_gather_rows_accepts_an_empty_id_list():
    # numpy reads [] as float64.
    assert ad.gather_rows(Tensor(np.ones((2, 3))), []).shape == (0, 3)


def test_backward_requires_scalar():
    with pytest.raises(ShapeError, match="scalar"):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_backward_from_root_without_grad_is_a_no_op():
    x = Tensor(np.ones(3))
    h = ad.mul(x, 2.0)
    loss = sum_(h)
    loss.backward()
    assert x.grad is None and h.grad is None and loss.grad is None


def test_replay_sums_consumers_created_at_different_times():
    # x feeds a sigmoid, a product created after it and a scaled exp created
    # last, and the sigmoid feeds two ops of its own: x's gradient is complete
    # only once all three consumers have been replayed.
    def fn(x):
        s = ad.sigmoid(x)
        p = ad.mul(s, x)
        e = exp(ad.mul(x, 0.5))
        return sum_(ad.mul(ad.add(p, e), s))

    check(fn, (3, 4))


def test_grad_accumulates_until_zeroed():
    x = Tensor(np.ones(3), requires_grad=True)
    for _ in range(2):
        sum_(ad.mul(x, 2.0)).backward()
    assert np.allclose(x.grad, 4.0)
    x.grad = None
    sum_(x).backward()
    assert np.allclose(x.grad, 1.0)


def test_no_grad_records_no_tape():
    x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    recorded = ad.layer_norm(ad.matmul(x, x), Tensor(np.ones(2), requires_grad=True), np.zeros(2))
    with ad.no_grad():
        out = ad.layer_norm(ad.matmul(x, x), Tensor(np.ones(2), requires_grad=True), np.zeros(2))
    assert not out.requires_grad and out._record is None and out._backward is None
    assert recorded.requires_grad and np.array_equal(out.data, recorded.data)


def test_an_op_output_no_backward_reads_dies_with_its_tensor():
    # The matmul's output feeds only an add, whose backward reads shapes: once
    # the caller drops it, nothing holds its array. The matmul's left operand
    # is read by the weight's gradient, so its closure keeps it.
    stream = RngStream(41)
    x = Tensor(stream.normal(size=(5, 3)), requires_grad=True)
    w, b = (Tensor(stream.normal(size=s), requires_grad=True) for s in [(3, 4), (4,)])
    h = ad.add(x, 1.0)
    prod = ad.matmul(h, w)
    out = ad.add(prod, b)
    operand, product, h_data = weakref.ref(h.data), weakref.ref(prod.data), h.data.copy()
    del h, prod
    assert product() is None and operand() is not None
    sum_(out).backward()
    ones = np.ones((5, 4))
    assert np.array_equal(w.grad, h_data.T @ ones) and np.array_equal(x.grad, ones @ w.data.T)
    assert np.array_equal(b.grad, np.full(4, 5.0))


def test_backward_runs_twice_over_a_graph_whose_intermediates_were_dropped():
    # Only the loss is kept; a second backward replays the same closures and
    # adds the same gradients again.
    stream = RngStream(42)
    x = Tensor(stream.normal(size=(6, 3)), requires_grad=True)
    w = Tensor(stream.normal(size=(3, 4)), requires_grad=True)
    gain = Tensor(np.ones(4), requires_grad=True)
    seg = np.array([0, 2, 0, 1, 2, 2])
    h = ad.layer_norm(ad.sigmoid(ad.matmul(x, w)), gain, np.zeros(4))
    loss = ad.mse_loss(ad.segment_max(ad.gather_rows(h, np.arange(6)[::-1]), seg, 3), np.ones((3, 4)))
    del h
    loss.backward()
    once = [t.grad.copy() for t in (x, w, gain)]
    loss.backward()
    for t, g in zip((x, w, gain), once):
        assert np.array_equal(t.grad, g + g)


def test_no_grad_restores_recording_after_nesting_and_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    records = lambda: ad.mul(x, 2.0).requires_grad
    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside")
    assert records()


def test_a_no_grad_pass_leaves_the_next_recording_run_unchanged():
    cfg = ModelConfig(in_dim=3, task="node-regress", hidden=8, heads=2, num_layers=2,
                      ssm_state=4, k_hops=2, dropout=0.1, bidirectional=True)
    graphs = [make_random_digraph(seed) for seed in range(3)]
    graphs = [DiGraph(g.num_nodes, g.edges, g.node_features, y=np.arange(g.num_nodes) % 3 * 1.0)
              for g in graphs]
    params = init_weights(cfg, RngStream(0))
    batch, fwd, rev = collate(prepare_graphs(graphs, cfg))

    def leaf_grads():
        params.zero_grad()
        preds = model_forward(batch, fwd, rev, cfg, params, train=True, stream=RngStream(1))
        model_loss(preds, batch, cfg).backward()
        return {name: t.grad for name, t in params.items()}

    want = leaf_grads()
    params.zero_grad()
    with ad.no_grad():
        preds = model_forward(batch, fwd, rev, cfg, params, train=True, stream=RngStream(1))
        loss = model_loss(preds, batch, cfg)
    loss.backward()  # nothing recorded, so nothing to backpropagate
    assert not loss.requires_grad and all(t.grad is None for _, t in params.items())
    got = leaf_grads()
    assert all(g is not None for g in want.values())
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_tensor_used_twice_in_one_op():
    x = Tensor(np.array([3.0]), requires_grad=True)
    sum_(ad.mul(x, x)).backward()
    assert np.allclose(x.grad, 6.0)


def test_linear_loss_gradient_is_ones():
    w = Tensor(np.arange(5.0), requires_grad=True)
    sum_(w).backward()
    assert np.allclose(w.grad, 1.0)


def test_quadratic_loss_gradient_is_w():
    w = Tensor(np.arange(5.0), requires_grad=True)
    ad.mul(sum_(ad.mul(w, w)), 0.5).backward()
    assert np.allclose(w.grad, w.data)


def test_disconnected_parameters_get_no_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    sum_(used).backward()
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
    sum_(out).backward()
    dropped = out.data == 0
    assert dropped.any()
    assert np.all(x.grad[dropped] == 0.0)


# -- parameter set ----------------------------------------------------------------


def test_parameter_set_unique_names_and_order():
    p = ParameterSet([("b", Tensor(np.zeros(2))), ("a", np.zeros(3))])
    assert p.names() == ["b", "a"]
    assert p.flat.size == 5
    with pytest.raises(ValueError, match="duplicate"):
        ParameterSet([("a", np.zeros(3)), ("a", np.zeros(1))])

