import numpy as np
import pytest

from dgssm import autodiff as ad
from dgssm.autodiff import ParameterSet, Tensor
from dgssm.optim import AdamW
from dgssm.rng import RngStream

from conftest import grad_check, sum_


def _params_with(values: np.ndarray) -> ParameterSet:
    return ParameterSet([("w", values.copy())])


def test_zero_gradient_no_decay_leaves_params_unchanged():
    p = _params_with(np.array([1.0, -2.0, 3.0]))
    p["w"].grad = np.zeros(3)
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p["w"].data, [1.0, -2.0, 3.0])


def test_zero_gradient_with_decay_is_pure_shrink():
    start = np.array([1.0, -2.0, 3.0])
    p = _params_with(start)
    p["w"].grad = np.zeros(3)
    opt = AdamW(p, lr=0.1, weight_decay=0.01)
    opt.step()
    assert np.allclose(p["w"].data, start * (1 - 0.1 * 0.01))


def test_missing_gradient_raises():
    p = _params_with(np.ones(2))
    opt = AdamW(p, lr=0.1)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step()


def test_convex_quadratic_descends():
    stream = RngStream(0)
    target = stream.normal(size=8)
    p = _params_with(stream.normal(size=8))
    opt = AdamW(p, lr=0.05, weight_decay=0.0)
    losses = []
    for _ in range(50):
        opt.zero_grad()
        diff = ad.add(p["w"], ad.constant(-target))
        loss = sum_(ad.mul(diff, diff))
        loss.backward()
        losses.append(loss.item())
        opt.step()
    # Monotone after warm-up, and a big overall reduction.
    assert all(b <= a + 1e-12 for a, b in zip(losses[5:], losses[6:]))
    assert losses[-1] < 0.05 * losses[0]


def test_grad_check_passes_on_simple_function():
    report = grad_check(lambda x: sum_(ad.mul(x, x)), Tensor(np.arange(3.0)))
    assert report.passed and report.max_rel_err < 1e-6
    # A strided (transposed) leaf is perturbed in place, not through a copy.
    strided = Tensor(np.arange(6.0).reshape(2, 3).T)
    report = grad_check(lambda x: sum_(ad.mul(x, x)), strided)
    assert report.passed and report.max_rel_err < 1e-6


def test_grad_check_fails_on_a_nan_gradient():
    nan = ad.constant(np.full(3, np.nan))
    report = grad_check(lambda x: sum_(ad.mul(x, nan)), Tensor(np.arange(3.0)))
    assert np.isnan(report.max_rel_err) and not report.passed


def test_grad_check_catches_wrong_gradient():
    # A "loss" whose backward is deliberately broken via a custom node.
    def bad(x):
        out = ad.Tensor(np.sum(x.data) * 2.0)
        out.requires_grad = True
        out._parents = (x,)
        out._backward = lambda g: (np.ones_like(x.data) * 0.5,)
        return out

    x = Tensor(np.arange(3.0), requires_grad=True)
    report = grad_check(bad, x)
    assert not report.passed


def _per_array_adamw(arrays, grads, steps, lr, betas, eps, wd):
    """AdamW written one array at a time, the update the flat step must match."""
    b1, b2 = betas
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t in range(1, steps + 1):
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, mi, vi in zip(arrays, grads[t - 1], m, v):
            p -= lr * wd * p
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return arrays, m, v


def test_flat_step_equals_a_per_array_adamw():
    stream = RngStream(3)
    shapes = [(4, 3), (3,), (), (2, 1, 5)]
    start = [stream.normal(size=s) for s in shapes]
    grads = [[stream.normal(size=s) for s in shapes] for _ in range(3)]
    params = ParameterSet([(f"p{i}", a.copy()) for i, a in enumerate(start)])
    opt = AdamW(params, lr=0.01, betas=(0.8, 0.95), eps=1e-7, weight_decay=0.1)
    for step_grads in grads:
        for (_, t), g in zip(params.items(), step_grads):
            t.grad = g
        opt.step()
    want, m, v = _per_array_adamw([a.copy() for a in start], grads, 3, 0.01, (0.8, 0.95), 1e-7, 0.1)
    state = opt.state_arrays()
    for i, (name, t) in enumerate(params.items()):
        assert np.array_equal(t.data, want[i]), name
        assert np.array_equal(state[f"m.{name}"], m[i]) and np.array_equal(state[f"v.{name}"], v[i])
        assert np.shares_memory(t.data, params.flat)


def test_missing_gradient_names_the_parameter_and_changes_nothing():
    params = ParameterSet([("a", np.ones(2)), ("b", np.ones(3))])
    params["a"].grad = np.ones(2)
    opt = AdamW(params, lr=0.1, weight_decay=0.5)
    with pytest.raises(ValueError, match="'b' has no gradient"):
        opt.step()
    assert np.array_equal(params.flat, np.ones(5))
