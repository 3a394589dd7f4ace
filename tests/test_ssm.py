import numpy as np
import pytest

from dgssm.autodiff import Tensor
from dgssm.oracle import convolve_with_table
from dgssm.rng import RngStream
from dgssm.ssm import SSMParams, discretize, init_s4d, kernel_table, ssm_scan_reference


def test_init_diagonal_is_negative_integers():
    p = init_s4d(4, 2, 1e-3, 1e-1, seed=0)
    assert np.allclose(-np.exp(p.a_log.data), [-1.0, -2.0, -3.0, -4.0])


def test_init_degenerate_dt_range():
    p = init_s4d(3, 2, 0.1, 0.1, seed=0)
    assert np.allclose(np.exp(p.log_dt.data), 0.1)


def test_init_validation():
    with pytest.raises(ValueError):
        init_s4d(0, 2, 1e-3, 1e-1, seed=0)
    with pytest.raises(ValueError):
        init_s4d(2, 2, 0.1, 0.01, seed=0)


def test_init_deterministic_under_seed():
    a = init_s4d(4, 3, 1e-3, 1e-1, seed=7)
    b = init_s4d(4, 3, 1e-3, 1e-1, seed=7)
    c = init_s4d(4, 3, 1e-3, 1e-1, seed=8)
    assert np.array_equal(a.B.data, b.B.data) and np.array_equal(a.log_dt.data, b.log_dt.data)
    assert not np.array_equal(a.B.data, c.B.data)


def test_discretize_hand_value():
    # a = -1, dt = ln 2, b = 1  =>  a_bar = 0.5, b_bar = 0.5.
    p = SSMParams(
        a_log=Tensor(np.zeros(1)),
        log_dt=Tensor(np.log(np.log(2.0)) * np.ones(1)),
        B=Tensor(np.ones((1, 1))),
        C=Tensor(np.ones((1, 1))),
    )
    a_bar, b_bar = discretize(p)
    assert np.allclose(a_bar, 0.5)
    assert np.allclose(b_bar, 0.5)


def test_discretize_small_step_limit():
    dt = 1e-8
    p = SSMParams(
        a_log=Tensor(np.zeros(2)),
        log_dt=Tensor(np.full(2, np.log(dt))),
        B=Tensor(np.full((2, 1), 3.0)),
        C=Tensor(np.ones((1, 2))),
    )
    a_bar, b_bar = discretize(p)
    assert np.allclose(a_bar, 1.0, atol=1e-6)
    assert np.allclose(b_bar, dt * 3.0, rtol=1e-6)


def test_discretize_range_and_scalar_ode_oracle():
    stream = RngStream(3)
    p = init_s4d(6, 2, 1e-3, 1e-1, stream)
    a_bar, b_bar = discretize(p)
    assert np.all((a_bar > 0) & (a_bar < 1))
    # One recurrent step equals the exact ODE solution for a piecewise
    # constant input on each scalar channel: h(dt) = (e^{a dt}-1)/a * b * x.
    a = -np.exp(p.a_log.data)
    dt = np.exp(p.log_dt.data)
    x = stream.normal(size=2)
    h1 = a_bar * 0.0 + b_bar @ x
    exact = (np.exp(a * dt) - 1.0) / a * (p.B.data @ x)
    assert np.allclose(h1, exact, atol=1e-12)


def test_kernel_table_hop_zero_is_cb():
    p = init_s4d(4, 3, 1e-3, 1e-1, seed=1)
    _, b_bar = discretize(p)
    table = kernel_table(p, 5)
    assert np.allclose(table[0], p.C.data @ b_bar, atol=1e-14)


def test_kernel_table_scalar_geometric():
    # a_bar = 0.5, b_bar = 0.5, c = 1  =>  mats[k] = 0.5^{k+1}.
    p = SSMParams(
        a_log=Tensor(np.zeros(1)),
        log_dt=Tensor(np.log(np.log(2.0)) * np.ones(1)),
        B=Tensor(np.ones((1, 1))),
        C=Tensor(np.ones((1, 1))),
    )
    table = kernel_table(p, 6)
    want = 0.5 ** (np.arange(7) + 1)
    assert np.allclose(table.reshape(-1), want, atol=1e-15)


def test_kernel_table_validation():
    p = init_s4d(2, 2, 1e-2, 1e-1, seed=0)
    with pytest.raises(ValueError):
        kernel_table(p, -1)


def test_convolution_matches_recurrence():
    stream = RngStream(5)
    for _ in range(20):
        d = int(stream.integers(1, 9))
        state = int(stream.integers(1, 9))
        length = int(stream.integers(1, 17))
        p = init_s4d(state, d, 1e-3, 1e-1, stream.child())
        xs = stream.normal(size=(length, d))
        table = kernel_table(p, length - 1)
        assert np.abs(
            convolve_with_table(table, xs) - ssm_scan_reference(p, xs)
        ).max() <= 1e-10


def test_impulse_response_reproduces_table_columns():
    p = init_s4d(4, 3, 1e-3, 1e-1, seed=9)
    table = kernel_table(p, 7)
    for j in range(3):
        xs = np.zeros((8, 3))
        xs[0, j] = 1.0
        ys = ssm_scan_reference(p, xs)
        assert np.abs(ys - table[:, :, j]).max() <= 1e-10


def test_scan_linearity():
    stream = RngStream(11)
    p = init_s4d(5, 4, 1e-3, 1e-1, stream)
    x = stream.normal(size=(6, 4))
    z = stream.normal(size=(6, 4))
    lhs = ssm_scan_reference(p, 2.5 * x - 1.5 * z)
    rhs = 2.5 * ssm_scan_reference(p, x) - 1.5 * ssm_scan_reference(p, z)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_all_zero_input_gives_zero_output():
    p = init_s4d(3, 2, 1e-3, 1e-1, seed=2)
    assert np.all(ssm_scan_reference(p, np.zeros((5, 2))) == 0.0)


def test_powers_decay_monotonically():
    # With C = I and B = diag(1 / coef), B_bar = I and the table's hop-s
    # matrix is diag(a_bar^s).
    p = init_s4d(6, 6, 1e-3, 1e-1, seed=4)
    a = -np.exp(p.a_log.data)
    a_bar = np.exp(np.exp(p.log_dt.data) * a)
    p.B.data = np.diag(a / (a_bar - 1.0))
    p.C.data = np.eye(6)
    pows = np.diagonal(kernel_table(p, 9), axis1=1, axis2=2)
    assert np.allclose(pows, a_bar[None, :] ** np.arange(10)[:, None], rtol=1e-13)
    assert np.allclose(pows[0], 1.0)
    assert np.all(np.diff(pows, axis=0) < 0)
