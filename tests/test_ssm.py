import numpy as np
import pytest

from conftest import ssm_params
from dgssm.autodiff import ParameterSet
from dgssm.oracle import convolve_with_table
from dgssm.rng import RngStream
from dgssm.ssm import discretize, kernel_table, s4d_table, ssm_scan_reference


def _hand_params(a_log, log_dt, b, c) -> ParameterSet:
    return ParameterSet(zip(("ssm.a_log", "ssm.log_dt", "ssm.b", "ssm.c"), (a_log, log_dt, b, c)))


def test_init_diagonal_is_negative_integers():
    p = ssm_params(4, 2, 1e-3, 1e-1, seed=0)
    assert np.allclose(-np.exp(p["ssm.a_log"].data), [-1.0, -2.0, -3.0, -4.0])


def test_init_degenerate_dt_range():
    p = ssm_params(3, 2, 0.1, 0.1, seed=0)
    assert np.allclose(np.exp(p["ssm.log_dt"].data), 0.1)


def test_init_validation():
    with pytest.raises(ValueError):
        s4d_table(0, 2, 1e-3, 1e-1)
    with pytest.raises(ValueError):
        s4d_table(2, 2, 0.1, 0.01)


def test_init_deterministic_under_seed():
    a = ssm_params(4, 3, 1e-3, 1e-1, seed=7)
    b = ssm_params(4, 3, 1e-3, 1e-1, seed=7)
    c = ssm_params(4, 3, 1e-3, 1e-1, seed=8)
    assert np.array_equal(a["ssm.b"].data, b["ssm.b"].data)
    assert np.array_equal(a["ssm.log_dt"].data, b["ssm.log_dt"].data)
    assert not np.array_equal(a["ssm.b"].data, c["ssm.b"].data)


def test_discretize_hand_value():
    # a = -1, dt = ln 2, b = 1  =>  a_bar = 0.5, b_bar = 0.5.
    p = _hand_params(np.zeros(1), np.log(np.log(2.0)) * np.ones(1), np.ones((1, 1)), np.ones((1, 1)))
    a_bar, b_bar = discretize(p, "ssm")
    assert np.allclose(a_bar, 0.5)
    assert np.allclose(b_bar, 0.5)


def test_discretize_small_step_limit():
    dt = 1e-8
    p = _hand_params(np.zeros(2), np.full(2, np.log(dt)), np.full((2, 1), 3.0), np.ones((1, 2)))
    a_bar, b_bar = discretize(p, "ssm")
    assert np.allclose(a_bar, 1.0, atol=1e-6)
    assert np.allclose(b_bar, dt * 3.0, rtol=1e-6)


def test_discretize_range_and_scalar_ode_oracle():
    stream = RngStream(3)
    p = ssm_params(6, 2, 1e-3, 1e-1, stream)
    a_bar, b_bar = discretize(p, "ssm")
    assert np.all((a_bar > 0) & (a_bar < 1))
    # One recurrent step equals the exact ODE solution for a piecewise
    # constant input on each scalar channel: h(dt) = (e^{a dt}-1)/a * b * x.
    a = -np.exp(p["ssm.a_log"].data)
    dt = np.exp(p["ssm.log_dt"].data)
    x = stream.normal(size=2)
    h1 = a_bar * 0.0 + b_bar @ x
    exact = (np.exp(a * dt) - 1.0) / a * (p["ssm.b"].data @ x)
    assert np.allclose(h1, exact, atol=1e-12)


def test_kernel_table_hop_zero_is_cb():
    p = ssm_params(4, 3, 1e-3, 1e-1, seed=1)
    _, b_bar = discretize(p, "ssm")
    table = kernel_table(p, "ssm", 5)
    assert np.allclose(table[0], p["ssm.c"].data @ b_bar, atol=1e-14)


def test_kernel_table_scalar_geometric():
    # a_bar = 0.5, b_bar = 0.5, c = 1  =>  mats[k] = 0.5^{k+1}.
    p = _hand_params(np.zeros(1), np.log(np.log(2.0)) * np.ones(1), np.ones((1, 1)), np.ones((1, 1)))
    table = kernel_table(p, "ssm", 6)
    want = 0.5 ** (np.arange(7) + 1)
    assert np.allclose(table.reshape(-1), want, atol=1e-15)


def test_kernel_table_validation():
    p = ssm_params(2, 2, 1e-2, 1e-1, seed=0)
    with pytest.raises(ValueError):
        kernel_table(p, "ssm", -1)


def test_convolution_matches_recurrence():
    stream = RngStream(5)
    for _ in range(20):
        d = int(stream.integers(1, 9))
        state = int(stream.integers(1, 9))
        length = int(stream.integers(1, 17))
        p = ssm_params(state, d, 1e-3, 1e-1, stream.child())
        xs = stream.normal(size=(length, d))
        table = kernel_table(p, "ssm", length - 1)
        assert np.abs(
            convolve_with_table(table, xs) - ssm_scan_reference(p, "ssm", xs)
        ).max() <= 1e-10


def test_impulse_response_reproduces_table_columns():
    p = ssm_params(4, 3, 1e-3, 1e-1, seed=9)
    table = kernel_table(p, "ssm", 7)
    for j in range(3):
        xs = np.zeros((8, 3))
        xs[0, j] = 1.0
        ys = ssm_scan_reference(p, "ssm", xs)
        assert np.abs(ys - table[:, :, j]).max() <= 1e-10


def test_scan_linearity():
    stream = RngStream(11)
    p = ssm_params(5, 4, 1e-3, 1e-1, stream)
    x = stream.normal(size=(6, 4))
    z = stream.normal(size=(6, 4))
    lhs = ssm_scan_reference(p, "ssm", 2.5 * x - 1.5 * z)
    rhs = 2.5 * ssm_scan_reference(p, "ssm", x) - 1.5 * ssm_scan_reference(p, "ssm", z)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_all_zero_input_gives_zero_output():
    p = ssm_params(3, 2, 1e-3, 1e-1, seed=2)
    assert np.all(ssm_scan_reference(p, "ssm", np.zeros((5, 2))) == 0.0)


def test_powers_decay_monotonically():
    # With C = I and B = diag(1 / coef), B_bar = I and the table's hop-s
    # matrix is diag(a_bar^s).
    p = ssm_params(6, 6, 1e-3, 1e-1, seed=4)
    a = -np.exp(p["ssm.a_log"].data)
    a_bar = np.exp(np.exp(p["ssm.log_dt"].data) * a)
    p["ssm.b"].data[...] = np.diag(a / (a_bar - 1.0))
    p["ssm.c"].data[...] = np.eye(6)
    pows = np.diagonal(kernel_table(p, "ssm", 9), axis1=1, axis2=2)
    assert np.allclose(pows, a_bar[None, :] ** np.arange(10)[:, None], rtol=1e-13)
    assert np.allclose(pows[0], 1.0)
    assert np.all(np.diff(pows, axis=0) < 0)
