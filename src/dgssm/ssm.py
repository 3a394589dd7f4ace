"""Diagonal state space kernel: parameterization and the oracles' reference forms.

The continuous system  h'(t) = A h(t) + B x(t),  y(t) = C h(t)  with diagonal
A is discretized by zero-order hold:

    a_bar_n = exp(dt_n * a_n),   b_bar_n = (exp(dt_n * a_n) - 1) / a_n * B_n.

A message that travels s hops is transformed by C diag(a_bar)^s B_bar. The
model never forms that d x d matrix: :func:`autodiff.hop_attention_scan`
discretizes the parameters itself and works in the D-dimensional state.
:func:`kernel_table` materializes the per-hop matrices and
:func:`ssm_scan_reference` runs the recurrence, both in plain numpy from
:func:`discretize`; they are the references the oracles check. Like the
scan, each reads ``{prefix}.a_log``, ``.log_dt``, ``.b`` and ``.c`` from a
:class:`autodiff.ParameterSet`.

Parameters are real-valued: the diagonal is initialized to a_n = -(n+1) and
stored as a_log with A_diag = -exp(a_log), so it stays strictly negative
under gradient updates and every |a_bar_n| stays in (0, 1).
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterSet


def s4d_table(state_dim: int, width: int, dt_min: float, dt_max: float) -> list[tuple]:
    """(name, shape, initializer) of each S4D parameter, in draw order, for
    :meth:`RngStream.draw`: a_n = -(n+1), log-uniform step sizes, and B, C
    zero-mean with scale 1/sqrt(state_dim). Draws no random numbers."""
    if state_dim < 1 or width < 1:
        raise ValueError("s4d_table: state_dim and width must be >= 1")
    if not (0.0 < dt_min <= dt_max):
        raise ValueError(f"s4d_table: need 0 < dt_min <= dt_max, got [{dt_min}, {dt_max}]")
    scale = 1.0 / np.sqrt(state_dim)
    return [
        ("a_log", (state_dim,), ("log_arange",)),
        ("log_dt", (state_dim,), ("uniform", np.log(dt_min), np.log(dt_max))),
        ("b", (state_dim, width), ("normal", scale)),
        ("c", (width, state_dim), ("normal", scale)),
    ]


def discretize(params: ParameterSet, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of the weights ``{prefix}.a_log``,
    ``{prefix}.log_dt`` and ``{prefix}.b``, in plain numpy.

    Returns (a_bar, b_bar) with a_bar_n = exp(dt_n a_n) in (0, 1) and
    b_bar = ((a_bar - 1) / a) * B rows.
    """
    a = -np.exp(params[f"{prefix}.a_log"].data)
    a_bar = np.exp(np.exp(params[f"{prefix}.log_dt"].data) * a)
    return a_bar, ((a_bar - 1.0) / a)[:, None] * params[f"{prefix}.b"].data


def kernel_table(params: ParameterSet, prefix: str, k: int) -> np.ndarray:
    """Per-hop matrices C diag(a_bar)^s B_bar for s = 0..k, shape (k+1, d, d).

    The explicit hop-matrix form of the kernel, kept as a reference for the
    state-space scan.
    """
    if k < 0:
        raise ValueError(f"kernel_table: hop bound must be >= 0, got {k}")
    a_bar, b_bar = discretize(params, prefix)
    pows = a_bar[None, :] ** np.arange(k + 1)[:, None]  # (k+1, D)
    return (params[f"{prefix}.c"].data[None, :, :] * pows[:, None, :]) @ b_bar


def ssm_scan_reference(params: ParameterSet, prefix: str, xs: np.ndarray) -> np.ndarray:
    """Exact recurrent evaluation h_t = a_bar*h_{t-1} + B_bar x_t, y_t = C h_t.

    Plain numpy, state starts at zero; used as the oracle for the kernel
    table and for the message-passing scan.
    """
    xs = np.asarray(xs, dtype=np.float64)
    a_bar, b_bar = discretize(params, prefix)
    width = b_bar.shape[1]
    if xs.ndim != 2 or xs.shape[1] != width:
        raise ValueError(f"ssm_scan_reference: expected (L, {width}), got {xs.shape}")
    c = params[f"{prefix}.c"].data
    h = np.zeros_like(a_bar)
    ys = np.zeros_like(xs)
    for t in range(xs.shape[0]):
        h = a_bar * h + b_bar @ xs[t]
        ys[t] = c @ h
    return ys
