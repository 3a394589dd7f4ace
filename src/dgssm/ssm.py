"""Diagonal state space kernel: parameterization, discretization, hop powers.

The continuous system  h'(t) = A h(t) + B x(t),  y(t) = C h(t)  with diagonal
A is discretized by zero-order hold:

    a_bar_n = exp(dt_n * a_n),   b_bar_n = (exp(dt_n * a_n) - 1) / a_n * B_n.

A message that travels s hops is transformed by C diag(a_bar)^s B_bar. The
model never forms that d x d matrix: it works in the D-dimensional state and
needs only the (K+1) x D table of powers a_bar^s from :func:`hop_powers`.
:func:`kernel_table` materializes the per-hop matrices from the same table;
it is the reference the conv-vs-recurrence oracle checks.

Parameters are real-valued: the diagonal is initialized to a_n = -(n+1) and
stored as a_log with A_diag = -exp(a_log), so it stays strictly negative
under gradient updates and every |a_bar_n| stays in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import RngStream


@dataclass
class SSMParams:
    """Trainable state-space parameters. A_diag = -exp(a_log)."""

    a_log: Tensor  # (D,)
    log_dt: Tensor  # (D,)
    B: Tensor  # (D, d) input expansion
    C: Tensor  # (d, D) output projection

    @property
    def state_dim(self) -> int:
        return self.a_log.shape[0]

    @property
    def width(self) -> int:
        return self.B.shape[1]

    def a_diag(self) -> Tensor:
        return ad.mul(ad.exp(self.a_log), -1.0)

    def dt(self) -> Tensor:
        return ad.exp(self.log_dt)

    def tensors(self) -> dict[str, Tensor]:
        return {"a_log": self.a_log, "log_dt": self.log_dt, "b": self.B, "c": self.C}


def init_s4d(
    state_dim: int,
    width: int,
    dt_min: float,
    dt_max: float,
    seed: int | RngStream,
) -> SSMParams:
    """Real-diagonal initialization: a_n = -(n+1), log-uniform step sizes,
    and B, C drawn zero-mean with scale 1/sqrt(state_dim)."""
    if state_dim < 1 or width < 1:
        raise ValueError("init_s4d: state_dim and width must be >= 1")
    if not (0.0 < dt_min <= dt_max):
        raise ValueError(f"init_s4d: need 0 < dt_min <= dt_max, got [{dt_min}, {dt_max}]")
    stream = seed if isinstance(seed, RngStream) else RngStream(seed)
    a_log = np.log(np.arange(1, state_dim + 1, dtype=np.float64))
    log_dt = stream.uniform(np.log(dt_min), np.log(dt_max), size=state_dim)
    scale = 1.0 / np.sqrt(state_dim)
    b = stream.normal(0.0, scale, size=(state_dim, width))
    c = stream.normal(0.0, scale, size=(width, state_dim))
    return SSMParams(
        a_log=Tensor(a_log, requires_grad=True),
        log_dt=Tensor(log_dt, requires_grad=True),
        B=Tensor(b, requires_grad=True),
        C=Tensor(c, requires_grad=True),
    )


def discretize(p: SSMParams) -> tuple[Tensor, Tensor]:
    """Zero-order-hold discretization.

    Returns (a_bar, b_bar) with a_bar_n = exp(dt_n a_n) in (0, 1) and
    b_bar = ((a_bar - 1) / a) * B rows.
    """
    a = p.a_diag()  # (D,), strictly negative by construction
    # A true zero or positive diagonal violates the contract. Negative zero
    # can only arise when exp(a_log) underflows during a diverging run; it is
    # let through so the resulting non-finite values surface as divergence.
    bad = (a.data > 0) | ((a.data == 0) & ~np.signbit(a.data))
    if np.any(bad):
        raise ValueError("discretize: state diagonal must be strictly negative")
    da = ad.mul(p.dt(), a)
    a_bar = ad.exp(da)
    coef = ad.div(ad.sub(a_bar, 1.0), a)  # (D,)
    b_bar = ad.mul(coef.reshape(-1, 1), p.B)
    return a_bar, b_bar


def hop_powers(a_bar: Tensor, k: int) -> Tensor:
    """Powers a_bar^s for hops s = 0..k, shape (k+1, D).

    Computed as exp(s * log a_bar), which is numerically safe since a_bar is
    in (0, 1); gradients flow back to a_bar.
    """
    if k < 0:
        raise ValueError(f"hop_powers: hop bound must be >= 0, got {k}")
    hops = ad.constant(np.arange(k + 1, dtype=np.float64).reshape(-1, 1))
    return ad.exp(ad.mul(hops, ad.log(a_bar).reshape(1, -1)))


def kernel_table(p: SSMParams, k: int) -> Tensor:
    """Per-hop matrices C diag(a_bar)^s B_bar for s = 0..k, shape (k+1, d, d).

    The explicit hop-matrix form of the kernel, kept as a reference for the
    state-space scan; gradients flow to all parameters.
    """
    a_bar, b_bar = discretize(p)
    pows = hop_powers(a_bar, k)  # (k+1, D)
    d, state = p.width, p.state_dim
    scaled_c = ad.mul(p.C.reshape(1, d, state), pows.reshape(k + 1, 1, state))
    return ad.matmul(scaled_c.reshape((k + 1) * d, state), b_bar).reshape(k + 1, d, d)


def ssm_scan_reference(p: SSMParams, xs: np.ndarray) -> np.ndarray:
    """Exact recurrent evaluation h_t = a_bar*h_{t-1} + B_bar x_t, y_t = C h_t.

    Plain numpy, state starts at zero; used as the oracle for the kernel
    table and for the message-passing scan.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != p.width:
        raise ValueError(f"ssm_scan_reference: expected (L, {p.width}), got {xs.shape}")
    a = -np.exp(p.a_log.data)
    dt = np.exp(p.log_dt.data)
    a_bar = np.exp(dt * a)
    b_bar = ((a_bar - 1.0) / a)[:, None] * p.B.data
    c = p.C.data
    h = np.zeros(p.state_dim)
    ys = np.zeros_like(xs)
    for t in range(xs.shape[0]):
        h = a_bar * h + b_bar @ xs[t]
        ys[t] = c @ h
    return ys
