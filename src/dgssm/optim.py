"""AdamW with decoupled weight decay, and a finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import ParameterSet, Tensor


class AdamW:
    """Adam with bias correction and weight decay applied outside the
    adaptive step: p <- p - lr*wd*p, then p <- p - lr * m_hat / (sqrt(v_hat)+eps).

    The update runs over the parameter set's whole ``flat`` buffer at once
    (the idiom of PyTorch's foreach/fused AdamW), with the moments ``m`` and
    ``v`` held in buffers of the same layout. The arithmetic is elementwise,
    so it gives every value what a per-array loop would, bit for bit.
    """

    def __init__(
        self,
        params: ParameterSet,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)
        self._g = np.empty_like(params.flat)

    def step(self) -> None:
        grads = []
        for name, t in self.params.items():
            if t.grad is None:
                raise ValueError(f"adamw: parameter {name!r} has no gradient")
            grads.append(t.grad)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        p, m, v, g = self.params.flat, self._m, self._v, self._g
        np.concatenate(grads, axis=None, out=g)
        if self.weight_decay:
            p -= self.lr * self.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        self.params.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Optimizer state as named arrays (for checkpointing)."""
        out: dict[str, np.ndarray] = {"step": np.array([self.step_count], dtype=np.float64)}
        m, v = self.params.views(self._m), self.params.views(self._v)
        for name in self.params.names():
            out[f"m.{name}"] = m[name]
            out[f"v.{name}"] = v[name]
        return out


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_name: str
    worst_index: tuple
    passed: bool

    def __str__(self):
        return (
            f"grad check: max rel err {self.max_rel_err:.3e} at "
            f"{self.worst_name}{list(self.worst_index)} -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        )


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Unit floor: behaves like absolute error below magnitude 1, relative above.
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return np.abs(analytic - numeric) / denom


def _central_diff(f: Callable[[], Tensor], arr: np.ndarray, eps: float) -> np.ndarray:
    # Perturb ``arr`` itself by index: for a strided array ``ravel()`` is a
    # copy, and perturbing a copy leaves f unchanged.
    num = np.zeros(arr.shape)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + eps
        fp = float(f().data)
        arr[i] = orig - eps
        fm = float(f().data)
        arr[i] = orig
        num[i] = (fp - fm) / (2.0 * eps)
    return num


def grad_check_params(
    f: Callable[[], Tensor],
    params: ParameterSet,
    eps: float = 1e-4,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Gradient check of scalar ``f()`` against every tensor in ``params``."""
    params.zero_grad()
    f().backward()
    worst, worst_name, worst_idx = 0.0, "", ()
    for name, t in params.items():
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = _central_diff(f, t.data, eps)
        errs = _relative_error(analytic, numeric)
        if errs.size == 0:
            continue
        idx = np.unravel_index(np.argmax(errs), errs.shape)
        if not errs[idx] < worst:  # a NaN error is the worst
            worst, worst_name, worst_idx = float(errs[idx]), name, idx
    return GradCheckReport(worst, worst_name, worst_idx, worst <= tol)
