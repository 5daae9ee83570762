"""Finite-difference gradient checker: the oracle behind the backward-pass tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from freqattn.errors import DimensionError, NumericError
from freqattn.tensor import tensor


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool


def grad_check(f: Callable, x: np.ndarray, eps: float = 1e-5,
               tol: float = 1e-4, rng=None) -> GradCheckReport:
    """Compare the analytic gradient of f against central finite differences.

    ``f(x)`` must return ``(y, vjp)`` where ``vjp(dy)`` maps an output
    cotangent to the input gradient. A random cotangent w fixes the scalar
    L = sum(w * y); the analytic dL/dx is checked componentwise against
    (L(x+eps) - L(x-eps)) / 2eps. Relative error uses a 1e-3 magnitude
    floor so near-zero components are compared absolutely.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    x = tensor(x).copy()
    y, vjp = f(x)
    if not np.all(np.isfinite(y)):
        raise NumericError("grad_check: forward produced non-finite values")
    rng = np.random.default_rng(0) if rng is None else rng
    w = rng.standard_normal(np.shape(y))
    analytic = np.asarray(vjp(w), dtype=np.float64)
    if analytic.shape != x.shape:
        raise DimensionError(
            f"grad_check: vjp returned shape {analytic.shape}, expected {x.shape}")

    numeric = np.empty_like(x)
    flat = x.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        yp = f(x)[0]
        flat[i] = orig - eps
        ym = f(x)[0]
        flat[i] = orig
        num_flat[i] = float(np.sum(w * (yp - ym)) / (2.0 * eps))
    if not np.all(np.isfinite(numeric)):
        raise NumericError("grad_check: finite differences produced non-finite values")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if x.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, tol=tol, passed=max_rel <= tol)
