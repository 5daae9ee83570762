"""Dense-tensor kernels with explicit forward and backward rules.

Values are 64-bit floats in row-major layout throughout; gradient checks at
1e-4 tolerance are not reliable in 32-bit. conv2d raises ``DimensionError``
on operand shapes it cannot combine. Backward rules are invoked explicitly
by callers in reverse layer order; there is no autodiff graph.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def tensor(data) -> np.ndarray:
    """Coerce input to a float64 C-contiguous array."""
    return np.ascontiguousarray(data, dtype=np.float64)


class Parameter:
    """Trainable array paired with an accumulated gradient of equal shape."""

    def __init__(self, value, name: str = ""):
        self.value = tensor(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


# ---------------------------------------------------------------------------
# conv2d (cross-correlation convention)
# ---------------------------------------------------------------------------

def conv2d_output_shape(f: int, t: int, kh: int, kw: int, stride: int, pad: int):
    return (f + 2 * pad - kh) // stride + 1, (t + 2 * pad - kw) // stride + 1


def _im2col(xp, kh, kw, stride):
    # xp: padded input (C, Fp, Tp) -> (C*kh*kw, F'*T')
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    c, fo, to = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, fo * to)


def _col2im(dcols, c_in, fp, tp, kh, kw, stride, fo, to):
    dxp = np.zeros((c_in, fp, tp))
    d = dcols.reshape(c_in, kh, kw, fo, to)
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + stride * fo:stride, v:v + stride * to:stride] += d[:, u, v]
    return dxp


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """2D cross-correlation of x[C_in,F,T] with w[C_out,C_in,kh,kw]."""
    if x.ndim != 3 or w.ndim != 4:
        raise DimensionError(f"conv2d: expected rank-3 x and rank-4 w, got {x.shape}, {w.shape}")
    c_in, f, t = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise DimensionError(f"conv2d: channel mismatch x={x.shape} w={w.shape}")
    if f + 2 * pad < kh or t + 2 * pad < kw:
        raise DimensionError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input ({f + 2 * pad}x{t + 2 * pad})")
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    fo, to = conv2d_output_shape(f, t, kh, kw, stride, pad)
    cols = _im2col(xp, kh, kw, stride)
    return (w.reshape(c_out, -1) @ cols).reshape(c_out, fo, to)


def conv2d_backward(x, w, dy, stride: int = 1, pad: int = 0):
    """Gradients of conv2d w.r.t. input and kernel."""
    c_in, f, t = x.shape
    c_out, _, kh, kw = w.shape
    fo, to = dy.shape[1], dy.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _im2col(xp, kh, kw, stride)
    dy2 = dy.reshape(c_out, -1)
    dw = (dy2 @ cols.T).reshape(w.shape)
    dcols = w.reshape(c_out, -1).T @ dy2
    dxp = _col2im(dcols, c_in, f + 2 * pad, t + 2 * pad, kh, kw, stride, fo, to)
    dx = dxp[:, pad:pad + f, pad:pad + t] if pad else dxp
    return dx, dw


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x, dy):
    # Subgradient at exactly 0 is defined as 0.
    return dy * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid_backward(s, dy):
    """Backward from the cached forward output s = sigmoid(x)."""
    return dy * s * (1.0 - s)
