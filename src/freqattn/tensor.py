"""Dense-tensor kernels with explicit forward and backward rules.

Values are 64-bit floats in row-major layout throughout; gradient checks at
1e-4 tolerance are not reliable in 32-bit. conv2d lowers to one GEMM over
im2col columns that it copies straight from the unpadded input, tap by tap;
the zero-padded map is never built, in the forward or the backward. conv2d
raises ``DimensionError`` on operand shapes it cannot combine. Backward rules
are invoked explicitly by callers in reverse layer order; there is no
autodiff graph.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def tensor(data) -> np.ndarray:
    """Coerce input to a float64 C-contiguous array."""
    return np.ascontiguousarray(data, dtype=np.float64)


class Parameter:
    """Trainable array paired with an accumulated gradient of equal shape."""

    def __init__(self, value, name: str):
        self.value = tensor(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size


# ---------------------------------------------------------------------------
# conv2d (cross-correlation convention)
# ---------------------------------------------------------------------------

def conv2d_output_shape(f: int, t: int, kh: int, kw: int, stride: int, pad: int):
    return (f + 2 * pad - kh) // stride + 1, (t + 2 * pad - kw) // stride + 1


def _tap_slices(n, k, stride, pad, n_out):
    """Per kernel tap u along one axis: (u, output slice, input slice) over the
    outputs i whose read i*stride + u - pad lands inside the unpadded length
    n. A tap that reads only padding is left out."""
    taps = []
    for u in range(k):
        lo = max(0, -((u - pad) // stride))                # ceil((pad - u) / stride)
        hi = min(n_out, (n - 1 + pad - u) // stride + 1)
        if lo < hi:
            start = lo * stride + u - pad
            taps.append((u, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1,
                                                 stride)))
    return taps


def _conv_taps(f, t, kh, kw, stride, pad, fo, to):
    """(column index, input index) per (u, v) tap, in (u, v) order: the column
    buffer (C, kh, kw, F', T') at [:, u, v] holds what that tap reads of x."""
    rows = _tap_slices(f, kh, stride, pad, fo)
    cols = _tap_slices(t, kw, stride, pad, to)
    return [((slice(None), u, v, fo_u, to_v), (slice(None), fi_u, ti_v))
            for u, fo_u, fi_u in rows for v, to_v, ti_v in cols]


def _im2col(x, taps, kh, kw, fo, to):
    # x: unpadded input (C, F, T) -> (C*kh*kw, F'*T'); padding reads stay 0
    cols = np.zeros((x.shape[0], kh, kw, fo, to))
    for col_idx, x_idx in taps:
        cols[col_idx] = x[x_idx]
    return cols.reshape(-1, fo * to)


def _col2im(dcols, x_shape, taps, kh, kw, fo, to):
    # the adjoint of _im2col: each tap's slab adds back where it was read
    dx = np.zeros(x_shape)
    d = dcols.reshape(x_shape[0], kh, kw, fo, to)
    for col_idx, x_idx in taps:
        dx[x_idx] += d[col_idx]
    return dx


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
    fo, to = conv2d_output_shape(f, t, kh, kw, stride, pad)
    cols = _im2col(x, _conv_taps(f, t, kh, kw, stride, pad, fo, to), kh, kw, fo, to)
    return (w.reshape(c_out, -1) @ cols).reshape(c_out, fo, to)


def conv2d_backward(x, w, dy, stride: int = 1, pad: int = 0):
    """Gradients of conv2d w.r.t. input and kernel."""
    _, f, t = x.shape
    c_out, _, kh, kw = w.shape
    fo, to = dy.shape[1], dy.shape[2]
    taps = _conv_taps(f, t, kh, kw, stride, pad, fo, to)
    cols = _im2col(x, taps, kh, kw, fo, to)
    dy2 = dy.reshape(c_out, -1)
    dw = (dy2 @ cols.T).reshape(w.shape)
    dcols = w.reshape(c_out, -1).T @ dy2
    return _col2im(dcols, x.shape, taps, kh, kw, fo, to), dw


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
