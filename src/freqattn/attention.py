"""Channel attention blocks: SE, SFSC, and MFSC.

All three are one squeeze-excite computation. The squeeze projects every
channel onto k normalized DCT basis planes, giving a (k, C) response
matrix; each bottleneck branch reads one descriptor vector z off it, and
the bias-free bottleneck (w1: C -> C/r, ReLU, w2: C/r -> C, sigmoid) sums
the pre-sigmoid outputs of its branches into the vector s that rescales
the channels. The variants differ only in which responses z reads:

* ``se``    -- k = 1 with the (0, 0) plane, whose normalized form is the
  constant 1/(F*T): z[c] is the global average of channel c, so the squeeze
  is ``dct.gap`` and builds no plane.
* ``sfsc``  -- channels are split into k contiguous groups; channel c
  reads the response to the plane of its group, row c // (C/k).
* ``mfsc``  -- every channel reads all k responses, aggregated by their
  mean (``avg``), their maximum (``max``), or both as two branches
  (``avg_max``).

For every (F, T) map it meets, sfsc and mfsc take the k lowest planes in
zigzag order (``dct.select_frequency_indices``), so any input length works.
The DCT planes are constants, so none of the variants add parameters over
plain SE: each block owns exactly w1 and w2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dct
from .errors import ConfigError, DimensionError
from .tensor import Parameter, relu, relu_backward, sigmoid, sigmoid_backward

VARIANTS = ("se", "sfsc", "mfsc")
AGGREGATIONS = ("avg", "max", "avg_max")


def check_block(variant: str, channels: int, reduction: int, k: Optional[int],
                aggregation: str) -> None:
    """Raise ConfigError unless these settings make a block; se ignores k."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    if channels < 1 or reduction < 1:
        raise ConfigError(f"channels and reduction must be >= 1, got {channels} "
                          f"and {reduction}")
    if channels // reduction < 1:
        raise ConfigError(
            f"reduction {reduction} leaves no bottleneck units for {channels} channels")
    if variant != "se" and (k is None or k < 1):
        raise ConfigError(f"{variant} needs k >= 1 frequency components, got {k}")
    if variant == "sfsc" and channels % k != 0:
        raise ConfigError(
            f"sfsc requires channels divisible by k (got C={channels}, k={k})")


class AttentionBlock:
    """Parameterized SE / SFSC / MFSC unit over C-channel feature maps.

    se ignores k and aggregation (an unknown aggregation is still rejected).
    The weights are drawn from the caller's rng.
    """

    def __init__(self, variant: str, channels: int, reduction: int, k: Optional[int],
                 aggregation: str, rng):
        check_block(variant, channels, reduction, k, aggregation)
        if variant == "se":
            k, aggregation = 1, "avg"
        hidden = channels // reduction

        self.variant = variant
        self.channels = channels
        self.k = k
        self.aggregation = None if variant == "sfsc" else aggregation

        a1 = 1.0 / np.sqrt(channels)
        a2 = 1.0 / np.sqrt(hidden)
        self.w1 = Parameter(rng.uniform(-a1, a1, (hidden, channels)), "attn.w1")
        self.w2 = Parameter(rng.uniform(-a2, a2, (channels, hidden)), "attn.w2")

    def parameters(self):
        return [self.w1, self.w2]


@dataclass
class AttentionState:
    """Forward cache consumed by attention_backward."""
    x: np.ndarray
    s: np.ndarray
    planes: Optional[np.ndarray]        # (k, F, T) normalized planes, None for the GAP squeeze
    reads: list                         # per branch: None (mean over k) or each channel's row
    zs: list = field(default_factory=list)       # one descriptor per bottleneck branch
    hid: list = field(default_factory=list)      # relu(w1 @ z) per branch


def _check_input(block, x):
    if x.ndim != 3:
        raise DimensionError(f"attention: expected C x F x T input, got shape {x.shape}")
    if x.shape[0] != block.channels:
        raise DimensionError(
            f"attention: block has {block.channels} channels, input has {x.shape[0]}")


def _reads(block, z_full):
    """What each bottleneck branch reads off the (k, C) responses.

    None reads the mean over k; an array reads row rows[c] for channel c.
    """
    if block.variant == "sfsc":
        return [np.arange(block.channels) // (block.channels // block.k)]
    if block.aggregation == "avg":
        return [None]
    win = np.argmax(z_full, axis=0)     # ties go to the lowest component
    return [win] if block.aggregation == "max" else [None, win]


def forward(block: AttentionBlock, x: np.ndarray):
    """Squeeze x by the block's DCT planes, excite, rescale: (s, y, backward state)."""
    _check_input(block, x)
    c, f_dim, t_dim = x.shape
    if block.variant == "se":
        # the normalized (0, 0) plane is constant: its response is the channel mean
        planes = None
        z_full = dct.gap(x)[None, :]
    else:
        planes = dct.dct_basis(f_dim, t_dim,
                               dct.select_frequency_indices(f_dim, t_dim, block.k))
        z_full = planes.reshape(len(planes), -1) @ x.reshape(c, -1).T     # (k, C)
    state = AttentionState(x=x, s=None, planes=planes, reads=_reads(block, z_full))
    cols = np.arange(c)
    u = np.zeros(c)
    for rows in state.reads:
        z = z_full.mean(axis=0) if rows is None else z_full[rows, cols]
        h = relu(block.w1.value @ z)
        u += block.w2.value @ h     # branches share the bottleneck, summed before the sigmoid
        state.zs.append(z)
        state.hid.append(h)
    s = state.s = sigmoid(u)
    y = x * s[:, None, None]
    return s, y, state


def attention_backward(block: AttentionBlock, state: AttentionState, dy: np.ndarray):
    """Exact gradients (dx, dw1, dw2) from the forward state.

    The DCT planes are constants, so the squeeze transpose only scatters
    each branch's dz back onto the responses it read and routes the (k, C)
    result back through the planes. Every branch gets the same dh = w2^T du;
    relu(a) > 0 exactly where a > 0, so its ReLU mask comes from hid.
    """
    x, s = state.x, state.s
    if dy.shape != x.shape:
        raise DimensionError(
            f"attention_backward: dy shape {dy.shape} does not match cached input {x.shape}")
    c, f_dim, t_dim = x.shape

    dx = dy * s[:, None, None]
    ds = np.einsum("cft,cft->c", dy, x)
    du = sigmoid_backward(s, ds)

    k = 1 if state.planes is None else len(state.planes)
    cols = np.arange(c)
    dw1 = np.zeros_like(block.w1.value)
    dw2 = np.zeros_like(block.w2.value)
    dz_full = np.zeros((k, c))
    dh = block.w2.value.T @ du
    for rows, z, h in zip(state.reads, state.zs, state.hid):
        dw2 += np.outer(du, h)
        da = relu_backward(h, dh)
        dw1 += np.outer(da, z)
        dz = block.w1.value.T @ da
        if rows is None:
            dz_full += dz[None, :] / k
        else:
            dz_full[rows, cols] += dz

    if state.planes is None:
        dx += dz_full[0][:, None, None] / (f_dim * t_dim)
    else:
        dx += (dz_full.T @ state.planes.reshape(k, -1)).reshape(x.shape)
    return dx, dw1, dw2
