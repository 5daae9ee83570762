"""Channel attention blocks: SE, SFSC, and MFSC.

All three share one squeeze-excite skeleton: a per-channel descriptor z is
fed through a bias-free bottleneck (w1: C -> C/r, ReLU, w2: C/r -> C,
sigmoid) and the resulting vector s rescales the channels. They differ only
in how z is read off the feature map:

* ``se``    -- z[c] is the global average of channel c.
* ``sfsc``  -- channels are split into k contiguous groups; group n is
  reduced by the normalized DCT basis plane of its assigned frequency
  index, so every channel in a group shares one frequency component.
* ``mfsc``  -- every channel is reduced by all k frequency components,
  giving a k x C stack that is aggregated per channel by mean, max, or
  both (the avg_max form runs both vectors through the shared bottleneck
  and sums the two pre-sigmoid outputs).

The DCT planes are constants, so none of the variants add parameters over
plain SE: each block owns exactly w1 and w2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dct
from .errors import ConfigError, DimensionError
from .tensor import Parameter, relu, sigmoid

VARIANTS = ("se", "sfsc", "mfsc")
AGGREGATIONS = ("avg", "max", "avg_max")


class AttentionBlock:
    """Parameterized SE / SFSC / MFSC unit over C-channel feature maps.

    Frequency indices may be fixed at construction (``indices``) or chosen
    lazily per feature-map shape (``k`` alone): the lazy mode picks the k
    lowest-frequency indices in zigzag order for each (F, T) it encounters,
    which keeps variable-length inputs working.
    """

    def __init__(self, variant: str, channels: int, reduction: int = 8,
                 k: Optional[int] = None, indices=None, aggregation: str = "avg",
                 rng=None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown attention variant {variant!r}")
        if channels < 1 or reduction < 1:
            raise ConfigError("channels and reduction must be positive")
        hidden = channels // reduction
        if hidden < 1:
            raise ConfigError(
                f"reduction {reduction} leaves no bottleneck units for {channels} channels")

        if indices is not None:
            indices = tuple(dct.FrequencyIndex(int(f), int(t)) for f, t in indices)
            if k is not None and k != len(indices):
                raise ConfigError(f"k={k} disagrees with {len(indices)} explicit indices")
            k = len(indices)

        if variant == "se":
            if indices:
                raise ConfigError("se takes no frequency indices")
            k = 0
            indices = ()
        else:
            if k is None or k < 1:
                raise ConfigError(f"{variant} needs k >= 1 frequency components")
            if variant == "sfsc" and channels % k != 0:
                raise ConfigError(
                    f"sfsc requires channels divisible by k (got C={channels}, k={k})")
            if variant == "mfsc" and aggregation not in AGGREGATIONS:
                raise ConfigError(f"unknown aggregation {aggregation!r}")

        self.variant = variant
        self.channels = channels
        self.reduction = reduction
        self.k = k
        self.indices = indices
        self.aggregation = aggregation if variant == "mfsc" else None

        rng = np.random.default_rng(0) if rng is None else rng
        a1 = 1.0 / np.sqrt(channels)
        a2 = 1.0 / np.sqrt(hidden)
        self.w1 = Parameter(rng.uniform(-a1, a1, (hidden, channels)), "attn.w1")
        self.w2 = Parameter(rng.uniform(-a2, a2, (channels, hidden)), "attn.w2")

    def parameters(self):
        return [self.w1, self.w2]

    def resolve_indices(self, f_dim: int, t_dim: int):
        """Fixed indices as given (dct.dct_basis range-checks them), else the k lowest."""
        return self.indices or tuple(dct.select_frequency_indices(f_dim, t_dim, self.k))


def parameter_count(block: AttentionBlock) -> int:
    return sum(p.size for p in block.parameters())


@dataclass
class AttentionState:
    """Forward cache consumed by attention_backward."""
    x: np.ndarray
    s: np.ndarray
    planes: Optional[np.ndarray]        # (k, F, T) normalized planes, None for se
    zs: list = field(default_factory=list)       # one descriptor per bottleneck branch
    pre: list = field(default_factory=list)      # w1 @ z per branch
    hid: list = field(default_factory=list)      # relu(w1 @ z) per branch
    argmax: Optional[np.ndarray] = None          # winning component per channel (max agg)


def _check_input(block, x):
    if x.ndim != 3:
        raise DimensionError(f"attention: expected C x F x T input, got shape {x.shape}")
    if x.shape[0] != block.channels:
        raise DimensionError(
            f"attention: block has {block.channels} channels, input has {x.shape[0]}")


def _excite(block, state, zs):
    """Shared bottleneck; sums pre-sigmoid outputs over branches."""
    u = np.zeros(block.channels)
    for z in zs:
        a = block.w1.value @ z
        h = relu(a)
        u += block.w2.value @ h
        state.zs.append(z)
        state.pre.append(a)
        state.hid.append(h)
    s = sigmoid(u)
    state.s = s
    return s


def _normalized_planes(block, f_dim, t_dim):
    idx = block.resolve_indices(f_dim, t_dim)
    return dct.dct_basis(f_dim, t_dim, idx, normalized=True).planes


def se_forward(block: AttentionBlock, x: np.ndarray, return_state: bool = False):
    """Squeeze by global average pooling, excite, rescale channels."""
    if block.variant != "se":
        raise ConfigError(f"se_forward called on a {block.variant!r} block")
    _check_input(block, x)
    state = AttentionState(x=x, s=None, planes=None)
    s = _excite(block, state, [x.mean(axis=(1, 2))])
    y = x * s[:, None, None]
    return (s, y, state) if return_state else (s, y)


def sfsc_forward(block: AttentionBlock, x: np.ndarray, return_state: bool = False):
    """Squeeze each channel group by its own frequency component, excite, rescale."""
    if block.variant != "sfsc":
        raise ConfigError(f"sfsc_forward called on a {block.variant!r} block")
    _check_input(block, x)
    c, f_dim, t_dim = x.shape
    planes = _normalized_planes(block, f_dim, t_dim)
    xg = x.reshape(block.k, c // block.k, f_dim * t_dim)
    z = np.matmul(xg, planes.reshape(block.k, -1, 1)).reshape(c)
    state = AttentionState(x=x, s=None, planes=planes)
    s = _excite(block, state, [z])
    y = x * s[:, None, None]
    return (s, y, state) if return_state else (s, y)


def mfsc_forward(block: AttentionBlock, x: np.ndarray, return_state: bool = False):
    """Squeeze every channel by all k frequency components, aggregate, excite."""
    if block.variant != "mfsc":
        raise ConfigError(f"mfsc_forward called on a {block.variant!r} block")
    _check_input(block, x)
    c, f_dim, t_dim = x.shape
    planes = _normalized_planes(block, f_dim, t_dim)
    z_full = planes.reshape(len(planes), -1) @ x.reshape(c, -1).T     # (k, C)
    state = AttentionState(x=x, s=None, planes=planes)
    if block.aggregation == "avg":
        zs = [z_full.mean(axis=0)]
    elif block.aggregation == "max":
        state.argmax = np.argmax(z_full, axis=0)     # ties go to the lowest component
        zs = [z_full[state.argmax, np.arange(c)]]
    else:  # avg_max: both vectors share the bottleneck, summed before the sigmoid
        state.argmax = np.argmax(z_full, axis=0)
        zs = [z_full.mean(axis=0), z_full[state.argmax, np.arange(c)]]
    s = _excite(block, state, zs)
    y = x * s[:, None, None]
    return (s, y, state) if return_state else (s, y)


def forward(block: AttentionBlock, x: np.ndarray, return_state: bool = False):
    """Dispatch on the block's variant."""
    fn = {"se": se_forward, "sfsc": sfsc_forward, "mfsc": mfsc_forward}[block.variant]
    return fn(block, x, return_state)


def attention_backward(block: AttentionBlock, state: AttentionState, dy: np.ndarray):
    """Exact gradients (dx, dw1, dw2) for any variant from its forward state.

    The DCT planes are constants, so the squeeze transpose only routes dz
    back through them; for max aggregation the gradient goes to the winning
    component recorded in the state.
    """
    x, s = state.x, state.s
    if dy.shape != x.shape:
        raise DimensionError(
            f"attention_backward: dy shape {dy.shape} does not match cached input {x.shape}")
    c, f_dim, t_dim = x.shape

    dx = dy * s[:, None, None]
    ds = np.einsum("cft,cft->c", dy, x)
    du = ds * s * (1.0 - s)

    dw1 = np.zeros_like(block.w1.value)
    dw2 = np.zeros_like(block.w2.value)
    dzs = []
    for z, a, h in zip(state.zs, state.pre, state.hid):
        dw2 += np.outer(du, h)
        dh = block.w2.value.T @ du
        da = dh * (a > 0.0)
        dw1 += np.outer(da, z)
        dzs.append(block.w1.value.T @ da)

    if block.variant == "se":
        dx += dzs[0][:, None, None] / (f_dim * t_dim)
    elif block.variant == "sfsc":
        dzg = dzs[0].reshape(block.k, c // block.k)
        dx += np.einsum("kg,kij->kgij", dzg, state.planes).reshape(x.shape)
    else:
        dz_stack = np.zeros((state.planes.shape[0], c))
        if block.aggregation == "avg":
            dz_stack += dzs[0][None, :] / state.planes.shape[0]
        elif block.aggregation == "max":
            dz_stack[state.argmax, np.arange(c)] += dzs[0]
        else:
            dz_stack += dzs[0][None, :] / state.planes.shape[0]
            dz_stack[state.argmax, np.arange(c)] += dzs[1]
        dx += (dz_stack.T @ state.planes.reshape(len(dz_stack), -1)).reshape(x.shape)

    return dx, dw1, dw2
