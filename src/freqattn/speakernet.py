"""Tiny convolutional speaker-embedding network and its training loop.

Architecture: a stack of strided 3x3 conv stages (bias-free), each followed
by ReLU and a channel-attention block, then frequency-collapsed mean+std
statistics pooling over time and a bias-free linear projection to the
embedding. Backward passes are explicit and run in reverse layer order.
Training views the parameters in two flat vectors fixed for the run and
splits each mini-batch over the CPUs it may use; its result is the same,
bit for bit, at any CPU count, and fully determined by the seed.
Checkpoints are written and read with the array-record codec in `features`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import attention, shares
from .errors import (ConfigError, DimensionError, FormatError, FreqattnError, NumericError,
                     naming)
from .features import Reader, crop, pack_array, pack_text, pack_u32, spec_mask
from .tensor import (Parameter, conv2d, conv2d_backward, conv2d_output_shape, relu,
                     relu_backward)

CKPT_MAGIC = b"FAMC"
CKPT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# 0.8 GB per float64 copy, and training keeps four (values, gradients, Adam's m
# and v); the default network has about 33 thousand
MAX_PARAMETERS = 100_000_000


@dataclass
class NetworkConfig:
    in_channels: int = 1
    stages: Tuple[Tuple[int, int, int], ...] = ((16, 3, 2), (32, 3, 2), (64, 3, 2))
    embedding_dim: int = 64
    num_speakers: int = 0
    attention_variant: str = "se"
    attention_k: Tuple[int, ...] = (4, 8, 16)
    aggregation: str = "avg"
    reduction: int = 8

    def __post_init__(self):
        if self.in_channels < 1 or self.embedding_dim < 1:
            raise ConfigError(f"in_channels and embedding_dim must be >= 1, got "
                              f"{self.in_channels} and {self.embedding_dim}")
        if self.num_speakers < 0:       # 0: taken from the training list
            raise ConfigError(f"num_speakers must be >= 0, got {self.num_speakers}")
        if len(self.attention_k) != len(self.stages):
            raise ConfigError(
                f"attention_k has {len(self.attention_k)} entries for "
                f"{len(self.stages)} stages")
        c_in, count = self.in_channels, 0
        for i, ((c_out, kernel, stride), k) in enumerate(zip(self.stages, self.attention_k)):
            if min(c_out, kernel, stride) < 1:
                raise ConfigError(f"stages[{i}] = {c_out}:{kernel}:{stride}: channels, "
                                  f"kernel and stride must be >= 1")
            attention.check_block(self.attention_variant, c_out, self.reduction, k,
                                  self.aggregation)
            count += c_out * c_in * kernel * kernel + 2 * c_out * (c_out // self.reduction)
            c_in = c_out
        count += self.embedding_dim * (2 * c_in + self.num_speakers)   # projection, AAM head
        if count > MAX_PARAMETERS:
            raise ConfigError(f"the network has {count} parameters, above the limit "
                              f"of {MAX_PARAMETERS}")


@dataclass
class _Stage:
    conv: Parameter
    stride: int
    pad: int
    block: attention.AttentionBlock


class SpeakerNet:
    """Conv stages with per-stage attention, statistics pooling, projection."""

    def __init__(self, cfg: NetworkConfig, rng):
        self.cfg = cfg
        self.stages: List[_Stage] = []
        c_in = cfg.in_channels
        for i, (c_out, kernel, stride) in enumerate(cfg.stages):
            a = 1.0 / np.sqrt(c_in * kernel * kernel)
            conv = Parameter(rng.uniform(-a, a, (c_out, c_in, kernel, kernel)),
                             f"stage{i}.conv.w")
            block = attention.AttentionBlock(cfg.attention_variant, c_out, cfg.reduction,
                                             cfg.attention_k[i], cfg.aggregation, rng)
            block.w1.name = f"stage{i}.attn.w1"
            block.w2.name = f"stage{i}.attn.w2"
            self.stages.append(_Stage(conv, stride, kernel // 2, block))
            c_in = c_out
        a = 1.0 / np.sqrt(2 * c_in)
        self.proj = Parameter(rng.uniform(-a, a, (cfg.embedding_dim, 2 * c_in)),
                              "proj.w")

    def parameters(self) -> List[Parameter]:
        out = []
        for st in self.stages:
            out += [st.conv, *st.block.parameters()]
        out.append(self.proj)
        return out


def num_parameters(net: SpeakerNet) -> int:
    return sum(p.size for p in net.parameters())


@dataclass
class _ForwardCache:
    stage_inputs: list = field(default_factory=list)
    stage_attn: list = field(default_factory=list)      # AttentionState; x is post-ReLU
    diff: np.ndarray = None                             # (C, T') freq means minus mu
    pooled: np.ndarray = None                           # [mu, sd]


_STD_EPS = 1e-12


def _forward(net: SpeakerNet, x: np.ndarray, cache: Optional[_ForwardCache]):
    if x.ndim != 3 or x.shape[0] != net.cfg.in_channels:
        raise DimensionError(
            f"forward_embed: expected {net.cfg.in_channels} x F x T input, "
            f"got shape {x.shape}")
    h = x
    for st in net.stages:
        act = relu(conv2d(h, st.conv.value, st.stride, st.pad))
        _, y, state = attention.forward(st.block, act)
        if cache is not None:
            cache.stage_inputs.append(h)
            cache.stage_attn.append(state)
        h = y
    fmean = h.mean(axis=1)                    # collapse frequency -> (C, T')
    mu = fmean.mean(axis=1)
    diff = fmean - mu[:, None]
    sd = np.sqrt((diff ** 2).mean(axis=1) + _STD_EPS)
    pooled = np.concatenate([mu, sd])
    emb = net.proj.value @ pooled
    if cache is not None:
        cache.diff, cache.pooled = diff, pooled
    return emb


def forward_embed(net: SpeakerNet, features: np.ndarray) -> np.ndarray:
    """Pure inference path: features (in_channels, F, T) -> embedding."""
    return _forward(net, features, None)


def min_frames(cfg: NetworkConfig, n_mels: int) -> int:
    """Fewest input frames that every attention variant of this network embeds.

    sfsc and mfsc read the attention_k[i] lowest DCT planes of stage i's
    F x T map, so that map needs F * T >= attention_k[i]. se reads only the
    mean, but is held to the same length, so which utterances a network
    accepts does not depend on its variant. Walks the stages backwards from
    the frames each one must output to the frames it must be given.
    """
    f_outs = []
    f_dim = n_mels
    for _, kernel, stride in cfg.stages:
        f_dim = conv2d_output_shape(f_dim, 1, kernel, 1, stride, kernel // 2)[0]
        f_outs.append(f_dim)
    frames = 1
    for (_, kernel, stride), f_out, k in zip(reversed(cfg.stages), reversed(f_outs),
                                             reversed(cfg.attention_k)):
        frames = max(frames, -(-k // f_out))
        frames = max(1, (frames - 1) * stride + kernel - 2 * (kernel // 2))
    return frames


def forward_train(net: SpeakerNet, features: np.ndarray):
    cache = _ForwardCache()
    emb = _forward(net, features, cache)
    return emb, cache


def backward(net: SpeakerNet, cache: _ForwardCache, d_emb: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients; return the input gradient."""
    net.proj.grad += np.outer(d_emb, cache.pooled)
    d_pooled = net.proj.value.T @ d_emb
    c, t_len = cache.diff.shape
    dmu, dsd = d_pooled[:c], d_pooled[c:]
    # sd = sqrt(mean(diff^2) + eps):  d diff = diff * dsd / (sd * T')
    ddiff = cache.diff * (dsd / cache.pooled[c:])[:, None] / t_len
    dfmean = ddiff - ddiff.mean(axis=1, keepdims=True) + dmu[:, None] / t_len
    last_shape = cache.stage_attn[-1].x.shape     # the last block keeps its input shape
    dh = np.broadcast_to(dfmean[:, None, :] / last_shape[1], last_shape).copy()
    for st, x_in, state in zip(reversed(net.stages), reversed(cache.stage_inputs),
                               reversed(cache.stage_attn)):
        d_act, dw1, dw2 = attention.attention_backward(st.block, state, dh)
        st.block.w1.grad += dw1
        st.block.w2.grad += dw2
        # relu(pre) > 0 exactly where pre > 0, so the post-ReLU input gives the mask
        d_pre = relu_backward(state.x, d_act)
        dh, dw = conv2d_backward(x_in, st.conv.value, d_pre, st.stride, st.pad)
        st.conv.grad += dw
    return dh


# ---------------------------------------------------------------------------
# additive-angular-margin softmax head
# ---------------------------------------------------------------------------

class AamHead:
    """Margin-penalized cosine classifier over speaker classes."""

    def __init__(self, num_speakers: int, embedding_dim: int, margin: float,
                 scale: float, rng):
        if num_speakers < 2:
            raise ConfigError("AamHead needs at least 2 classes")
        a = 1.0 / np.sqrt(embedding_dim)
        self.weight = Parameter(rng.uniform(-a, a, (num_speakers, embedding_dim)),
                                "aam.w")
        self.margin = float(margin)
        self.scale = float(scale)

    def parameters(self):
        return [self.weight]


@dataclass
class AamResult:
    loss: float
    logits: np.ndarray          # margin-penalized, as used by the loss
    cosines: np.ndarray         # raw cos(theta_j), used for accuracy bookkeeping
    grad_emb: np.ndarray
    grad_weight: np.ndarray


def aam_loss(head: AamHead, emb: np.ndarray, label: int) -> AamResult:
    """Cross-entropy over scaled cosines with the target angle shifted by m.

    Target logit is s*cos(theta_y + m), others s*cos(theta_j); embedding and
    class rows are L2-normalized internally. The derivative of the shifted
    cosine w.r.t. cos(theta) is sin(theta+m)/sin(theta); sin(theta) is
    floored at 1e-8 so exactly aligned vectors stay defined.
    """
    n_cls = head.weight.value.shape[0]
    if not 0 <= label < n_cls:
        raise IndexError(f"label {label} out of range for {n_cls} classes")
    norm_e = np.linalg.norm(emb)
    if norm_e == 0.0 or not np.isfinite(norm_e):
        raise NumericError("aam_loss: embedding has zero or non-finite norm")
    e_hat = emb / norm_e
    w = head.weight.value
    w_norms = np.linalg.norm(w, axis=1)
    if np.any(w_norms == 0.0):
        raise NumericError("aam_loss: zero-norm class weight row")
    w_hat = w / w_norms[:, None]

    cos = w_hat @ e_hat
    cy = min(1.0, max(-1.0, float(cos[label])))
    theta = np.arccos(cy)
    phi = np.cos(theta + head.margin)
    logits = head.scale * cos
    logits[label] = head.scale * phi

    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    loss = float(np.log(exp.sum()) - shifted[label])

    d_logits = probs.copy()
    d_logits[label] -= 1.0
    d_cos = head.scale * d_logits
    d_cos[label] *= np.sin(theta + head.margin) / max(np.sin(theta), 1e-8)

    d_e_hat = w_hat.T @ d_cos
    grad_emb = (d_e_hat - np.dot(d_e_hat, e_hat) * e_hat) / norm_e
    d_w_hat = np.outer(d_cos, e_hat)
    row_proj = np.sum(d_w_hat * w_hat, axis=1, keepdims=True)
    grad_weight = (d_w_hat - row_proj * w_hat) / w_norms[:, None]
    return AamResult(loss=loss, logits=logits, cosines=cos, grad_emb=grad_emb,
                     grad_weight=grad_weight)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction, stepping the array `weights` in place
    by the array `grad` of the same shape."""

    def __init__(self, weights, grad, lr: float):
        self.weights, self.grad = weights, grad
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(weights)
        self.v = np.zeros_like(weights)

    def step(self) -> None:
        self.t += 1
        g = self.grad
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        self.weights -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainOptions:
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 8
    augment: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, got "
                              f"{self.epochs} and {self.batch_size}")
        if not self.lr >= 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")


@dataclass
class EpochMetrics:
    mean_loss: float
    accuracy: float


class _SharedBatch:
    """The weights, one gradient slot per batch row and the batch's crops, in one
    `shares.shared_zeros` block made before the workers fork, and `grad`, the
    gradient this process adds an example's terms into.

    Each parameter's value becomes a view into the weights, so Adam's in-place
    update is what every worker reads next, and its gradient a view into
    `grad`, a plain array of which each forked worker has its own copy. Both
    are fixed for the run; each view starts on a 64-byte boundary.
    """

    def __init__(self, params, rows: int, crop_shape):
        offsets, width = [], 0
        for p in params:
            offsets.append(width)
            width += -(-p.size // 8) * 8
        block = shares.shared_zeros(width * (1 + rows) + rows * crop_shape[0] * crop_shape[1])
        self.weights = block[:width]
        self.slots = block[width:width * (1 + rows)].reshape(rows, width)
        self.crops = block[width * (1 + rows):].reshape(rows, *crop_shape)
        spare = np.zeros(width + 8)
        start = -spare.ctypes.data % 64 // 8
        self.grad = spare[start:start + width]
        for p, o in zip(params, offsets):
            value = self.weights[o:o + p.size].reshape(p.value.shape)
            value[...] = p.value
            p.value = value
            p.grad = self.grad[o:o + p.size].reshape(value.shape)

    def mean_of_slots(self, count: int) -> None:
        """Slot 0 becomes the mean of the first `count` slots, added in slot
        order, as one process adds its examples' terms."""
        mean = self.slots[0]
        for g in self.slots[1:count]:
            mean += g
        mean *= 1.0 / count


def train(net: SpeakerNet, head: AamHead, examples, opts: TrainOptions, frames: int,
          rng, log=None) -> List[EpochMetrics]:
    """Run the configured number of epochs; rng drives shuffles, crops and masks.

    `examples` holds (label, features, name) triples; each is trained on
    crops `frames` frames long. Each shuffled mini-batch takes one Adam step
    on the mean of its examples' gradients.
    Its examples are split over the CPUs (`shares.Workers`, forked once,
    here), each into its own gradient slot of a `_SharedBatch`; this process
    draws every crop and mask and adds the slots, losses and hits in example
    order, so the result is bitwise that of one process. An error that an
    example's forward pass or loss raises has the example's name in front and
    the epoch and batch behind.
    """
    if not examples:
        raise ConfigError("train: empty dataset")
    rows = min(opts.batch_size, len(examples))      # the most examples a batch holds
    shared = _SharedBatch(net.parameters() + head.parameters(), rows,
                          (examples[0][1].shape[0], frames))
    optimizer = Adam(shared.weights, shared.slots[0], opts.lr)

    def example_step(task):
        """(loss, hit) of example j, its gradient in slot `slot`; runs in the
        process whose share holds the slot."""
        slot, j = task
        label, _, name = examples[j]
        shared.grad[...] = 0.0
        with naming(name):
            emb, cache = forward_train(net, shared.crops[slot][None])
            res = aam_loss(head, emb, label)
            if not np.isfinite(res.loss):
                raise NumericError(f"non-finite loss at example index {j}")
        backward(net, cache, res.grad_emb)
        head.weight.grad += res.grad_weight
        shared.slots[slot] = shared.grad
        return res.loss, int(np.argmax(res.cosines) == label)

    history = []
    with shares.Workers(example_step, rows) as workers:
        for epoch in range(1, opts.epochs + 1):
            order = rng.permutation(len(examples)).tolist()
            total_loss = 0.0
            correct = 0
            for number, start in enumerate(range(0, len(order), opts.batch_size), 1):
                batch = order[start:start + opts.batch_size]
                for slot, j in enumerate(batch):
                    x = crop(examples[j][1], frames, rng)
                    shared.crops[slot] = spec_mask(x, rng) if opts.augment else x
                try:
                    outcomes = workers.map(list(enumerate(batch)))
                except FreqattnError as exc:
                    raise type(exc)(f"{exc} (epoch {epoch}, batch {number})") from None
                for loss, hit in outcomes:
                    total_loss += loss
                    correct += hit
                shared.mean_of_slots(len(batch))
                optimizer.step()
            n = len(examples)
            metrics = EpochMetrics(mean_loss=total_loss / n, accuracy=correct / n)
            history.append(metrics)
            if log is not None:
                log(f"epoch={epoch} loss={metrics.mean_loss:.6f} acc={metrics.accuracy:.4f}")
    return history


# ---------------------------------------------------------------------------
# checkpoint file: magic, u32 version, the config text, then per parameter its
# name and its array, all in features' array-record layout
# ---------------------------------------------------------------------------

def save_checkpoint(path, config_text: str, params) -> None:
    blob = bytearray(CKPT_MAGIC)
    pack_u32(blob, CKPT_VERSION)
    pack_text(blob, config_text)
    for p in params:
        pack_text(blob, p.name)
        pack_array(blob, p.value)
    Path(path).write_bytes(blob)


def load_checkpoint(path):
    """(config_text, ordered list of (name, array)); a damaged file raises the
    `Reader`'s FormatError or NumericError with the path in front."""
    with naming(path):
        record = Reader(Path(path).read_bytes())
        record.header(CKPT_MAGIC, CKPT_VERSION, "checkpoint")
        config_text = record.text("config text")
        entries = []
        while record.left:
            name = record.text("parameter name")
            entries.append((name, record.array(name)))
    return config_text, entries


def restore_parameters(params, entries) -> None:
    """Fill parameters in declaration order, verifying names and shapes."""
    if len(params) != len(entries):
        raise FormatError(
            f"checkpoint has {len(entries)} parameters, model has {len(params)}")
    for p, (name, values) in zip(params, entries):
        if p.name != name:
            raise FormatError(f"checkpoint parameter {name!r} where {p.name!r} expected")
        if p.value.shape != values.shape:
            raise FormatError(
                f"checkpoint parameter {name}: shape {values.shape}, "
                f"expected {p.value.shape}")
        p.value = values.copy()
