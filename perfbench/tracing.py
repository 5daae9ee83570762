"""Per-layer tracing from outside the program.

Each traced function is replaced, where its caller looks it up, by a
wrapper that records a span: calls, total time and self time (the span
minus the spans of traced functions it called). Optional hooks count the
floating-point work of a call from its argument shapes, or whether a call
repeats arguments already seen in the run. ``restore`` puts every original
back.
"""

from __future__ import annotations

import time


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def call_key(*args, **kwargs):
    """Hashable form of a call's arguments (ints, strings, nested sequences)."""
    return _freeze(args), tuple(sorted(kwargs.items()))


def conv2d_flop(x, w, stride=1, pad=0):
    """One multiply-add counts 2: 2 * C_out * C_in * kh * kw * F' * T'."""
    c_out, c_in, kh, kw = w.shape
    fo = (x.shape[1] + 2 * pad - kh) // stride + 1
    to = (x.shape[2] + 2 * pad - kw) // stride + 1
    return 2 * c_out * c_in * kh * kw * fo * to


def conv2d_backward_flop(x, w, dy, stride=1, pad=0):
    """The kernel gradient and the input gradient are one forward GEMM each."""
    c_out, c_in, kh, kw = w.shape
    return 4 * c_out * c_in * kh * kw * dy.shape[1] * dy.shape[2]


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "flop", "repeats", "seen")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.flop = 0
        self.repeats = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []            # child-time accumulators of the open spans
        self._patches = []

    def wrap(self, owner, attr, name, flop=None, key=None):
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``."""
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.total_s += span
                stat.self_s += span - children[0]
                if flop is not None:
                    stat.flop += flop(*args, **kwargs)
                if key is not None:
                    k = key(*args, **kwargs)
                    if k in stat.seen:
                        stat.repeats += 1
                    else:
                        stat.seen.add(k)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True if each attribute is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    def summary(self) -> dict:
        return {name: {"calls": s.calls, "total_ms": s.total_s * 1e3,
                       "self_ms": s.self_s * 1e3, "flop": s.flop,
                       "repeat_share": s.repeats / s.calls if s.calls else 0.0}
                for name, s in self.stats.items()}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each freqattn layer where callers find them.

    ``speakernet`` imports the tensor kernels and ``crop`` by name, so those
    are patched in ``freqattn.speakernet``; everything else is reached
    through its module attribute.
    """
    from freqattn import attention, cli, dct
    from freqattn import features as feats
    from freqattn import metrics as mt
    from freqattn import speakernet as sn

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(sn, "conv2d", "tensor.conv2d", flop=conv2d_flop)
    tracer.wrap(sn, "conv2d_backward", "tensor.conv2d_backward", flop=conv2d_backward_flop)
    tracer.wrap(sn, "relu", "tensor.relu")
    tracer.wrap(sn, "relu_backward", "tensor.relu_backward")
    tracer.wrap(sn, "crop", "features.crop")
    tracer.wrap(attention, "forward", "attention.forward")
    tracer.wrap(attention, "attention_backward", "attention.attention_backward")
    tracer.wrap(dct, "select_frequency_indices", "dct.select_frequency_indices", key=call_key)
    tracer.wrap(dct, "dct_basis", "dct.dct_basis", key=call_key)
    for fn in ("forward_train", "backward", "forward_embed", "aam_loss",
               "load_checkpoint", "save_checkpoint"):
        tracer.wrap(sn, fn, f"speakernet.{fn}")
    tracer.wrap(sn.Adam, "step", "speakernet.Adam.step")
    tracer.wrap(feats, "read_feat", "features.read_feat")
    tracer.wrap(mt, "cosine_score", "metrics.cosine_score")
    tracer.wrap(mt, "evaluate_trials", "metrics.evaluate_trials")
