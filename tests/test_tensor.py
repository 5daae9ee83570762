import itertools

import numpy as np
import pytest
from gradcheck import grad_check

from freqattn import speakernet as sn
from freqattn import tensor as tz
from freqattn.errors import DimensionError


def conv2d_naive(x, w, stride, pad):
    """Independent triple-loop cross-correlation oracle."""
    c_in, f, t = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    fo = (f + 2 * pad - kh) // stride + 1
    to = (t + 2 * pad - kw) // stride + 1
    y = np.zeros((c_out, fo, to))
    for co in range(c_out):
        for i in range(fo):
            for j in range(to):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                y[co, i, j] = np.sum(patch * w[co])
    return y


def conv2d_backward_naive(x, w, dy, stride, pad):
    """Loop oracle for both conv2d gradients, in unpadded coordinates:
    dx[c, i*s+u-p, j*s+v-p] += w[o,c,u,v] * dy[o,i,j], and the matching dw."""
    c_out, c_in, kh, kw = w.shape
    _, f, t = x.shape
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    for o, c, u, v, i, j in itertools.product(range(c_out), range(c_in), range(kh),
                                              range(kw), range(dy.shape[1]),
                                              range(dy.shape[2])):
        r, q = i * stride + u - pad, j * stride + v - pad
        if 0 <= r < f and 0 <= q < t:
            dx[c, r, q] += w[o, c, u, v] * dy[o, i, j]
            dw[o, c, u, v] += x[c, r, q] * dy[o, i, j]
    return dx, dw


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 7))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        assert np.allclose(tz.conv2d(x, w), x)

    def test_sum_kernel(self):
        x = tz.tensor([[[1.0, 2.0], [3.0, 4.0]]])
        w = np.ones((1, 1, 2, 2))
        assert np.array_equal(tz.conv2d(x, w), [[[10.0]]])

    def test_same_shape_3x3_pad1(self):
        x = np.zeros((1, 3, 3))
        w = np.zeros((2, 1, 3, 3))
        assert tz.conv2d(x, w, stride=1, pad=1).shape == (2, 3, 3)

    def test_shape_formula_sweep(self):
        rng = np.random.default_rng(1)
        for f in (3, 4, 7):
            for t in (3, 5, 8):
                for kh in (1, 2, 3):
                    for kw in (1, 3):
                        for stride in (1, 2, 3):
                            for pad in (0, 1, 2):
                                if f + 2 * pad < kh or t + 2 * pad < kw:
                                    continue
                                x = rng.standard_normal((2, f, t))
                                w = rng.standard_normal((3, 2, kh, kw))
                                y = tz.conv2d(x, w, stride, pad)
                                fo = (f + 2 * pad - kh) // stride + 1
                                to = (t + 2 * pad - kw) // stride + 1
                                assert y.shape == (3, fo, to)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for stride, pad in [(1, 0), (2, 1), (3, 2)]:
            x = rng.standard_normal((2, 6, 7))
            w = rng.standard_normal((4, 2, 3, 3))
            assert np.allclose(tz.conv2d(x, w, stride, pad),
                               conv2d_naive(x, w, stride, pad), atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_sweep_matches_naive_oracles(self, stride):
        # every valid F, T in 1..7, kh, kw in 1..4, pad in 0..3: covers pad >=
        # kernel, stride > kernel (input cells no tap reads, whose dx must be
        # exactly 0) and 1x1 outputs
        rng = np.random.default_rng(10 + stride)
        for f, t, kh, kw, pad in itertools.product(range(1, 8), range(1, 8), range(1, 5),
                                                   range(1, 5), range(4)):
            if f + 2 * pad < kh or t + 2 * pad < kw:
                continue
            x = rng.standard_normal((2, f, t))
            w = rng.standard_normal((1, 2, kh, kw))
            y = tz.conv2d(x, w, stride, pad)
            np.testing.assert_allclose(y, conv2d_naive(x, w, stride, pad), rtol=0,
                                       atol=1e-12)
            dy = rng.standard_normal(y.shape)
            dx, dw = tz.conv2d_backward(x, w, dy, stride, pad)
            dx_ref, dw_ref = conv2d_backward_naive(x, w, dy, stride, pad)
            np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-12)
            assert np.array_equal(dx == 0.0, dx_ref == 0.0)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError, match="kernel"):
            tz.conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 4, 4)), pad=0)


class TestConvBuildsNoPaddedCopy:
    def test_network_step_never_pads_or_windows(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("conv2d must read the unpadded map in place")
        monkeypatch.setattr(np, "pad", forbidden)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", forbidden)
        net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 64, 200))
        emb, cache = sn.forward_train(net, x)
        dx = sn.backward(net, cache, np.ones_like(emb))
        assert dx.shape == x.shape
        assert np.all(np.isfinite(emb)) and np.all(np.isfinite(dx))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert tz.sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_saturation_is_finite(self):
        s = tz.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[1] == 1.0

    def test_relu_values(self):
        assert tz.relu(np.array(-3.5)) == 0.0
        assert tz.relu(np.array(2.0)) == 2.0

    def test_relu_grad_zero_at_kink(self):
        assert tz.relu_backward(np.array(0.0), np.array(5.0)) == 0.0


class TestGradCheck:
    def test_sigmoid_analytic(self):
        def f(x):
            s = tz.sigmoid(x)
            return s, lambda dy: tz.sigmoid_backward(s, dy)
        rep = grad_check(f, np.array([0.3]))
        assert rep.passed, rep

    def test_relu_away_from_kink(self):
        def f(x):
            return tz.relu(x), lambda dy: tz.relu_backward(x, dy)
        rep = grad_check(f, np.array([1.0]))
        assert rep.passed, rep

    @pytest.mark.parametrize("seed", range(10))
    def test_core_ops_random_seeds(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((2, 3, 2, 2))

        def f_conv_x(x):
            return tz.conv2d(x, w, 2, 1), lambda dy: tz.conv2d_backward(x, w, dy, 2, 1)[0]
        assert grad_check(f_conv_x, rng.standard_normal((3, 5, 6)), rng=rng).passed

        x_fixed = rng.standard_normal((3, 5, 6))

        def f_conv_w(wv):
            return tz.conv2d(x_fixed, wv, 2, 1), \
                lambda dy: tz.conv2d_backward(x_fixed, wv, dy, 2, 1)[1]
        assert grad_check(f_conv_w, rng.standard_normal((2, 3, 2, 2)), rng=rng).passed

        def f_sig(x):
            s = tz.sigmoid(x)
            return s, lambda dy: tz.sigmoid_backward(s, dy)
        assert grad_check(f_sig, rng.standard_normal((3, 3)), rng=rng).passed

        # keep relu probe points off the kink
        pts = rng.standard_normal((4, 4))
        pts = np.where(np.abs(pts) < 1e-3, 0.5, pts)

        def f_relu(x):
            return tz.relu(x), lambda dy: tz.relu_backward(x, dy)
        assert grad_check(f_relu, pts, rng=rng).passed

    def test_parameter_shape_invariant(self):
        p = tz.Parameter(np.zeros((2, 3)), "w")
        assert p.value.shape == p.grad.shape
