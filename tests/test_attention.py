import gc
import tracemalloc

import numpy as np
import pytest
from gradcheck import grad_check
from hypothesis import given, settings, strategies as st
from test_dct import plane_naive

from freqattn import attention as attn
from freqattn import dct
from freqattn import tensor as tz
from freqattn.errors import ConfigError, DimensionError


def make_block(variant, channels=8, reduction=4, seed=0, k=None, aggregation="avg"):
    return attn.AttentionBlock(variant, channels, reduction, k, aggregation,
                               np.random.default_rng(seed))


def copy_weights(src, dst):
    dst.w1.value = src.w1.value.copy()
    dst.w2.value = src.w2.value.copy()


def squeeze_naive(x, planes_idx, f_dim, t_dim):
    """Loop oracle: reduce each channel by one cosine plane / (F*T)."""
    out = np.zeros(x.shape[0])
    for c, (f, t) in enumerate(planes_idx):
        acc = 0.0
        for i in range(f_dim):
            for j in range(t_dim):
                acc += (np.cos(np.pi * f / f_dim * (i + 0.5)) *
                        np.cos(np.pi * t / t_dim * (j + 0.5)) / (f_dim * t_dim) *
                        x[c, i, j])
        out[c] = acc
    return out


class TestSeForward:
    def test_zero_weights_give_half(self):
        block = make_block("se", channels=4, reduction=2)
        block.w1.value[...] = 0.0
        block.w2.value[...] = 0.0
        x = np.random.default_rng(0).standard_normal((4, 3, 5))
        s, y, _ = attn.forward(block, x)
        assert np.allclose(s, 0.5)
        assert np.allclose(y, 0.5 * x)

    def test_identity_weights_hand_value(self):
        block = make_block("se", channels=2, reduction=1)
        block.w1.value = np.eye(2)
        block.w2.value = np.eye(2)
        x = np.ones((2, 3, 4))
        s, y, _ = attn.forward(block, x)
        assert np.allclose(s, 0.7310585786300049, atol=1e-12)  # sigmoid(1)
        assert np.allclose(y, 0.7310585786300049)

    def test_descriptor_is_dct_gap(self):
        # the se squeeze is the GAP that criterion 1 proves is SP[0, 0] / (F*T)
        block = make_block("se", channels=16, reduction=8)
        x = np.maximum(np.random.default_rng(6).standard_normal((16, 32, 100)), 0.0)
        _, _, state = attn.forward(block, x)
        assert state.zs[0].tobytes() == dct.gap(x).tobytes()

    def test_channel_mismatch(self):
        block = make_block("se", channels=4)
        with pytest.raises(DimensionError):
            attn.forward(block, np.zeros((3, 2, 2)))


class TestSfscForward:
    def test_all_lowest_indices_reduce_to_se(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            se = make_block("se", channels=8, reduction=4, seed=7)
            sf = make_block("sfsc", channels=8, reduction=4, k=1)
            copy_weights(se, sf)
            x = rng.standard_normal((8, 4, 6))
            s_se, y_se, _ = attn.forward(se, x)
            s_sf, y_sf, _ = attn.forward(sf, x)
            assert np.max(np.abs(s_se - s_sf)) < 1e-12
            assert np.max(np.abs(y_se - y_sf)) < 1e-12

    def test_descriptor_matches_loop_oracle(self):
        # frozen from the loop oracle: gap of [[1,2],[3,4]] and the (0,1)
        # reduction of [[1,-1],[1,-1]] on a 2x2 grid
        block = make_block("sfsc", channels=2, reduction=1, k=2)   # (0, 0), (0, 1)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]],
                      [[1.0, -1.0], [1.0, -1.0]]])
        _, _, state = attn.forward(block, x)
        assert np.allclose(state.zs[0], [2.5, 0.7071067811865476], atol=1e-12)
        assert np.allclose(state.zs[0],
                           squeeze_naive(x, [(0, 0), (0, 1)], 2, 2), atol=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            make_block("sfsc", channels=16, k=3)

    def test_group_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        block = make_block("sfsc", channels=6, reduction=2, k=2, seed=3)
        perm = np.array([2, 0, 1, 3, 5, 4])  # permutes within each group of 3
        other = make_block("sfsc", channels=6, reduction=2, k=2, seed=3)
        other.w1.value = block.w1.value[:, perm]
        other.w2.value = block.w2.value[perm, :]
        x = rng.standard_normal((6, 4, 4))
        s, y, _ = attn.forward(block, x)
        s2, y2, _ = attn.forward(other, x[perm])
        assert np.allclose(s2, s[perm], atol=1e-12)
        assert np.allclose(y2, y[perm], atol=1e-12)


class TestMfscForward:
    def test_k1_avg_reduces_to_se(self):
        rng = np.random.default_rng(3)
        se = make_block("se", channels=8, reduction=4, seed=11)
        mf = make_block("mfsc", channels=8, reduction=4, k=1, aggregation="avg")
        copy_weights(se, mf)
        x = rng.standard_normal((8, 4, 6))
        s_se, _, _ = attn.forward(se, x)
        s_mf, _, _ = attn.forward(mf, x)
        assert np.max(np.abs(s_se - s_mf)) < 1e-12

    def test_k1_avg_max_doubles_preactivation(self):
        rng = np.random.default_rng(4)
        block = make_block("mfsc", channels=8, reduction=4, k=1, aggregation="avg_max",
                           seed=5)
        x = rng.standard_normal((8, 4, 6))
        s, _, _ = attn.forward(block, x)
        z = dct.gap(x)
        expected = tz.sigmoid(2.0 * (block.w2.value @ tz.relu(block.w1.value @ z)))
        assert np.allclose(s, expected, atol=1e-12)

    def test_max_on_constant_channels(self):
        consts = np.array([2.0, -1.5, 0.5])
        x = np.broadcast_to(consts[:, None, None], (3, 4, 4)).copy()
        block = make_block("mfsc", channels=3, reduction=1, k=3,   # (0, 0), (0, 1), (1, 0)
                           aggregation="max")
        _, _, state = attn.forward(block, x)
        # non-constant planes reduce a constant channel to 0, so max(z, 0)
        assert np.allclose(state.zs[0], np.maximum(consts, 0.0), atol=1e-12)

    def test_empty_indices_rejected(self):
        with pytest.raises(ConfigError):
            make_block("mfsc", k=0)
        with pytest.raises(ConfigError):
            make_block("mfsc", k=None)

    def test_unknown_aggregation(self):
        with pytest.raises(ConfigError):
            make_block("mfsc", k=2, aggregation="median")

    def test_k_exceeding_grid_capacity_fails_loudly(self):
        from freqattn.errors import CapacityError
        block = make_block("mfsc", k=16, aggregation="avg")
        with pytest.raises(CapacityError):
            attn.forward(block, np.zeros((8, 2, 3)))  # 6 cells < k=16


class TestBackward:
    def test_zero_cotangent_gives_zero_grads(self):
        block = make_block("mfsc", k=4, aggregation="avg_max")
        x = np.random.default_rng(5).standard_normal((8, 4, 6))
        _, _, state = attn.forward(block, x)
        dx, dw1, dw2 = attn.attention_backward(block, state, np.zeros_like(x))
        assert not dx.any() and not dw1.any() and not dw2.any()

    def test_state_shape_mismatch(self):
        block = make_block("se")
        x = np.zeros((8, 4, 6))
        _, _, state = attn.forward(block, x)
        with pytest.raises(DimensionError):
            attn.attention_backward(block, state, np.zeros((8, 4, 5)))

    @pytest.mark.parametrize("variant,kw", [
        ("se", {}),
        ("sfsc", {"k": 4}),
        ("mfsc", {"k": 4, "aggregation": "avg"}),
        ("mfsc", {"k": 4, "aggregation": "max"}),
        ("mfsc", {"k": 4, "aggregation": "avg_max"}),
    ])
    def test_grad_check_all_inputs(self, variant, kw):
        rng = np.random.default_rng(42)
        block = make_block(variant, channels=8, reduction=4, seed=9, **kw)
        x0 = rng.standard_normal((8, 4, 6))

        def f_x(x):
            _, y, state = attn.forward(block, x)
            return y, lambda dy: attn.attention_backward(block, state, dy)[0]

        def f_w1(v):
            block.w1.value = v
            _, y, state = attn.forward(block, x0)
            return y, lambda dy: attn.attention_backward(block, state, dy)[1]

        def f_w2(v):
            block.w2.value = v
            _, y, state = attn.forward(block, x0)
            return y, lambda dy: attn.attention_backward(block, state, dy)[2]

        assert grad_check(f_x, x0, rng=rng).passed
        assert grad_check(f_w1, block.w1.value.copy(), rng=rng).passed
        assert grad_check(f_w2, block.w2.value.copy(), rng=rng).passed


def parameter_count(block):
    return sum(p.size for p in block.parameters())


class TestParameterParity:
    def test_identical_counts_across_variants(self):
        counts = {
            "se": parameter_count(make_block("se", channels=16, reduction=8)),
            "sfsc": parameter_count(make_block("sfsc", channels=16, reduction=8, k=4)),
            "mfsc_avg": parameter_count(
                make_block("mfsc", channels=16, reduction=8, k=4, aggregation="avg")),
            "mfsc_max": parameter_count(
                make_block("mfsc", channels=16, reduction=8, k=4, aggregation="max")),
            "mfsc_avg_max": parameter_count(
                make_block("mfsc", channels=16, reduction=8, k=4, aggregation="avg_max")),
        }
        assert len(set(counts.values())) == 1


class TestAttentionRange:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["se", "sfsc", "mfsc"]))
    def test_s_strictly_inside_unit_interval(self, seed, variant):
        rng = np.random.default_rng(seed)
        k = None if variant == "se" else 2
        aggregation = "avg_max" if variant == "mfsc" else "avg"
        block = attn.AttentionBlock(variant, 4, 2, k, aggregation, rng)
        x = 10.0 * rng.standard_normal((4, 3, 3))
        s, _, _ = attn.forward(block, x)
        assert np.all(s > 0.0) and np.all(s < 1.0)


def attention_oracle(block, x, dy):
    """Einsum forward and backward over loop-built planes: (s, y, dx, dw1, dw2)."""
    c, f_dim, t_dim = x.shape
    w1, w2 = block.w1.value, block.w2.value
    indices = dct.select_frequency_indices(f_dim, t_dim, block.k)
    planes = np.stack([plane_naive(f_dim, t_dim, f, t) for f, t in indices]) / (f_dim * t_dim)
    k = planes.shape[0]
    cols = np.arange(c)
    if block.variant == "sfsc":
        xg = x.reshape(k, c // k, f_dim, t_dim)
        zs = [np.einsum("kij,kgij->kg", planes, xg).reshape(c)]
    else:
        z_full = np.einsum("nij,cij->nc", planes, x)
        win = np.argmax(z_full, axis=0)
        z_avg, z_max = z_full.mean(axis=0), z_full[win, cols]
        zs = {"avg": [z_avg], "max": [z_max], "avg_max": [z_avg, z_max]}[block.aggregation]
    pre = [w1 @ z for z in zs]
    hid = [np.maximum(a, 0.0) for a in pre]
    s = 1.0 / (1.0 + np.exp(-sum(w2 @ h for h in hid)))
    y = x * s[:, None, None]

    du = np.einsum("cij,cij->c", dy, x) * s * (1.0 - s)
    dw2 = sum(np.outer(du, h) for h in hid)
    das = [(w2.T @ du) * (a > 0.0) for a in pre]
    dw1 = sum(np.outer(da, z) for da, z in zip(das, zs))
    dzs = [w1.T @ da for da in das]
    dx = dy * s[:, None, None]
    if block.variant == "sfsc":
        dx += np.einsum("kg,kij->kgij", dzs[0].reshape(k, c // k), planes).reshape(x.shape)
    else:
        dz = np.zeros((k, c))
        if block.aggregation == "max":
            dz[win, cols] += dzs[0]
        else:
            dz += dzs[0][None, :] / k
        if block.aggregation == "avg_max":
            dz[win, cols] += dzs[1]
        dx += np.einsum("nc,nij->cij", dz, planes)
    return s, y, dx, dw1, dw2


def within_rel(got, want, rtol):
    """Max-abs error at most rtol times the oracle's max-abs value."""
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


PARITY_SHAPES = [((16, 32, 100), 4), ((32, 16, 50), 8), ((64, 8, 25), 16), ((16, 7, 13), 4)]


class TestOracleParity:
    @staticmethod
    def check(shape, k, variant, aggregation):
        rng = np.random.default_rng(sum(shape) + k)
        block = attn.AttentionBlock(variant, shape[0], 8, k=k, aggregation=aggregation,
                                    rng=rng)
        x = np.maximum(rng.standard_normal(shape), 0.0)   # post-ReLU, as in the net
        dy = rng.standard_normal(shape)
        s, y, state = attn.forward(block, x)
        dx, dw1, dw2 = attn.attention_backward(block, state, dy)
        for got, want in zip((s, y, dx, dw1, dw2), attention_oracle(block, x, dy)):
            assert within_rel(got, want, 1e-12)

    @pytest.mark.parametrize("shape,k", PARITY_SHAPES)
    @pytest.mark.parametrize("variant,aggregation", [
        ("sfsc", "avg"), ("mfsc", "avg"), ("mfsc", "max"), ("mfsc", "avg_max"),
    ])
    def test_forward_and_backward_match_einsum_oracle(self, shape, k, variant,
                                                      aggregation):
        self.check(shape, k, variant, aggregation)

    @pytest.mark.parametrize("shape", [shape for shape, _ in PARITY_SHAPES])
    @pytest.mark.parametrize("variant,aggregation", [("se", "avg"), ("mfsc", "avg_max")])
    def test_gap_squeeze_matches_einsum_oracle(self, shape, variant, aggregation):
        # se squeezes by dct.gap, mfsc with k = 1 by the (0, 0) plane alone
        self.check(shape, 1, variant, aggregation)


class TestSeSqueezeBuildsNoPlanes:
    def test_se_forward_and_backward_never_reach_dct(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the se squeeze must not build DCT planes")
        monkeypatch.setattr(dct, "dct_basis", forbidden)
        monkeypatch.setattr(dct, "select_frequency_indices", forbidden)
        rng = np.random.default_rng(0)
        for shape, _ in PARITY_SHAPES:
            block = attn.AttentionBlock("se", shape[0], 8, None, "avg", rng)
            x = rng.standard_normal(shape)
            _, y, state = attn.forward(block, x)
            dx, _, _ = attn.attention_backward(block, state, rng.standard_normal(shape))
            assert state.planes is None
            assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))


class TestNoRetainedPlanes:
    def test_forward_over_100_lengths_retains_no_dct_memory(self):
        rng = np.random.default_rng(0)
        block = attn.AttentionBlock("mfsc", 16, 4, k=8, aggregation="avg_max", rng=rng)
        xs = [rng.standard_normal((16, 8, t)) for t in range(10, 110)]
        attn.forward(block, rng.standard_normal((16, 8, 9)))   # numpy's one-time set-up
        only_dct = [tracemalloc.Filter(True, dct.__file__)]
        tracemalloc.start()
        try:
            for x in xs:
                attn.forward(block, x)
            gc.collect()
            retained = tracemalloc.take_snapshot().filter_traces(only_dct)
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in retained.statistics("filename")) == 0
