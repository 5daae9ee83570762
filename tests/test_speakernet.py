import numpy as np
import pytest
from gradcheck import grad_check

from freqattn import features as ft
from freqattn import speakernet as sn
from freqattn.errors import (CapacityError, ConfigError, DimensionError, FormatError,
                             NumericError)


def tiny_cfg(variant="mfsc", **kw):
    kw.setdefault("stages", ((4, 3, 2),))
    kw.setdefault("attention_k", (2,))
    kw.setdefault("embedding_dim", 5)
    kw.setdefault("reduction", 2)
    kw.setdefault("aggregation", "avg_max")
    return sn.NetworkConfig(attention_variant=variant, **kw)


def aam_head(n_cls, dim, rng):
    """A head with the run config's default margin and scale."""
    return sn.AamHead(n_cls, dim, 0.2, 30.0, rng)


def softmax_ce(logits, label):
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


class TestForwardEmbed:
    def test_zero_final_projection_gives_zero_embedding(self):
        net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(0))
        net.proj.value[...] = 0.0
        emb = sn.forward_embed(net, np.zeros((1, 64, 200)))
        assert np.array_equal(emb, np.zeros(64))

    def test_deterministic_across_runs(self):
        x = np.random.default_rng(1).standard_normal((1, 64, 200))
        embs = []
        for _ in range(2):
            net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(42))
            embs.append(sn.forward_embed(net, x.copy()))
        assert np.array_equal(embs[0], embs[1])

    def test_variable_length_same_output_shape(self):
        net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        e200 = sn.forward_embed(net, rng.standard_normal((1, 64, 200)))
        e300 = sn.forward_embed(net, rng.standard_normal((1, 64, 300)))
        assert e200.shape == e300.shape == (64,)

    def test_embedding_finite_and_nonzero_at_init(self):
        net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for _ in range(5):
            emb = sn.forward_embed(net, rng.standard_normal((1, 64, 200)))
            assert np.all(np.isfinite(emb))
            assert np.linalg.norm(emb) > 0

    def test_too_short_input_raises(self):
        net = sn.SpeakerNet(sn.NetworkConfig(), np.random.default_rng(6))
        with pytest.raises(DimensionError):
            sn.forward_embed(net, np.zeros((1, 64, 0)))

    @pytest.mark.parametrize("stages,k", [
        (((16, 3, 2), (32, 3, 2), (64, 3, 2)), (4, 8, 16)),
        (((8, 3, 2), (16, 3, 2)), (2, 4)),
        (((8, 5, 1), (8, 3, 3)), (8, 40)),
        (((8, 4, 2), (8, 1, 2), (8, 3, 2)), (64, 2, 24)),
    ])
    def test_min_frames_is_the_shortest_input_mfsc_embeds(self, stages, k):
        cfg = sn.NetworkConfig(stages=stages, attention_k=k, attention_variant="mfsc",
                               reduction=4)
        net = sn.SpeakerNet(cfg, np.random.default_rng(8))
        n = sn.min_frames(cfg, 16)
        assert sn.forward_embed(net, np.ones((1, 16, n))).shape == (64,)
        if n > 1:
            with pytest.raises(CapacityError):
                sn.forward_embed(net, np.ones((1, 16, n - 1)))

    def test_variant_swap_preserves_all_shapes(self):
        x = np.random.default_rng(7).standard_normal((1, 64, 200))
        shapes = []
        for variant, agg in [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")]:
            cfg = sn.NetworkConfig(attention_variant=variant, aggregation=agg)
            net = sn.SpeakerNet(cfg, np.random.default_rng(8))
            emb, cache = sn.forward_train(net, x)
            shapes.append((emb.shape, [state.x.shape for state in cache.stage_attn]))
        assert shapes[0] == shapes[1] == shapes[2]

    def test_parameter_count_identical_across_variants(self):
        counts = []
        for variant, agg in [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg"),
                             ("mfsc", "max"), ("mfsc", "avg_max")]:
            cfg = sn.NetworkConfig(attention_variant=variant, aggregation=agg)
            counts.append(sn.num_parameters(sn.SpeakerNet(cfg, np.random.default_rng(9))))
        assert len(set(counts)) == 1

    def test_sfsc_divisibility_checked_in_config(self):
        with pytest.raises(ConfigError, match="divisible"):
            sn.NetworkConfig(attention_variant="sfsc", stages=((16, 3, 2),),
                             attention_k=(3,))

    def test_parameter_limit_counts_every_parameter(self, monkeypatch):
        kw = dict(in_channels=2, stages=((4, 3, 2), (8, 5, 1)), attention_k=(2, 4),
                  num_speakers=3)
        cfg = tiny_cfg(**kw)
        count = (sn.num_parameters(sn.SpeakerNet(cfg, np.random.default_rng(0)))
                 + aam_head(3, cfg.embedding_dim, np.random.default_rng(0)).weight.size)
        monkeypatch.setattr(sn, "MAX_PARAMETERS", count)
        tiny_cfg(**kw)                                  # at the limit
        monkeypatch.setattr(sn, "MAX_PARAMETERS", count - 1)
        with pytest.raises(ConfigError, match=f"the network has {count} parameters, "
                                              f"above the limit of {count - 1}"):
            tiny_cfg(**kw)


class TestAamLoss:
    def make_head(self, n=4, d=8, m=0.2, s=30.0, seed=0):
        return sn.AamHead(n, d, margin=m, scale=s, rng=np.random.default_rng(seed))

    def test_zero_margin_is_cosine_softmax(self):
        head = self.make_head(m=0.0, s=1.0)
        rng = np.random.default_rng(1)
        emb = rng.standard_normal(8)
        res = sn.aam_loss(head, emb, 2)
        w = head.weight.value
        cos = (w / np.linalg.norm(w, axis=1, keepdims=True)) @ (emb / np.linalg.norm(emb))
        assert res.loss == pytest.approx(softmax_ce(cos, 2), abs=1e-12)

    def test_aligned_embedding_hand_values(self):
        head = sn.AamHead(2, 4, margin=0.2, scale=30.0, rng=np.random.default_rng(2))
        head.weight.value = np.array([[2.0, 0.0, 0.0, 0.0],
                                      [0.0, 3.0, 0.0, 0.0]])
        res = sn.aam_loss(head, np.array([0.5, 0.0, 0.0, 0.0]), 0)
        assert res.logits[0] == pytest.approx(30.0 * np.cos(0.2), abs=1e-10)
        assert res.logits[1] == pytest.approx(0.0, abs=1e-12)
        assert res.loss == pytest.approx(1.7e-13, abs=1e-13)

    def test_margin_penalizes_target(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            r = np.random.default_rng(seed)
            head0 = self.make_head(m=0.0, seed=seed)
            head1 = self.make_head(m=0.2, seed=seed)
            emb = r.standard_normal(8)
            label = int(r.integers(0, 4))
            l0 = sn.aam_loss(head0, emb, label).loss
            l1 = sn.aam_loss(head1, emb, label).loss
            assert l1 >= l0 - 1e-12

    def test_zero_embedding_rejected(self):
        with pytest.raises(NumericError):
            sn.aam_loss(self.make_head(), np.zeros(8), 0)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            sn.aam_loss(self.make_head(n=4), np.ones(8), 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_check_wrt_embedding_and_weights(self, seed):
        head = self.make_head(seed=seed)
        rng = np.random.default_rng(seed + 10)
        label = int(rng.integers(0, 4))

        def f_emb(e):
            res = sn.aam_loss(head, e, label)
            return np.array(res.loss), lambda w: w * res.grad_emb

        def f_w(v):
            head.weight.value = v
            res = sn.aam_loss(head, emb0, label)
            return np.array(res.loss), lambda w: w * res.grad_weight

        emb0 = rng.standard_normal(8)
        assert grad_check(f_emb, emb0, rng=rng).passed
        assert grad_check(f_w, head.weight.value.copy(), rng=rng).passed


class TestAdam:
    def test_zero_gradient_is_noop(self):
        w = np.array([1.0, -2.0])
        opt = sn.Adam(w, np.zeros(2), lr=0.1)
        opt.step()
        assert np.array_equal(w, [1.0, -2.0])
        assert np.array_equal(opt.m, np.zeros(2))
        assert np.array_equal(opt.v, np.zeros(2))

    def test_first_step_moves_by_lr(self):
        w, g = np.array([1.0]), np.zeros(1)
        opt = sn.Adam(w, g, lr=0.1)
        g[...] = 1.0
        opt.step()
        assert w[0] == pytest.approx(0.9, abs=1e-7)

    def test_deterministic_given_state(self):
        vals = []
        for _ in range(2):
            w, g = np.array([0.5, -0.5]), np.zeros(2)
            opt = sn.Adam(w, g, lr=0.01)
            for step in range(3):
                g[...] = [0.3, -0.7]
                opt.step()
            vals.append(w.copy())
        assert np.array_equal(vals[0], vals[1])


class TestEndToEndGradients:
    def test_network_grad_check_input_and_params(self):
        cfg = tiny_cfg(in_channels=2)
        net = sn.SpeakerNet(cfg, np.random.default_rng(11))
        head = aam_head(3, 5, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 5, 6))

        def f_x(x):
            emb, cache = sn.forward_train(net, x)
            res = sn.aam_loss(head, emb, 1)

            def vjp(w):
                for p in net.parameters():
                    p.grad[...] = 0.0
                return sn.backward(net, cache, w * res.grad_emb)
            return np.array(res.loss), vjp

        assert grad_check(f_x, x0, rng=rng).passed

        for param in net.parameters():
            def f_p(v, param=param):
                param.value = v
                emb, cache = sn.forward_train(net, x0)
                res = sn.aam_loss(head, emb, 1)

                def vjp(w):
                    for p in net.parameters():
                        p.grad[...] = 0.0
                    sn.backward(net, cache, w * res.grad_emb)
                    return param.grad.copy()
                return np.array(res.loss), vjp

            assert grad_check(f_p, param.value.copy(), rng=rng).passed, param.name


class TestTraining:
    def make_examples(self, n_spk=4, utts=6, seed=20, exact=None):
        data = ft.synth_dataset(n_spk, utts, seed=seed,
                                min_frames=exact or 200, max_frames=exact or 240)
        return [(u.speaker, ft.mvn(u.features), f"utt{i}") for i, u in enumerate(data)]

    def test_zero_lr_keeps_parameters_and_loss(self):
        examples = self.make_examples(exact=200)   # crop is identity at 200 frames
        net = sn.SpeakerNet(tiny_cfg(), np.random.default_rng(21))
        head = aam_head(4, 5, np.random.default_rng(22))
        before = [p.value.copy() for p in net.parameters() + head.parameters()]
        opts = sn.TrainOptions(lr=0.0, epochs=2, batch_size=8)
        hist = sn.train(net, head, examples, opts, 200, np.random.default_rng(23))
        after = net.parameters() + head.parameters()
        for b, p in zip(before, after):
            assert np.array_equal(b, p.value)
        assert hist[0].mean_loss == pytest.approx(hist[1].mean_loss, abs=1e-12)

    def test_loss_decreases_over_30_epochs(self):
        examples = self.make_examples()
        net = sn.SpeakerNet(tiny_cfg(), np.random.default_rng(24))
        head = aam_head(4, 5, np.random.default_rng(25))
        opts = sn.TrainOptions(epochs=30, batch_size=8)
        hist = sn.train(net, head, examples, opts, 200, np.random.default_rng(26))
        assert hist[-1].mean_loss < hist[0].mean_loss

    def test_same_seed_reproduces_trajectory_and_weights(self):
        examples = self.make_examples()
        runs = []
        for _ in range(2):
            net = sn.SpeakerNet(tiny_cfg(), np.random.default_rng(27))
            head = aam_head(4, 5, np.random.default_rng(28))
            opts = sn.TrainOptions(epochs=3, batch_size=8)
            hist = sn.train(net, head, examples, opts, 200, np.random.default_rng(29))
            runs.append(([h.mean_loss for h in hist],
                         [p.value.copy() for p in net.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_non_finite_loss_aborts_with_index(self, monkeypatch):
        examples = self.make_examples()
        net = sn.SpeakerNet(tiny_cfg(), np.random.default_rng(30))
        head = aam_head(4, 5, np.random.default_rng(31))

        real = sn.aam_loss

        def poisoned(head_, emb, label):
            res = real(head_, emb, label)
            res.loss = float("nan")
            return res

        monkeypatch.setattr(sn, "aam_loss", poisoned)
        opts = sn.TrainOptions(epochs=1, batch_size=8)
        with pytest.raises(NumericError, match="example index"):
            sn.train(net, head, examples, opts, 200, np.random.default_rng(32))

    def test_empty_dataset_rejected(self):
        net = sn.SpeakerNet(tiny_cfg(), np.random.default_rng(33))
        head = aam_head(4, 5, np.random.default_rng(34))
        with pytest.raises(ConfigError):
            sn.train(net, head, [], sn.TrainOptions(), 200, np.random.default_rng(0))


class TestCheckpoint:
    def build(self, seed=40):
        cfg = tiny_cfg()
        net = sn.SpeakerNet(cfg, np.random.default_rng(seed))
        head = aam_head(4, 5, np.random.default_rng(seed + 1))
        return net, head

    def test_roundtrip_restores_values(self, tmp_path):
        net, head = self.build()
        params = net.parameters() + head.parameters()
        path = tmp_path / "model.ckpt"
        sn.save_checkpoint(path, "seed = 7\n", params)
        assert path.read_bytes()[:4] == b"FAMC"

        cfg_text, entries = sn.load_checkpoint(path)
        assert cfg_text == "seed = 7\n"
        net2, head2 = self.build(seed=99)   # different init, same structure
        sn.restore_parameters(net2.parameters() + head2.parameters(), entries)
        for a, b in zip(params, net2.parameters() + head2.parameters()):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)

    def test_save_is_byte_deterministic(self, tmp_path):
        net, head = self.build()
        params = net.parameters() + head.parameters()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        sn.save_checkpoint(p1, "x = 1\n", params)
        sn.save_checkpoint(p2, "x = 1\n", params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            sn.load_checkpoint(p)

    def test_truncation_names_path_and_byte_offset(self, tmp_path):
        net, head = self.build()
        path = tmp_path / "m.ckpt"
        sn.save_checkpoint(path, "seed = 7\n", net.parameters() + head.parameters())
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])       # inside the last payload, aam.w (4 x 5)
        with pytest.raises(FormatError, match=rf"m\.ckpt: truncated at byte offset "
                                              rf"{len(blob) - 160}: values of aam\.w "
                                              rf"needs 160 bytes, 157 left"):
            sn.load_checkpoint(path)
        path.write_bytes(blob[:23])       # inside the first parameter's name length
        with pytest.raises(FormatError, match=r"m\.ckpt: truncated at byte offset 21: "
                                              r"length of parameter name needs 4 bytes, "
                                              r"2 left"):
            sn.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net, head = self.build()
        path = tmp_path / "m.ckpt"
        sn.save_checkpoint(path, "", net.parameters())
        _, entries = sn.load_checkpoint(path)
        other = sn.SpeakerNet(tiny_cfg(embedding_dim=7), np.random.default_rng(0))
        with pytest.raises(FormatError):
            sn.restore_parameters(other.parameters(), entries)
