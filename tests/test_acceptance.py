"""Acceptance criteria, one test per criterion, each reporting a PASS/FAIL line.

The per-criterion lines are replayed in the pytest terminal summary (see
conftest). The toy-training criterion drives the real CLI end to end
(synth -> train -> score -> metrics) for each attention variant, one run
after another, and takes about a minute; everything else finishes in seconds.
"""

import contextlib
import io
import re
import time
from pathlib import Path

import numpy as np
import pytest
from gradcheck import grad_check
from wavfile import write_wav

from freqattn import attention as attn
from freqattn import cli
from freqattn import config as cfgmod
from freqattn import dct
from freqattn import features as feats
from freqattn import metrics as mt
from freqattn import speakernet as sn
from freqattn import tensor as tz


def test_criterion_1_gap_dct_equivalence(acceptance_report):
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 9))
        f_dim = int(rng.integers(1, 17))
        t_dim = int(rng.integers(1, 21))
        x = rng.standard_normal((c, f_dim, t_dim))
        z = dct.gap(x)
        for ch in range(c):
            worst = max(worst, abs(dct.dct2d(x[ch])[0, 0] - f_dim * t_dim * z[ch]))
    elapsed = time.monotonic() - start
    acceptance_report(1, "GAP equals lowest DCT component", worst < 1e-9 and elapsed < 1.0,
           f"(max |SP[0,0] - F*T*gap| = {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_orthogonality_and_round_trip(acceptance_report):
    start = time.monotonic()
    worst_inner = 0.0
    for f_dim in range(1, 9):
        for t_dim in range(1, 9):
            planes = dct.dct_basis(f_dim, t_dim, list(np.ndindex(f_dim, t_dim)))
            flat = planes.reshape(f_dim * t_dim, -1) * (f_dim * t_dim)
            gram = flat @ flat.T
            worst_inner = max(worst_inner, float(np.max(np.abs(
                gram - np.diag(np.diag(gram))))))
    rng = np.random.default_rng(101)
    worst_rec = 0.0
    for shape in [(4, 6), (8, 8), (3, 7), (1, 5), (6, 1), (8, 3)]:
        x = rng.standard_normal(shape)
        worst_rec = max(worst_rec, float(np.max(np.abs(
            dct.idct2d(dct.dct2d_orthonormal(x)) - x))))
    elapsed = time.monotonic() - start
    ok = worst_inner < 1e-9 and worst_rec < 1e-10 and elapsed < 5.0
    acceptance_report(2, "basis orthogonality and orthonormal round trip", ok,
           f"(max inner = {worst_inner:.2e}, max rec err = {worst_rec:.2e}, "
           f"{elapsed:.2f}s)")


def test_criterion_3_special_case_reduction(acceptance_report, monkeypatch):
    # se squeezes by dct.gap; sfsc and mfsc at k = 1 must build the (0, 0) plane
    builds = []
    dct_basis = dct.dct_basis

    def counting_dct_basis(*args, **kwargs):
        builds.append(args)
        return dct_basis(*args, **kwargs)

    monkeypatch.setattr(dct, "dct_basis", counting_dct_basis)
    worst = 0.0
    planes = {"se": 0, "sfsc": 0, "mfsc": 0}
    for draw in range(20):
        rng = np.random.default_rng(200 + draw)
        se = attn.AttentionBlock("se", 8, 4, None, "avg", rng)
        se.w1.value = rng.standard_normal(se.w1.value.shape)
        se.w2.value = rng.standard_normal(se.w2.value.shape)
        # their weights are replaced by se's, so they draw from a generator of their own
        sfsc = attn.AttentionBlock("sfsc", 8, 4, 1, "avg", np.random.default_rng(0))
        mfsc = attn.AttentionBlock("mfsc", 8, 4, 1, "avg", np.random.default_rng(0))
        for block in (sfsc, mfsc):
            block.w1.value = se.w1.value.copy()
            block.w2.value = se.w2.value.copy()
        x = rng.standard_normal((8, 4, 6))
        s = {}
        for block in (se, sfsc, mfsc):
            n_built = len(builds)
            s[block.variant], _, _ = attn.forward(block, x)
            planes[block.variant] += len(builds) - n_built
        worst = max(worst, float(np.max(np.abs(s["sfsc"] - s["se"]))),
                    float(np.max(np.abs(s["mfsc"] - s["se"]))))
    ok = worst < 1e-12 and planes == {"se": 0, "sfsc": 20, "mfsc": 20}
    acceptance_report(3, "SFSC/MFSC reduce to SE at the lowest frequency", ok,
           f"(max |s - s_se| = {worst:.2e} over 20 draws; DCT plane builds {planes})")


def _grad_block(variant, seed, k=None, aggregation="avg"):
    rng = np.random.default_rng(seed)
    block = attn.AttentionBlock(variant, 8, 4, k, aggregation, rng)
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

    errs = [grad_check(f_x, x0, rng=rng).max_rel_err,
            grad_check(f_w1, block.w1.value.copy(), rng=rng).max_rel_err,
            grad_check(f_w2, block.w2.value.copy(), rng=rng).max_rel_err]
    return max(errs)


def _grad_aam(seed):
    rng = np.random.default_rng(seed)
    head = sn.AamHead(4, 8, 0.2, 30.0, rng)
    label = int(rng.integers(0, 4))
    emb0 = rng.standard_normal(8)

    def f_emb(e):
        res = sn.aam_loss(head, e, label)
        return np.array(res.loss), lambda w: w * res.grad_emb

    def f_w(v):
        head.weight.value = v
        res = sn.aam_loss(head, emb0, label)
        return np.array(res.loss), lambda w: w * res.grad_weight

    return max(grad_check(f_emb, emb0, rng=rng).max_rel_err,
               grad_check(f_w, head.weight.value.copy(), rng=rng).max_rel_err)


def _grad_conv(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((2, 3, 3, 3))
    x0 = rng.standard_normal((3, 5, 6))

    def f_x(x):
        return tz.conv2d(x, w, 2, 1), lambda dy: tz.conv2d_backward(x, w, dy, 2, 1)[0]

    def f_w(v):
        return tz.conv2d(x0, v, 2, 1), lambda dy: tz.conv2d_backward(x0, v, dy, 2, 1)[1]

    return max(grad_check(f_x, x0, rng=rng).max_rel_err,
               grad_check(f_w, w.copy(), rng=rng).max_rel_err)


def _grad_full_network(seed):
    """End-to-end loss gradient on an 8 x 4 x 6 input through every layer."""
    rng = np.random.default_rng(seed)
    cfg = sn.NetworkConfig(in_channels=8, stages=((6, 3, 2), (8, 3, 2)),
                           embedding_dim=4, attention_variant="mfsc",
                           attention_k=(2, 2), aggregation="avg_max", reduction=2)
    net = sn.SpeakerNet(cfg, rng)
    head = sn.AamHead(3, 4, 0.2, 30.0, rng)
    x0 = rng.standard_normal((8, 4, 6))
    label = int(rng.integers(0, 3))
    worst = 0.0

    def f_x(x):
        emb, cache = sn.forward_train(net, x)
        res = sn.aam_loss(head, emb, label)

        def vjp(w):
            for p in net.parameters():
                p.grad[...] = 0.0
            return sn.backward(net, cache, w * res.grad_emb)
        return np.array(res.loss), vjp

    worst = max(worst, grad_check(f_x, x0, rng=rng).max_rel_err)

    for param in net.parameters() + [head.weight]:
        def f_p(v, param=param):
            param.value = v
            emb, cache = sn.forward_train(net, x0)
            res = sn.aam_loss(head, emb, label)

            def vjp(w):
                for p in net.parameters():
                    p.grad[...] = 0.0
                sn.backward(net, cache, w * res.grad_emb)
                if param is head.weight:
                    return w * res.grad_weight
                return param.grad.copy()
            return np.array(res.loss), vjp

        worst = max(worst, grad_check(f_p, param.value.copy(), rng=rng).max_rel_err)
    return worst


def test_criterion_4_gradient_correctness(acceptance_report):
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        worst = max(worst, _grad_block("se", 300 + seed))
        worst = max(worst, _grad_block("sfsc", 310 + seed, k=4))
        worst = max(worst, _grad_block("mfsc", 320 + seed, k=4, aggregation="avg"))
        worst = max(worst, _grad_block("mfsc", 330 + seed, k=4, aggregation="max"))
        worst = max(worst, _grad_block("mfsc", 340 + seed, k=4, aggregation="avg_max"))
        worst = max(worst, _grad_aam(350 + seed))
        worst = max(worst, _grad_conv(360 + seed))
        worst = max(worst, _grad_full_network(370 + seed))
    elapsed = time.monotonic() - start
    acceptance_report(4, "gradient correctness at 1e-4", worst <= 1e-4 and elapsed < 60.0,
           f"(max rel err = {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_parameter_parity(acceptance_report):
    block_counts = {
        variant_agg: sum(p.size for p in attn.AttentionBlock(
            variant, 64, 8, None if variant == "se" else 16, agg,
            np.random.default_rng(0)).parameters())
        for variant_agg, (variant, agg) in {
            "se": ("se", "avg"), "sfsc": ("sfsc", "avg"),
            "mfsc_avg": ("mfsc", "avg"), "mfsc_max": ("mfsc", "max"),
            "mfsc_avg_max": ("mfsc", "avg_max")}.items()}
    net_counts = {}
    for variant, agg in [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")]:
        cfg = sn.NetworkConfig(attention_variant=variant, aggregation=agg)
        net_counts[variant] = sn.num_parameters(sn.SpeakerNet(cfg, np.random.default_rng(0)))
    ok = len(set(block_counts.values())) == 1 and len(set(net_counts.values())) == 1
    acceptance_report(5, "parameter parity across attention variants", ok,
           f"(block counts {block_counts}, net counts {net_counts})")


def _oracle_rates(targets, nontargets, grid):
    """(p_miss, p_fa) by direct counting at every grid threshold and every score."""
    scores = np.concatenate([targets, nontargets])
    thresholds = np.unique(np.concatenate(
        [np.linspace(scores.min() - 1, scores.max() + 1, grid), scores]))[:, None]
    miss = np.sum(targets < thresholds, axis=1) / targets.size
    fa = np.sum(nontargets >= thresholds, axis=1) / nontargets.size
    return miss, fa


def _eer_oracle(targets, nontargets, grid=20001):
    miss, fa = _oracle_rates(targets, nontargets, grid)
    crossed = np.flatnonzero(miss >= fa)
    if crossed.size == 0:
        return 1.0
    i = crossed[0]
    if miss[i] == fa[i] or i == 0:
        return miss[i]
    pm, pf = miss[i - 1], fa[i - 1]
    t = (pf - pm) / ((miss[i] - pm) - (fa[i] - pf))
    return pm + t * (miss[i] - pm)


def _min_dcf_oracle(targets, nontargets, p_target=0.05, grid=20001):
    miss, fa = _oracle_rates(targets, nontargets, grid)
    best = np.min(p_target * miss + (1 - p_target) * fa)
    return best / min(p_target, 1 - p_target)


def _columns(trials):
    """A list of `Trial`s as the scores file `metrics` reads would give it."""
    return mt.parse_scores("".join(f"{t.label} {t.enroll} {t.test} {float(t.score)!r}\n"
                                   for t in trials))


def test_criterion_6_metric_oracle(acceptance_report):
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n_t = int(rng.integers(1, 26))
        n_n = int(rng.integers(1, 26))
        tgt = rng.normal(0.4, 1.0, n_t)
        non = rng.normal(-0.4, 1.0, n_n)
        trials = [mt.Trial(1, "e", "t", s) for s in tgt]
        trials += [mt.Trial(0, "e", "t", s) for s in non]
        result = mt.evaluate_trials(_columns(trials))
        eer_oracle = _eer_oracle(tgt, non)
        worst = max(worst, abs(result.eer - eer_oracle),
                    abs(mt.compute_eer(trials)[0] - eer_oracle),
                    abs(result.min_dcf - _min_dcf_oracle(tgt, non)))
    four = [mt.Trial(1, "a", "b", 0.9), mt.Trial(1, "c", "d", 0.2),
            mt.Trial(0, "e", "f", 0.8), mt.Trial(0, "g", "h", 0.1)]
    eer4, _ = mt.compute_eer(four)
    dcf4 = mt.evaluate_trials(_columns(four)).min_dcf
    ok = worst < 1e-6 and eer4 == 0.5 and dcf4 == 0.5
    acceptance_report(6, "EER/minDCF match the brute-force oracle", ok,
           f"(max dev = {worst:.2e}, four-score set EER={eer4} minDCF={dcf4})")


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    rc = cli.main(["synth", "--out", str(out), "--seed", "7"])
    assert rc == 0
    return out


def _toy_config(variant, aggregation, corpus, epochs=30):
    cfg = cfgmod.RunConfig()
    cfg.seed = 7
    cfg.network.attention_variant = variant
    cfg.network.aggregation = aggregation
    cfg.train.epochs = epochs
    cfg.train_list = str(corpus / "train.txt")
    cfg.features_dir = str(corpus / "feats")
    return cfg


def _run_variant(variant, aggregation, corpus, work, epochs=30):
    """Train and score one variant through the CLI: (epoch losses, held-out EER)."""
    stem = work / f"{variant}_{aggregation}_{epochs}"
    cfg_path = Path(f"{stem}.cfg")
    cfg_path.write_text(cfgmod.serialize_config(
        _toy_config(variant, aggregation, corpus, epochs)))
    ckpt, scores_path = f"{stem}.ckpt", Path(f"{stem}.scores")
    with contextlib.redirect_stdout(io.StringIO()) as log:
        assert cli.main(["train", "--config", str(cfg_path), "--out", ckpt]) == 0
        assert cli.main(["score", "--checkpoint", ckpt,
                         "--trials", str(corpus / "trials.txt"),
                         "--features", str(corpus / "feats"),
                         "--out", str(scores_path)]) == 0
    losses = [float(m) for m in re.findall(r"epoch=\d+ loss=([0-9.eE+-]+)", log.getvalue())]
    assert len(losses) == epochs
    eer = mt.evaluate_trials(mt.parse_scores(scores_path.read_text())).eer
    return losses, eer


def test_criterion_7_toy_training(toy_corpus, tmp_path, acceptance_report):
    start = time.monotonic()
    variants = [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")]
    results = {variant: _run_variant(variant, agg, toy_corpus, tmp_path)
               for variant, agg in variants}
    # determinism probe: the first two epochs replay bitwise on a fresh run
    short = _run_variant("se", "avg", toy_corpus, tmp_path, epochs=2)
    det_ok = short[0] == results["se"][0][:2]

    elapsed = time.monotonic() - start
    ok = det_ok and elapsed < 600.0
    details = []
    for variant, (losses, eer) in results.items():
        first, last = losses[0], losses[-1]
        ok = ok and (eer <= 0.15) and (last < 0.25 * first)
        details.append(f"{variant}: EER={eer * 100:.2f}% loss {first:.2f}->{last:.4f}")
    acceptance_report(7, "toy training reaches EER <= 15% with loss < 25% of epoch 1", ok,
           f"({'; '.join(details)}; deterministic={det_ok}; {elapsed:.0f}s)")


def test_criterion_8_feature_recipe(tmp_path, acceptance_report):
    mel = feats.MelConfig()
    wave = feats.Waveform(np.zeros(16000), 16000)
    frames_ok = feats.logmel(wave, mel).shape == (64, 98)

    rng = np.random.default_rng(500)
    out = feats.mvn(rng.standard_normal((64, 150)) * 2.0 + 3.0)
    stats_ok = (np.max(np.abs(out.mean(axis=1))) < 1e-9
                and np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-9)

    samples = rng.uniform(-0.5, 0.5, 24000)
    wav_path = tmp_path / "probe.wav"
    write_wav(wav_path, samples)
    runs = []
    for i in range(2):
        path = tmp_path / f"probe{i}.feat"
        feats.write_feat(path, feats.mvn(feats.logmel(feats.read_wav(wav_path), mel)))
        runs.append(path.read_bytes())
    repeat_ok = runs[0] == runs[1]

    acceptance_report(8, "feature recipe (98 frames, MVN stats, bit-stable extraction)",
           frames_ok and stats_ok and repeat_ok,
           f"(frames={frames_ok}, mvn={stats_ok}, bitstable={repeat_ok})")
