import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqattn import metrics as mt
from freqattn.errors import NumericError, ParseError


def scored(targets, nontargets):
    trials = [mt.Trial(1, f"e{i}", f"t{i}", score=s) for i, s in enumerate(targets)]
    trials += [mt.Trial(0, f"e{i}", f"t{i}", score=s)
               for i, s in enumerate(nontargets, start=len(targets))]
    return trials


def brute_force_rates(targets, nontargets, grid):
    """(p_miss, p_fa) counted directly at a dense threshold grid plus every distinct level."""
    scores = np.concatenate([targets, nontargets])
    lo, hi = scores.min() - 1.0, scores.max() + 1.0
    thresholds = np.unique(np.concatenate(
        [np.linspace(lo, hi, grid), scores, scores + 1e-12]))[:, None]
    miss = np.sum(targets < thresholds, axis=1) / len(targets)
    fa = np.sum(nontargets >= thresholds, axis=1) / len(nontargets)
    return miss, fa


def eer_brute_force(targets, nontargets, grid=20001):
    """Interpolates the zero crossing of p_miss - p_fa, independently of the production path."""
    miss, fa = brute_force_rates(targets, nontargets, grid)
    crossed = np.flatnonzero(miss >= fa)
    if crossed.size == 0:
        return 1.0
    i = crossed[0]
    if miss[i] == fa[i] or i == 0:
        return miss[i]
    pm, pf = miss[i - 1], fa[i - 1]
    t = (pf - pm) / ((miss[i] - pm) - (fa[i] - pf))
    return pm + t * (miss[i] - pm)


def min_dcf_brute_force(targets, nontargets, p_target=0.05, grid=20001):
    miss, fa = brute_force_rates(targets, nontargets, grid)
    best = np.min(p_target * miss + (1 - p_target) * fa)
    return best / min(p_target, 1 - p_target)


def cosine(a, b):
    return mt.cosine_score(a, mt.embedding_norm(a), b, mt.embedding_norm(b))


class TestCosine:
    def test_identical(self):
        v = np.array([0.3, -1.2, 0.5])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_hand_value(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_vector(self):
        with pytest.raises(NumericError, match="zero-norm embedding"):
            mt.embedding_norm(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector(self, bad):
        with pytest.raises(NumericError, match="non-finite embedding"):
            mt.embedding_norm(np.array([1.0, bad]))

    def test_norm_overflow(self):
        # cos = 1, but the norm overflows: the old per-trial norms scored it 0.0
        with pytest.raises(NumericError, match="embedding norm overflows"), \
                np.errstate(over="ignore"):
            mt.embedding_norm(np.array([1e160, 0.0]))

    def test_equals_norms_taken_per_call(self):
        # the score from norms taken once is bitwise the score that takes them itself
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.standard_normal((2, 64)) * rng.uniform(1e-3, 1e3, 2)[:, None]
            assert cosine(a, b) == float(np.dot(a, b) / (np.linalg.norm(a)
                                                         * np.linalg.norm(b)))


class TestEer:
    def test_perfect_separation(self):
        eer, _ = mt.compute_eer(scored([0.8, 0.9], [0.1, 0.2]))
        assert eer == 0.0

    def test_interleaved_four_scores(self):
        eer, threshold = mt.compute_eer(scored([0.9, 0.2], [0.8, 0.1]))
        assert eer == pytest.approx(0.5)
        assert threshold == pytest.approx(0.8)

    def test_fully_inverted(self):
        eer, _ = mt.compute_eer(scored([0.1, 0.2], [0.8, 0.9]))
        assert eer == pytest.approx(1.0)

    def test_missing_class(self):
        with pytest.raises(ValueError):
            mt.compute_eer([mt.Trial(1, "a", "b", score=0.5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NumericError, match="trial e1 t1"):
            mt.evaluate_trials(scored([0.8, bad], [0.1, 0.2]))

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_t = int(rng.integers(1, 26))
            n_n = int(rng.integers(1, 26))
            tgt = rng.normal(0.5, 1.0, n_t)
            non = rng.normal(-0.5, 1.0, n_n)
            got = mt.evaluate_trials(scored(tgt, non)).eer
            assert got == pytest.approx(eer_brute_force(tgt, non), abs=1e-6)


class TestMinDcf:
    def test_perfect_separation(self):
        assert mt.evaluate_trials(scored([0.8, 0.9], [0.1, 0.2])).min_dcf == 0.0

    def test_interleaved_four_scores(self):
        # best operating point (p_miss, p_fa) = (0.5, 0): 0.05*0.5 / 0.05
        assert mt.evaluate_trials(scored([0.9, 0.2], [0.8, 0.1])).min_dcf == pytest.approx(0.5)

    def test_single_pair_inverted(self):
        # reachable points (0,1)->19, (1,1)->20, (1,0)->1
        assert mt.evaluate_trials(scored([0.1], [0.9])).min_dcf == pytest.approx(1.0)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tgt = rng.normal(0.5, 1.0, int(rng.integers(1, 26)))
            non = rng.normal(-0.5, 1.0, int(rng.integers(1, 26)))
            got = mt.evaluate_trials(scored(tgt, non)).min_dcf
            assert got == pytest.approx(min_dcf_brute_force(tgt, non), abs=1e-6)

    def test_never_exceeds_dcf_at_eer_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tgt = rng.normal(0.3, 1.0, 20)
            non = rng.normal(-0.3, 1.0, 20)
            m = mt.evaluate_trials(scored(tgt, non))
            # normalized DCF at the EER point is p_miss = p_fa = EER scaled
            # by (p_t + (1-p_t)) / min(p_t, 1-p_t) = 1/0.05 * ... bounded below by minDCF
            dcf_eer = (0.05 * m.eer + 0.95 * m.eer) / 0.05
            assert m.min_dcf <= dcf_eer + 1e-12


def tie_heavy(seed, n_t, n_n):
    """Scores rounded to 2 decimals, so many fall on the same threshold."""
    rng = np.random.default_rng(seed)
    return (np.round(rng.normal(0.3, 0.4, n_t), 2), np.round(rng.normal(-0.1, 0.4, n_n), 2))


class TestGolden:
    """Exact (EER, threshold, minDCF) on tie-heavy sets: every reported result rests on them."""

    @pytest.mark.parametrize("tgt, non, expected", [
        (*tie_heavy(20, 7, 13), (0.15384615384615385, 0.1030769230769231, 0.42857142857142855)),
        (*tie_heavy(21, 30, 50), (0.3, -0.0, 0.5333333333333333)),
        (*tie_heavy(22, 3, 200), (0.6019417475728155, -0.2038834951456311, 1.0)),
        (*tie_heavy(23, 60, 9), (0.4444444444444444, 0.19777777777777777, 0.9)),
        ([0.5, 0.5], [0.5], (0.5, 1.0, 1.0)),
    ])
    def test_exact_values(self, tgt, non, expected):
        assert mt.compute_eer(scored(tgt, non)) == expected[:2]
        m = mt.evaluate_trials(scored(tgt, non))
        assert (m.eer, m.eer_threshold, m.min_dcf) == expected


class TestInvariances:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
    def test_increasing_affine_map_preserves_metrics(self, seed, a, b):
        rng = np.random.default_rng(seed)
        tgt = rng.normal(0.2, 1.0, 15)
        non = rng.normal(-0.2, 1.0, 15)
        m1 = mt.evaluate_trials(scored(tgt, non))
        m2 = mt.evaluate_trials(scored(a * tgt + b, a * non + b))
        assert m1.eer == pytest.approx(m2.eer, abs=1e-12)
        assert m1.min_dcf == pytest.approx(m2.min_dcf, abs=1e-12)

    def test_cubic_map_preserves_metrics(self):
        rng = np.random.default_rng(3)
        tgt = rng.normal(0.2, 0.5, 20)
        non = rng.normal(-0.2, 0.5, 20)

        def cubic(x):
            return x ** 3 + x  # strictly increasing

        eer1 = mt.evaluate_trials(scored(tgt, non)).eer
        eer2 = mt.evaluate_trials(scored(cubic(tgt), cubic(non))).eer
        assert eer1 == pytest.approx(eer2, abs=1e-12)

    def test_label_swap_score_negation_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tgt = rng.normal(0.4, 1.0, 12)
            non = rng.normal(-0.4, 1.0, 17)
            eer1 = mt.evaluate_trials(scored(tgt, non)).eer
            eer2 = mt.evaluate_trials(scored(-non, -tgt)).eer
            assert eer1 == pytest.approx(eer2, abs=1e-9)


class TestTrialParsing:
    def test_target_line(self):
        trials = mt.parse_trials("1 a.wav b.wav\n")
        assert trials == [mt.Trial(1, "a.wav", "b.wav")]

    def test_nontarget_line(self):
        assert mt.parse_trials("0 a.wav b.wav")[0].label == 0

    def test_invalid_label(self):
        with pytest.raises(ParseError, match="line 1"):
            mt.parse_trials("2 a b")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            mt.parse_trials("1 a b\n1 a\n")

    def test_scores_roundtrip(self):
        trials = scored([0.123456789], [-0.5])
        text = mt.format_scores(trials)
        assert "0.123457" in text
        back = mt.parse_scores(text)
        assert back[0].score == pytest.approx(0.123457)
        assert [t.label for t in back] == [1, 0]

    def test_bad_score_field(self):
        with pytest.raises(ParseError, match="line 1"):
            mt.parse_scores("1 a b notanumber")
