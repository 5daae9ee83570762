import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqattn import metrics as mt
from freqattn.errors import NumericError, ParseError


def scored(targets, nontargets):
    """Trials columns, targets first: trial i compares e{i} with t{i}."""
    scores = np.concatenate([np.asarray(targets, dtype=np.float64),
                             np.asarray(nontargets, dtype=np.float64)])
    n = len(scores)
    return mt.Trials(labels=np.repeat(np.int8([1, 0]), [len(targets), len(nontargets)]),
                     ids=[f"{side}{i}" for i in range(n) for side in "et"],
                     enroll=np.arange(0, 2 * n, 2), test=np.arange(1, 2 * n, 2),
                     scores=scores)


def trial_objects(targets, nontargets):
    """The same trials as `scored`, as the list of `Trial`s `compute_eer` takes."""
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
    norms = np.array([mt.embedding_norm(a), mt.embedding_norm(b)])
    return float(mt.cosine_score(np.stack([a, b]), norms, np.array([0]), np.array([1]))[0])


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


class TestCosineColumns:
    """cosine_score over trial columns is bitwise the per-pair np.dot score."""

    @pytest.mark.parametrize("n_trials", [1, mt.CHUNK, mt.CHUNK + 1, 2 * mt.CHUNK + 7])
    @pytest.mark.parametrize("dim", [3, 64])
    def test_bitwise_equal_to_per_pair_dot(self, n_trials, dim):
        rng = np.random.default_rng(n_trials * dim)
        n_ids = 12                       # few ids, so most repeat
        emb = rng.standard_normal((n_ids, dim)) * 10.0 ** rng.uniform(-3, 3, (n_ids, 1))
        norms = np.array([mt.embedding_norm(v) for v in emb])
        enroll = rng.integers(0, n_ids, n_trials)
        test = rng.integers(0, n_ids, n_trials)
        got = mt.cosine_score(emb, norms, enroll, test)
        want = [float(np.dot(emb[i], emb[j]) / (norms[i] * norms[j]))
                for i, j in zip(enroll, test)]
        assert got.dtype == np.float64 and got.tolist() == want

    def test_no_trials(self):
        emb = np.ones((1, 4))
        got = mt.cosine_score(emb, np.array([2.0]), np.array([], dtype=np.intp),
                              np.array([], dtype=np.intp))
        assert got.shape == (0,)


class TestEer:
    def test_perfect_separation(self):
        eer, _ = mt.compute_eer(trial_objects([0.8, 0.9], [0.1, 0.2]))
        assert eer == 0.0

    def test_interleaved_four_scores(self):
        eer, threshold = mt.compute_eer(trial_objects([0.9, 0.2], [0.8, 0.1]))
        assert eer == pytest.approx(0.5)
        assert threshold == pytest.approx(0.8)

    def test_fully_inverted(self):
        eer, _ = mt.compute_eer(trial_objects([0.1, 0.2], [0.8, 0.9]))
        assert eer == pytest.approx(1.0)

    def test_missing_class(self):
        with pytest.raises(ValueError):
            mt.compute_eer([mt.Trial(1, "a", "b", score=0.5)])
        with pytest.raises(ValueError):
            mt.evaluate_trials(scored([0.5], []))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        message = f"non-finite score {bad} for trial e1 t1"
        with pytest.raises(NumericError, match=f"^{message}$"):
            mt.evaluate_trials(scored([0.8, bad], [0.1, 0.2]))
        with pytest.raises(NumericError, match=f"^{message}$"):
            mt.compute_eer(trial_objects([0.8, bad], [0.1, 0.2]))

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
        assert mt.compute_eer(trial_objects(tgt, non)) == expected[:2]
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
        assert trials.labels.dtype == np.int8 and trials.labels.tolist() == [1]
        assert trials.ids == ["a.wav", "b.wav"]
        assert (trials.enroll.tolist(), trials.test.tolist()) == ([0], [1])
        assert trials.scores is None

    def test_nontarget_line(self):
        assert mt.parse_trials("0 a.wav b.wav").labels.tolist() == [0]

    def test_ids_in_order_of_first_use(self):
        trials = mt.parse_trials("1 c a\n0 b c\n1 a d\n0 d d\n")
        assert trials.ids == ["c", "a", "b", "d"]
        assert trials.enroll.tolist() == [0, 2, 1, 3]
        assert trials.test.tolist() == [1, 0, 3, 3]
        assert trials.labels.tolist() == [1, 0, 1, 0]

    def test_blank_lines_and_crlf_endings(self):
        trials = mt.parse_scores("\r\n1 a b 0.5\r\n\r\n  \n0 a c -0.25\r\n")
        assert trials.labels.tolist() == [1, 0]
        assert trials.ids == ["a", "b", "c"]
        assert trials.scores.dtype == np.float64 and trials.scores.tolist() == [0.5, -0.25]

    def test_empty_text_is_no_trials(self):
        for text in ("", "\n \n"):
            trials = mt.parse_trials(text)
            assert trials.ids == [] and trials.labels.size == trials.enroll.size == 0

    def test_invalid_label(self):
        with pytest.raises(ParseError, match="^line 1: label must be 0 or 1, got '2'$"):
            mt.parse_trials("2 a b")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="^line 2: expected 3 fields, got 2$"):
            mt.parse_trials("1 a b\n1 a\n")

    def test_bad_score_field(self):
        with pytest.raises(ParseError, match="^line 1: bad score 'notanumber'$"):
            mt.parse_scores("1 a b notanumber")

    @pytest.mark.parametrize("parse, text, message", [
        (mt.parse_trials, "1 a b\n\n\n  \n1 a\n", "line 5: expected 3 fields, got 2"),
        (mt.parse_trials, "1 a b\r\n\r\n0 a b c\r\n", "line 3: expected 3 fields, got 4"),
        (mt.parse_trials, "1 a b\n01 a b\n", "line 2: label must be 0 or 1, got '01'"),
        (mt.parse_trials, "1.0 a b\n1 a\n", "line 1: label must be 0 or 1, got '1.0'"),
        (mt.parse_trials, "1 a b\n1 a b 0.5\n0 a c\n", "line 2: expected 3 fields, got 4"),
        (mt.parse_scores, "1 a b 0.5\n\n0 a c 0.5.1\n1 a\n", "line 3: bad score '0.5.1'"),
        (mt.parse_scores, "1 a b x\n1 a b\n", "line 1: bad score 'x'"),
        (mt.parse_scores, "1 a b 0.5\n1 a b\n0 c d x\n", "line 2: expected 4 fields, got 3"),
        (mt.parse_scores, "1 a b 0.5\n01 a b 0.5\n", "line 2: label must be 0 or 1, got '01'"),
        (mt.parse_scores, "1 a b 0.5\r\n\r\n1.0 a b 0.5\r\n",
         "line 3: label must be 0 or 1, got '1.0'"),
    ])
    def test_parse_error_names_first_bad_line(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_a_per_line_parse(self, data):
        # the reference walks the lines one by one, as a parser of Trial objects did
        scored_file = data.draw(st.booleans())
        names = st.sampled_from(["a", "b", "c"])
        good = st.tuples(st.sampled_from(["0", "1"]), names, names,
                         st.sampled_from(["0.5", "-1e3", "nan", "1_0"]))
        bad = st.lists(st.sampled_from(["0", "1", "01", "1.0", "a", "x", "0.5"]), max_size=5)
        text = ""
        for _ in range(data.draw(st.integers(0, 8))):
            fields = data.draw(bad if data.draw(st.integers(0, 7)) == 0 else good)
            text += (data.draw(st.sampled_from([" ", "\t", "  "]))
                     .join(fields[:4 if scored_file else 3])
                     + data.draw(st.sampled_from(["\n", "\n", "\r\n", ""])))
        n_fields = 4 if scored_file else 3
        want = []
        try:
            for lineno, line in enumerate(text.splitlines(), start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != n_fields:
                    raise ParseError(f"line {lineno}: expected {n_fields} fields, "
                                     f"got {len(parts)}")
                if parts[0] not in ("0", "1"):
                    raise ParseError(f"line {lineno}: label must be 0 or 1, got {parts[0]!r}")
                try:
                    score = float(parts[3]) if scored_file else None
                except ValueError:
                    raise ParseError(f"line {lineno}: bad score {parts[3]!r}") from None
                want.append((int(parts[0]), parts[1], parts[2], score))
        except ParseError as exc:
            want = str(exc)
        parse = mt.parse_scores if scored_file else mt.parse_trials
        try:
            trials = parse(text)
        except ParseError as exc:
            assert str(exc) == want
            return
        scores = trials.scores.tolist() if scored_file else [None] * len(trials.labels)
        got = [(label, trials.ids[e], trials.ids[t], s) for label, e, t, s in
               zip(trials.labels.tolist(), trials.enroll, trials.test, scores)]
        assert repr(got) == repr(want)      # a nan score is not == itself
        assert trials.ids == list(dict.fromkeys(tid for _, e, t, _ in want for tid in (e, t)))

    def test_scores_roundtrip(self):
        trials = scored([0.123456789], [-0.5])
        text = mt.format_scores(trials)
        assert text == "1 e0 t0 0.123457\n0 e1 t1 -0.500000\n"
        back = mt.parse_scores(text)
        assert back.scores[0] == pytest.approx(0.123457)
        assert back.labels.tolist() == [1, 0]
        assert mt.format_scores(back) == text

    def test_format_scores_equals_per_trial_lines(self):
        rng = np.random.default_rng(5)
        tgt, non = rng.normal(0.3, 0.4, 50), rng.normal(-0.1, 0.4, 70)
        tgt[:3] = [-0.0, 1e-7, -5e-7]       # signed zero and half-way roundings
        trials = scored(tgt, non)
        lines = [f"{label} {trials.ids[e]} {trials.ids[t]} {s:.6f}" for label, e, t, s in
                 zip(trials.labels.tolist(), trials.enroll, trials.test, trials.scores)]
        assert mt.format_scores(trials) == "\n".join(lines) + "\n"
