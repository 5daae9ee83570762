import re
import struct

import numpy as np
import pytest
from wavfile import write_wav

from freqattn import features as feats
from freqattn.errors import ConfigError, DimensionError, FormatError, NumericError


def wav_bytes(samples_i16, channels=1, sample_rate=16000, bits=16, audio_format=1):
    payload = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    return (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels,
                                    sample_rate, sample_rate * channels * 2,
                                    channels * 2, bits)
            + b"data" + struct.pack("<I", len(payload)) + payload)


class TestReadWav:
    def test_sample_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(wav_bytes([0, 16384, -16384, 32767]))
        wave = feats.read_wav(p)
        assert wave.sample_rate == 16000
        assert np.allclose(wave.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=1e-12)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            feats.read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(wav_bytes([0, 0, 0, 0], channels=2))
        with pytest.raises(FormatError, match="channels=2"):
            feats.read_wav(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.wav"
        p.write_bytes(b"JUNK" + wav_bytes([0])[4:])
        with pytest.raises(FormatError, match="RIFF"):
            feats.read_wav(p)

    def test_non_pcm_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(wav_bytes([0, 0], audio_format=3))
        with pytest.raises(FormatError, match="audio_format"):
            feats.read_wav(p)

    def test_wrong_bit_depth(self, tmp_path):
        p = tmp_path / "b.wav"
        p.write_bytes(wav_bytes([0, 0], bits=8))
        with pytest.raises(FormatError, match="bits_per_sample"):
            feats.read_wav(p)

    def test_odd_length_data_chunk_names_file(self, tmp_path):
        p = tmp_path / "odd.wav"
        blob = bytearray(wav_bytes([0, 1, 2]))
        struct.pack_into("<I", blob, 40, 5)        # data size 5 of the 6 bytes present
        p.write_bytes(bytes(blob[:-1]))
        with pytest.raises(FormatError, match=re.escape(f"{p}: data chunk of 5 bytes")):
            feats.read_wav(p)

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, 1000)
        p = tmp_path / "r.wav"
        write_wav(p, samples, 16000)
        wave = feats.read_wav(p)
        # write scales by 32767, read divides by 32768: bound is (0.5+|x|)/32768
        assert np.max(np.abs(wave.samples - samples)) < 1.5 / 32768


class TestLogmel:
    def test_one_second_is_98_frames(self):
        wave = feats.Waveform(np.zeros(16000), 16000)
        x = feats.logmel(wave, feats.MelConfig())
        assert x.shape == (64, 98)

    def test_frame_count_formula_sweep(self):
        cfg = feats.MelConfig()
        for n in (400, 401, 559, 560, 561, 16000, 31999, 32000):
            wave = feats.Waveform(np.zeros(n), 16000)
            expected = (n - 400) // 160 + 1
            assert feats.logmel(wave, cfg).shape[1] == expected

    def test_zero_audio_hits_log_floor(self):
        wave = feats.Waveform(np.zeros(16000), 16000)
        x = feats.logmel(wave, feats.MelConfig())
        assert np.allclose(x, np.log(1e-10))
        assert x[0, 0] == pytest.approx(-23.025850929940457)

    def test_sine_peaks_at_nearest_mel_center(self):
        cfg = feats.MelConfig()
        t = np.arange(16000) / 16000.0
        wave = feats.Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)
        x = feats.logmel(wave, cfg)
        mels = np.linspace(feats.hz_to_mel(cfg.fmin), feats.hz_to_mel(cfg.fmax_hz),
                           cfg.n_mels + 2)
        centers = feats.mel_to_hz(mels)[1:-1]
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        got_bin = int(np.argmax(x.mean(axis=1)))
        assert got_bin == expected_bin

    def test_scaling_shifts_log_by_log4(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-0.25, 0.25, 8000)
        a = feats.logmel(feats.Waveform(samples, 16000), feats.MelConfig())
        b = feats.logmel(feats.Waveform(2.0 * samples, 16000), feats.MelConfig())
        unfloored = a > np.log(1e-10) + 1e-6
        assert np.max(np.abs((b - a)[unfloored] - np.log(4.0))) < 1e-9

    def test_too_short_input(self):
        with pytest.raises(DimensionError):
            feats.logmel(feats.Waveform(np.zeros(399), 16000), feats.MelConfig())

    def test_sample_rate_mismatch(self):
        with pytest.raises(ConfigError):
            feats.logmel(feats.Waveform(np.zeros(16000), 8000), feats.MelConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-0.5, 0.5, 5000)
        a = feats.logmel(feats.Waveform(samples, 16000), feats.MelConfig())
        b = feats.logmel(feats.Waveform(samples.copy(), 16000), feats.MelConfig())
        assert np.array_equal(a, b)

    def test_fft_agrees_with_direct_dft_on_a_frame(self):
        # the FFT path must match a naive DFT evaluation of the same frame
        rng = np.random.default_rng(4)
        frame = rng.uniform(-0.5, 0.5, 400) * np.hamming(400)
        n_fft = 512
        k = np.arange(n_fft // 2 + 1)[:, None]
        n = np.arange(400)[None, :]
        naive = (frame[None, :] * np.exp(-2j * np.pi * k * n / n_fft)).sum(axis=1)
        assert np.max(np.abs(np.abs(np.fft.rfft(frame, n=n_fft)) - np.abs(naive))) < 1e-8


class TestMvn:
    def test_row_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 120)) * 3.0 + 5.0
        out = feats.mvn(x)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-12
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-9

    def test_constant_row_becomes_zero(self):
        x = np.full((4, 50), 2.5)
        assert np.array_equal(feats.mvn(x), np.zeros((4, 50)))

    def test_single_frame_rejected(self):
        with pytest.raises(DimensionError):
            feats.mvn(np.zeros((4, 1)))


class TestCrop:
    def test_seeded_slice_is_deterministic(self):
        x = np.arange(64.0 * 500).reshape(64, 500)
        a = feats.crop(x, 200, np.random.default_rng(5))
        b = feats.crop(x, 200, np.random.default_rng(5))
        assert a.shape == (64, 200)
        assert np.array_equal(a, b)

    def test_exact_length_is_identity(self):
        x = np.random.default_rng(6).standard_normal((64, 200))
        out = feats.crop(x, 200, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_short_input_wraps(self):
        x = np.tile(np.arange(90.0), (4, 1))
        out = feats.crop(x, 200, np.random.default_rng(0))
        expected = np.concatenate([np.arange(90.0), np.arange(90.0), np.arange(20.0)])
        assert np.array_equal(out[0], expected)


class TestSpecMask:
    def test_deterministic_given_seed(self):
        x = np.random.default_rng(8).standard_normal((64, 100))
        a = feats.spec_mask(x, np.random.default_rng(9))
        b = feats.spec_mask(x, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_masked_cell_bound(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((64, 150)) + 10.0
        out = feats.spec_mask(x, rng)
        changed = int(np.sum(out != x))
        assert changed <= feats.SPEC_MASKS * (feats.SPEC_MAX_F_MASK * 150
                                              + feats.SPEC_MAX_T_MASK * 64)


class TestSynthDataset:
    def test_deterministic(self):
        a = feats.synth_dataset(3, 2, seed=11)
        b = feats.synth_dataset(3, 2, seed=11)
        assert len(a) == len(b) == 6
        for u, v in zip(a, b):
            assert u.speaker == v.speaker
            assert np.array_equal(u.features, v.features)

    def test_counts(self):
        data = feats.synth_dataset(2, 5, seed=12)
        assert len(data) == 10
        assert sorted({u.speaker for u in data}) == [0, 1]

    def test_within_speaker_similarity_exceeds_between(self):
        data = feats.synth_dataset(6, 4, seed=13)
        means = {}
        for u in data:
            means.setdefault(u.speaker, []).append(u.features.mean(axis=1))
        within, between = [], []
        speakers = sorted(means)
        for s in speakers:
            vecs = means[s]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    within.append(np.dot(vecs[i], vecs[j]) /
                                  (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])))
        for si in range(len(speakers)):
            for sj in range(si + 1, len(speakers)):
                a = means[speakers[si]][0]
                b = means[speakers[sj]][0]
                between.append(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert np.mean(within) > np.mean(between)

    def test_needs_two_speakers(self):
        with pytest.raises(ConfigError):
            feats.synth_dataset(1, 5, seed=0)


class TestFeatFile:
    def test_roundtrip_bitwise(self, tmp_path):
        x = np.random.default_rng(14).standard_normal((64, 37))
        p = tmp_path / "x.feat"
        feats.write_feat(p, x)
        back = feats.read_feat(p, 64)
        assert np.array_equal(back, x)

    def test_rewrite_identical_bytes(self, tmp_path):
        x = np.random.default_rng(15).standard_normal((8, 9))
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        feats.write_feat(p1, x)
        feats.write_feat(p2, x)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.feat"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            feats.read_feat(p, 64)

    def test_header_cut_at_every_offset(self, tmp_path):
        p = tmp_path / "h.feat"
        feats.write_feat(p, np.zeros((2, 3)))
        blob = p.read_bytes()
        # (offset, size, name) of each field after the magic
        fields = [(4, 4, "version"), (8, 4, "rank of feature matrix"),
                  (12, 8, "shape of feature matrix")]
        for size in range(20):
            p.write_bytes(blob[:size])
            expected = "not a FEAT file"
            for at, need, what in fields:
                if at <= size:
                    expected = (f"truncated at byte offset {at}: {what} needs {need} "
                                f"bytes, {size - at} left")
            with pytest.raises(FormatError, match=re.escape(f"{p}: {expected}")):
                feats.read_feat(p, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_file_and_cell(self, tmp_path, bad):
        values = np.zeros((4, 5))
        values[2, 3] = bad
        p = tmp_path / "n.feat"
        feats.write_feat(p, values)
        expected = f"{p}: non-finite value {bad} in feature matrix at [2, 3] (1 in all)"
        with pytest.raises(NumericError, match=re.escape(expected)):
            feats.read_feat(p, 4)

    @pytest.mark.parametrize("shape", [(64, 0), (0, 200), (0, 0)])
    def test_zero_dimension_names_file_and_dims(self, tmp_path, shape):
        p = tmp_path / "z.feat"
        feats.write_feat(p, np.zeros(shape))
        expected = f"{p}: empty {shape[0]}x{shape[1]} feature matrix"
        with pytest.raises(FormatError, match=re.escape(expected)):
            feats.read_feat(p, 64)

    def test_truncated_payload(self, tmp_path):
        x = np.zeros((4, 4))
        p = tmp_path / "t.feat"
        feats.write_feat(p, x)
        p.write_bytes(p.read_bytes()[:-8])
        expected = (f"{p}: truncated at byte offset 20: values of feature matrix needs "
                    f"128 bytes, 120 left")
        with pytest.raises(FormatError, match=re.escape(expected)):
            feats.read_feat(p, 4)
