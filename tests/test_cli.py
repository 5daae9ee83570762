import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_score, save_untrained_checkpoint, tiny_run_config
from test_dct import perturb_second_plane
from wavfile import write_wav

from freqattn import cli
from freqattn import config as cfgmod
from freqattn import features as feats
from freqattn import metrics as mt
from freqattn import speakernet as sn
from freqattn.errors import ParseError


def run_fresh(*args, cpus=None):
    """`python -m freqattn <args>` in a fresh interpreter, where numpy's
    warnings would reach stderr; with `cpus`, its affinity mask reads as that
    many CPUs. The CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + sys.path))
    entry = ["-m", "freqattn"]
    if cpus is not None:
        entry = ["-c", f"import os, sys; os.sched_getaffinity = lambda pid: "
                       f"set(range({cpus})); from freqattn.cli import main; "
                       f"sys.exit(main(sys.argv[1:]))"]
    return subprocess.run([sys.executable, *entry, *map(str, args)],
                          capture_output=True, text=True, env=env)


def config_lines(*lines):
    return "".join(line + "\n" for line in lines)


# The on-disk config format, pinned: every FAMC checkpoint embeds this text.
DEFAULT_CONFIG_TEXT = config_lines(
    "attention.aggregation = avg",
    "attention.k = 4,8,16",
    "attention.reduction = 8",
    "attention.variant = se",
    "features.crop_seconds = 2.0",
    "features.fmax = 0.0",
    "features.fmin = 0.0",
    "features.frame_len_ms = 25.0",
    "features.frame_shift_ms = 10.0",
    "features.log_floor = 1e-10",
    "features.mvn = true",
    "features.n_fft = 512",
    "features.n_mels = 64",
    "features.sample_rate = 16000",
    "features.specaug = false",
    "loss.margin = 0.2",
    "loss.scale = 30.0",
    "network.embedding_dim = 64",
    "network.in_channels = 1",
    "network.num_speakers = 0",
    "network.stages = 16:3:2,32:3:2,64:3:2",
    "optimizer.batch = 8",
    "optimizer.epochs = 30",
    "optimizer.lr = 0.001",
    "paths.features_dir = ",
    "paths.train_list = ",
    "seed = 7",
)


class TestConfigFormat:
    def test_default_text_is_pinned(self):
        assert cfgmod.serialize_config(cfgmod.RunConfig()) == DEFAULT_CONFIG_TEXT
        assert DEFAULT_CONFIG_TEXT.count("\n") == 27
        assert cfgmod.parse_config(DEFAULT_CONFIG_TEXT) == cfgmod.RunConfig()

    def test_round_trip_identity(self):
        cfg = tiny_run_config()
        text = cfgmod.serialize_config(cfg)
        back = cfgmod.parse_config(text)
        assert back == cfg
        assert cfgmod.serialize_config(back) == text

    def test_keys_are_sorted(self):
        text = cfgmod.serialize_config(cfgmod.RunConfig())
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            cfgmod.parse_config("seed = 1\nnostalgia.level = 11\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            cfgmod.parse_config("optimizer.epochs = many\n")

    def test_comments_and_blanks_ignored(self):
        cfg = cfgmod.parse_config("# comment\n\nseed = 5\n")
        assert cfg.seed == 5

    def test_env_seed_override(self):
        assert cfgmod.env_seed({"FREQATTN_SEED": "123"}, 5) == 123
        assert cfgmod.env_seed({}, 5) == 5

    @pytest.mark.parametrize("shift_ms,seconds,frames", [(20.0, 2.0, 100),
                                                         (12.5, 1.37, 110)])  # 109.6
    def test_crop_frames_follows_frame_shift(self, shift_ms, seconds, frames):
        cfg = cfgmod.RunConfig(mel=feats.MelConfig(frame_shift_ms=shift_ms),
                               crop_seconds=seconds)
        back = cfgmod.parse_config(cfgmod.serialize_config(cfg))
        assert back == cfg
        assert back.crop_frames == frames


class TestVerifyDct:
    def test_passes_and_exit_zero(self, capsys):
        assert cli.main(["verify-dct"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_perturbed_basis_fails(self, capsys, monkeypatch):
        perturb_second_plane(monkeypatch)
        assert cli.main(["verify-dct"]) == 1
        out = capsys.readouterr().out
        assert "FAIL orthogonality" in out

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "freqattn", "verify-dct"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


class TestExtract:
    def write_wavs(self, d, n=3, seconds=0.6):
        rng = np.random.default_rng(0)
        for i in range(n):
            write_wav(d / f"u{i}.wav", rng.uniform(-0.5, 0.5, int(16000 * seconds)))

    def test_extracts_all_valid_files(self, tmp_path, capsys):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        self.write_wavs(in_dir)
        out_dir = tmp_path / "feat"
        assert cli.main(["extract", "--in", str(in_dir), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.glob("*.feat")) == \
            ["u0.feat", "u1.feat", "u2.feat"]

    def test_bad_file_fails_but_others_written(self, tmp_path, capsys):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        self.write_wavs(in_dir, n=2)
        # stereo file: rejected, remaining two still extracted
        import struct
        payload = struct.pack("<4h", 0, 0, 0, 0)
        stereo = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                  + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
                  + b"data" + struct.pack("<I", len(payload)) + payload)
        (in_dir / "bad.wav").write_bytes(stereo)
        out_dir = tmp_path / "feat"
        rc = cli.main(["extract", "--in", str(in_dir), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "channels=2" in captured.err
        assert len(list(out_dir.glob("*.feat"))) == 2

    def test_odd_length_data_chunk_names_file(self, tmp_path, capsys):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        self.write_wavs(in_dir, n=1)
        blob = bytearray((in_dir / "u0.wav").read_bytes())
        blob[40:44] = (len(blob) - 45).to_bytes(4, "little")    # odd data size
        (in_dir / "odd.wav").write_bytes(bytes(blob[:-1]))
        rc = cli.main(["extract", "--in", str(in_dir), "--out", str(tmp_path / "feat")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {in_dir / 'odd.wav'}: ")

    @pytest.mark.parametrize("rate, n_samples, message", [
        (8000, 8000, "waveform rate 8000 != configured 16000"),
        (16000, 100, "input of 100 samples shorter than one 400-sample frame"),
        (16000, 500, "mvn needs at least 2 frames"),
        (16000, 0, "empty data chunk"),
    ])
    def test_error_line_names_wav_once(self, tmp_path, capsys, rate, n_samples, message):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        wav = in_dir / "bad.wav"
        write_wav(wav, np.full(n_samples, 0.1), sample_rate=rate)
        rc = cli.main(["extract", "--in", str(in_dir), "--out", str(tmp_path / "feat")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {wav}: {message}\n"

    def test_no_wavs_writes_no_out_dir(self, tmp_path, capsys):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        out_dir = tmp_path / "feat"
        assert cli.main(["extract", "--in", str(in_dir), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: no .wav files in {in_dir}\n"
        assert not out_dir.exists()

    def test_seed_environment_is_not_read(self, tmp_path, capsys, monkeypatch):
        # extract draws no random numbers, so a bad FREQATTN_SEED is no error here
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        self.write_wavs(in_dir, n=1)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfgmod.RunConfig()))
        monkeypatch.setenv("FREQATTN_SEED", "abc")
        assert cli.main(["extract", "--in", str(in_dir), "--out", str(tmp_path / "feat"),
                         "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "feat" / "u0.feat").exists()

    def test_rerun_bitwise_identical(self, tmp_path, capsys):
        in_dir = tmp_path / "wav"
        in_dir.mkdir()
        self.write_wavs(in_dir, n=1)
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert cli.main(["extract", "--in", str(in_dir), "--out", str(out1)]) == 0
        assert cli.main(["extract", "--in", str(in_dir), "--out", str(out2)]) == 0
        assert (out1 / "u0.feat").read_bytes() == (out2 / "u0.feat").read_bytes()


class TestSynth:
    def test_emits_dataset_and_trials(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = cli.main(["synth", "--out", str(out), "--speakers", "4",
                       "--utts", "6", "--test-utts", "2", "--trials", "20",
                       "--seed", "3"])
        assert rc == 0
        assert len(list((out / "feats").glob("*.feat"))) == 24
        train_lines = (out / "train.txt").read_text().strip().splitlines()
        assert len(train_lines) == 16          # 4 speakers x 4 train utterances
        trial_lines = (out / "trials.txt").read_text().strip().splitlines()
        assert len(trial_lines) == 20
        labels = {line.split()[0] for line in trial_lines}
        assert labels == {"0", "1"}

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["synth", "--out", str(out), "--speakers", "3",
                      "--utts", "4", "--test-utts", "1", "--trials", "6",
                      "--seed", "5"])
        assert (a / "train.txt").read_text() == (b / "train.txt").read_text()
        assert (a / "trials.txt").read_text() == (b / "trials.txt").read_text()
        fa = sorted((a / "feats").glob("*.feat"))
        fb = sorted((b / "feats").glob("*.feat"))
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(fa, fb))


@pytest.fixture(scope="module")
def trained_checkpoint(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("train")
    cfg = tiny_run_config()
    cfg.train_list = str(synth_dir / "train.txt")
    cfg.features_dir = str(synth_dir / "feats")
    cfg_path = work / "run.cfg"
    cfg_path.write_text(cfgmod.serialize_config(cfg))
    ckpt = work / "model.ckpt"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt)])
    assert rc == 0
    return cfg_path, ckpt


class TestTrain:
    def test_writes_checkpoint_with_magic(self, trained_checkpoint, capsys):
        _, ckpt = trained_checkpoint
        assert ckpt.read_bytes()[:4] == b"FAMC"

    def test_embedded_config_text_is_pinned(self, synth_dir, trained_checkpoint):
        _, ckpt = trained_checkpoint
        text, _ = sn.load_checkpoint(ckpt)
        assert text == config_lines(
            "attention.aggregation = avg_max",
            "attention.k = 2,4",
            "attention.reduction = 4",
            "attention.variant = mfsc",
            "features.crop_seconds = 2.0",
            "features.fmax = 0.0",
            "features.fmin = 0.0",
            "features.frame_len_ms = 25.0",
            "features.frame_shift_ms = 10.0",
            "features.log_floor = 1e-10",
            "features.mvn = true",
            "features.n_fft = 512",
            "features.n_mels = 64",
            "features.sample_rate = 16000",
            "features.specaug = false",
            "loss.margin = 0.2",
            "loss.scale = 30.0",
            "network.embedding_dim = 16",
            "network.in_channels = 1",
            "network.num_speakers = 4",
            "network.stages = 8:3:2,16:3:2",
            "optimizer.batch = 8",
            "optimizer.epochs = 2",
            "optimizer.lr = 0.001",
            f"paths.features_dir = {synth_dir / 'feats'}",
            f"paths.train_list = {synth_dir / 'train.txt'}",
            "seed = 7",
        )

    def test_epoch_lines_logged(self, synth_dir, tmp_path, capsys):
        cfg = tiny_run_config()
        cfg.train.epochs = 1
        cfg.train_list = str(synth_dir / "train.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "m.ckpt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch=1 loss=" in out and "acc=" in out

    def test_every_crop_is_crop_frames_wide(self, synth_dir, tmp_path, capsys,
                                            monkeypatch):
        cfg = tiny_run_config()
        cfg.train.epochs = 1
        cfg.mel.frame_shift_ms, cfg.crop_seconds = 12.5, 1.37     # 109.6 frames
        cfg.train_list = str(synth_dir / "train.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        shapes, forward = [], sn.forward_train

        def recording_forward(net, x):
            shapes.append(x.shape)
            return forward(net, x)
        monkeypatch.setattr(sn, "forward_train", recording_forward)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # no worker
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "m.ckpt")]) == 0
        assert shapes == 16 * [(1, 64, 110)]

    def test_batch_above_the_example_count_is_one_batch(self, synth_dir, tmp_path,
                                                        capsys):
        # the batch rows are sized by the examples a batch can hold, not by
        # optimizer.batch alone
        runs = []
        for batch in (16, 1_000_000_000):
            cfg = tiny_run_config()
            cfg.train.batch_size = batch
            cfg.train_list = str(synth_dir / "train.txt")
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(cfgmod.serialize_config(cfg))
            ckpt = tmp_path / f"b{batch}.ckpt"
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
            out = capsys.readouterr().out
            assert " examples=16 " in out
            runs.append(([line for line in out.splitlines() if line.startswith("epoch=")],
                         sn.load_checkpoint(ckpt)[1]))
        (lines, params), (big_lines, big_params) = runs
        assert len(lines) == 2 and big_lines == lines
        assert [name for name, _ in big_params] == [name for name, _ in params]
        for (name, a), (_, b) in zip(params, big_params):
            assert np.array_equal(a, b), name

    def test_same_config_twice_identical_checkpoints(self, synth_dir, tmp_path, capsys):
        cfg = tiny_run_config()
        cfg.train.epochs = 1
        cfg.train_list = str(synth_dir / "train.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(c1)]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_sfsc_divisibility_rejected_before_training(self, synth_dir, tmp_path,
                                                        capsys):
        cfg = tiny_run_config()
        cfg.network.attention_variant = "sfsc"
        cfg.network.attention_k = (3, 4)      # 8 % 3 != 0
        cfg.train_list = str(synth_dir / "train.txt")
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.ckpt")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "divisible" in captured.err
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_train_list_rejected(self, tmp_path, capsys):
        cfg = tiny_run_config()
        cfg.train_list = str(tmp_path / "absent.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["header_cut", "nan", "zero_frames", "zero_bins"])
    def test_bad_feature_file_names_it(self, synth_dir, tmp_path, capsys, damage):
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        lines = (synth_dir / "train.txt").read_text().splitlines()
        for line in lines:
            name = line.split()[1]
            (tmp_path / name).write_bytes((synth_dir / name).read_bytes())
        bad = tmp_path / lines[0].split()[1]
        if damage == "header_cut":
            bad.write_bytes(bad.read_bytes()[:15])
        elif damage == "zero_frames":
            feats.write_feat(bad, np.zeros((64, 0)))
        elif damage == "zero_bins":
            feats.write_feat(bad, np.zeros((0, 200)))
        else:
            x = feats.read_feat(bad, 64)
            x[5, 7] = np.nan
            feats.write_feat(bad, x)
        (tmp_path / "train.txt").write_text("\n".join(lines) + "\n")
        cfg = tiny_run_config()
        cfg.train_list = str(tmp_path / "train.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: "), err
        assert not (tmp_path / "x.ckpt").exists()

    def test_nul_byte_in_file_name_names_list_and_line(self, synth_dir, tmp_path, capsys):
        train = tmp_path / "train.txt"
        train.write_text((synth_dir / "train.txt").read_text() + "spk000 feats/x\0y.feat\n")
        cfg = tiny_run_config()
        cfg.train_list = str(train)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {train}: line 17: NUL byte in file name 'feats/x\\x00y.feat'\n")

    @pytest.mark.parametrize("cause", ["huge_features", "huge_lr"])
    def test_divergence_is_one_error_line_naming_the_example(self, synth_dir, tmp_path,
                                                              cause):
        cfg = tiny_run_config()
        train = synth_dir / "train.txt"
        if cause == "huge_features":        # finite values whose squares overflow
            bad = tmp_path / "huge.feat"
            feats.write_feat(bad, np.full((64, 250), 1e300))
            lines = [f"{spk} {synth_dir / name}" for spk, name in
                     map(str.split, train.read_text().splitlines())]
            train = tmp_path / "train.txt"
            train.write_text("".join(line + "\n" for line in lines + ["spk000 huge.feat"]))
        else:
            cfg.train.lr = 1e300
        cfg.train_list = str(train)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        errors = []
        for n in (1, 2, 3):
            proc = run_fresh("train", "--config", cfg_path, "--out", tmp_path / "x.ckpt",
                             cpus=n)
            assert proc.returncode == 1
            errors.append(proc.stderr)
        assert errors == 3 * errors[:1]
        match = re.fullmatch(r"error: (.+): aam_loss: embedding has zero or "
                             r"non-finite norm \(epoch 1, batch (\d+)\)\n", errors[0])
        assert match, errors[0]
        if cause == "huge_features":
            assert match[1] == str(bad)
        else:       # the first Adam step grows every weight to about 1e300
            assert Path(match[1]).parent == synth_dir / "feats"
            assert match[2] == "2"
        assert not (tmp_path / "x.ckpt").exists()

    def test_env_seed_override_reaches_training(self, synth_dir, tmp_path,
                                                capsys, monkeypatch):
        cfg = tiny_run_config()
        cfg.train.epochs = 1
        cfg.train_list = str(synth_dir / "train.txt")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfgmod.serialize_config(cfg))
        monkeypatch.setenv("FREQATTN_SEED", "99")
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "m.ckpt")])
        assert rc == 0
        assert "seed=99" in capsys.readouterr().out


class TestScoreAndMetrics:
    def test_score_writes_six_decimal_scores(self, synth_dir, trained_checkpoint,
                                             tmp_path, capsys):
        _, ckpt = trained_checkpoint
        scores = tmp_path / "scores.txt"
        rc = cli.main(["score", "--checkpoint", str(ckpt),
                       "--trials", str(synth_dir / "trials.txt"),
                       "--features", str(synth_dir / "feats"),
                       "--out", str(scores)])
        assert rc == 0
        lines = scores.read_text().strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            parts = line.split()
            assert len(parts) == 4
            whole, frac = parts[3].lstrip("-").split(".")
            assert len(frac) == 6

    def test_score_is_deterministic(self, synth_dir, trained_checkpoint, tmp_path,
                                    capsys):
        _, ckpt = trained_checkpoint
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for out in (s1, s2):
            assert cli.main(["score", "--checkpoint", str(ckpt),
                             "--trials", str(synth_dir / "trials.txt"),
                             "--features", str(synth_dir / "feats"),
                             "--out", str(out)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_bad_trial_line_names_trial_list(self, synth_dir, trained_checkpoint,
                                             tmp_path, capsys):
        _, ckpt = trained_checkpoint
        trials = tmp_path / "trials.txt"
        trials.write_text("1 spk000_utt004.feat spk000_utt005.feat\n1 ghost.feat\n")
        rc = cli.main(["score", "--checkpoint", str(ckpt), "--trials", str(trials),
                       "--features", str(synth_dir / "feats"),
                       "--out", str(tmp_path / "s.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {trials}: line 2: expected 3 fields, got 2\n")
        assert not (tmp_path / "s.txt").exists()

    def test_wav_trial_ids_find_extracted_features(self, trained_checkpoint, tmp_path,
                                                   capsys):
        # extract writes u0.wav as u0.feat; score looks a .wav trial id up by its stem
        _, ckpt = trained_checkpoint
        wav_dir, feat_dir = tmp_path / "wav", tmp_path / "feat"
        wav_dir.mkdir()
        rng = np.random.default_rng(1)
        for name in ("u0.wav", "u1.wav"):
            write_wav(wav_dir / name, rng.uniform(-0.5, 0.5, 9600))
        assert cli.main(["extract", "--in", str(wav_dir), "--out", str(feat_dir)]) == 0
        trials = tmp_path / "trials.txt"
        trials.write_text("1 u0.wav u0.wav\n0 u0.wav u1.wav\n")
        scores = tmp_path / "s.txt"
        assert cli.main(["score", "--checkpoint", str(ckpt), "--trials", str(trials),
                         "--features", str(feat_dir), "--out", str(scores)]) == 0
        scored = mt.parse_scores(scores.read_text())
        assert [(label, scored.ids[e], scored.ids[t]) for label, e, t in
                zip(scored.labels, scored.enroll, scored.test)] == [
            (1, "u0.wav", "u0.wav"), (0, "u0.wav", "u1.wav")]
        assert np.all(np.isfinite(scored.scores))
        assert scored.scores[0] == 1.0 and scored.scores[1] < 1.0

    def test_nested_trial_ids_keep_their_directories(self, synth_dir, trained_checkpoint,
                                                     tmp_path, capsys):
        # a/1.wav, b/1.wav and c/1.wav are three utterances; the flat 1.feat
        # beside them is a fourth, the one a lookup by file name alone reads
        _, ckpt = trained_checkpoint
        names = sorted(p.name for p in (synth_dir / "feats").glob("*.feat"))[:4]
        for d, name in zip(("a", "b", "c", "."), names):
            (tmp_path / d).mkdir(exist_ok=True)
            os.symlink(synth_dir / "feats" / name, tmp_path / d / "1.feat")
        scores = []
        for ids, features in ((("a/1.wav", "b/1.wav", "c/1.wav"), tmp_path),
                              (names[:3], synth_dir / "feats")):
            trials = tmp_path / "trials.txt"
            trials.write_text(f"1 {ids[0]} {ids[1]}\n0 {ids[1]} {ids[2]}\n")
            assert run_score(ckpt, trials, features, tmp_path / "s.txt") == 0
            scores.append([line.split()[3] for line in
                           (tmp_path / "s.txt").read_text().splitlines()])
        assert scores[0] == scores[1] and "1.000000" not in scores[0]

    def test_unknown_trial_id_fails_with_name(self, synth_dir, trained_checkpoint,
                                              tmp_path, capsys):
        # ".", "..", "/" and "a/" name a directory or nothing, "/" has no
        # name to give a suffix to; each is one error line naming the id
        _, ckpt = trained_checkpoint
        trials, out = tmp_path / "trials.txt", tmp_path / "s.txt"
        for trial_id in ("ghost.feat", ".", "..", "/", "a/"):
            trials.write_text(f"1 {trial_id} spk000_utt004.feat\n")
            assert run_score(ckpt, trials, synth_dir / "feats", out) == 1
            assert capsys.readouterr().err == (
                f"error: no feature file for trial id {trial_id!r} "
                f"under {synth_dir / 'feats'}\n")
            assert not out.exists()

    def test_scores_equal_a_per_trial_loop(self, synth_dir, trained_checkpoint, tmp_path):
        # the reference embeds each trial's two utterances and scores the pair
        # with np.dot, one trial at a time
        _, ckpt = trained_checkpoint
        out = tmp_path / "s.txt"
        assert run_score(ckpt, synth_dir / "trials.txt", synth_dir / "feats", out) == 0
        cfg, net = cli._load_model(ckpt)

        def embed(tid):
            x = feats.read_feat(synth_dir / "feats" / tid, cfg.mel.n_mels)
            return sn.forward_embed(net, x[None, :, :])
        lines = []
        for line in (synth_dir / "trials.txt").read_text().splitlines():
            label, enroll, test = line.split()
            a, b = embed(enroll), embed(test)
            score = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            lines.append(f"{label} {enroll} {test} {score:.6f}\n")
        assert len(lines) == 20
        assert out.read_text() == "".join(lines)

    def test_metrics_on_derived_four_score_set(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("1 a b 0.900000\n1 c d 0.200000\n"
                          "0 e f 0.800000\n0 g h 0.100000\n")
        assert cli.main(["metrics", "--scores", str(scores)]) == 0
        out = capsys.readouterr().out
        assert "EER=50.000000 minDCF=0.500000" in out

    def test_metrics_rejects_non_finite_score(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("1 a b 0.900000\n1 c d nan\n"
                          "0 e f 0.200000\n0 g h 0.100000\n")
        assert cli.main(["metrics", "--scores", str(scores)]) == 1
        captured = capsys.readouterr()
        assert "EER=" not in captured.out
        assert captured.err == f"error: {scores}: non-finite score nan for trial c d\n"

    @pytest.mark.parametrize("content, message", [
        (b"1 a b 0.900000\n1 c 0.800000\n", "line 2: expected 4 fields, got 3"),
        (b"1 a b 0.900000\n1 c d 0.8\xff\n", "not UTF-8 text"),
    ])
    def test_metrics_bad_line_names_scores_file(self, tmp_path, capsys, content, message):
        scores = tmp_path / "scores.txt"
        scores.write_bytes(content)
        assert cli.main(["metrics", "--scores", str(scores)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {scores}: "), err
        assert message in err

    def test_metrics_stdout_is_pinned(self, tmp_path, capsys):
        rng = np.random.default_rng(30)
        lines = [f"1 e{i} t{i} {s:.2f}" for i, s in enumerate(rng.normal(0.3, 0.4, 40))]
        lines += [f"0 e{i} t{i} {s:.2f}" for i, s in enumerate(rng.normal(-0.1, 0.4, 160))]
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(lines) + "\n")
        assert cli.main(["metrics", "--scores", str(scores)]) == 0
        assert capsys.readouterr().out == "EER=31.346154 minDCF=0.900000\n"

    def test_metrics_perfect_separation(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("1 a b 0.900000\n1 c d 0.800000\n"
                          "0 e f 0.200000\n0 g h 0.100000\n")
        assert cli.main(["metrics", "--scores", str(scores)]) == 0
        assert "EER=0.000000" in capsys.readouterr().out


class TestKeepFreedMemory:
    """cli.main keeps freed conv temporaries in the heap instead of the kernel."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc malloc only")
    def test_steady_state_epochs_take_few_page_faults(self, synth_dir, tmp_path):
        import resource     # POSIX only
        examples = len((synth_dir / "train.txt").read_text().splitlines())
        faults = {}
        for epochs in (1, 3):
            cfg = cfgmod.RunConfig()      # the default network: temporaries up to ~0.9 MB
            cfg.train.epochs = epochs
            cfg.train_list = str(synth_dir / "train.txt")
            cfg_path = tmp_path / f"e{epochs}.cfg"
            cfg_path.write_text(cfgmod.serialize_config(cfg))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert cli.main(["train", "--config", str(cfg_path),
                             "--out", str(tmp_path / f"e{epochs}.ckpt")]) == 0
            faults[epochs] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # the two extra epochs, without first-touch heap growth; with glibc's
        # default thresholds this was 560-720 faults per example
        per_example = (faults[3] - faults[1]) / (2 * examples)
        assert per_example < 100, faults

    def test_returns_quietly_on_this_libc(self):
        assert cli._keep_freed_memory() is None

    @pytest.mark.parametrize("libc, lookup", [
        (("", ""), None),                       # not glibc: the libc is never opened
        (("glibc", "2.36"), OSError("no libc")),
        (("glibc", "2.36"), AttributeError("mallopt")),
    ], ids=["not_glibc", "no_libc", "no_mallopt"])
    def test_no_mallopt_without_glibc_mallopt(self, monkeypatch, libc, lookup):
        calls = []

        class FakeLibc:
            def __init__(self, name):
                if lookup is not None:
                    raise lookup

            def mallopt(self, *args):
                calls.append(args)

        monkeypatch.setattr(cli.platform, "libc_ver", lambda: libc)
        monkeypatch.setattr(cli.ctypes, "CDLL", FakeLibc)
        assert cli._keep_freed_memory() is None
        assert calls == []


class TestScoreRejectsBadInputs:
    score = staticmethod(run_score)

    def test_checkpoint_cut_at_every_offset(self, synth_dir, tmp_path, capsys):
        # the smallest network keeps the loop short; every field kind is still cut
        cfg = tiny_run_config()
        cfg.network.stages = ((2, 3, 2),)
        cfg.network.embedding_dim = 2
        cfg.network.num_speakers = 2
        cfg.network.attention_k = (2,)
        cfg.network.reduction = 2
        cut = tmp_path / "cut.ckpt"
        save_untrained_checkpoint(cut, cfg)
        scores = tmp_path / "s.txt"
        for size in reversed(range(cut.stat().st_size)):
            os.truncate(cut, size)
            rc = self.score(cut, synth_dir / "trials.txt", synth_dir / "feats", scores)
            err = capsys.readouterr().err
            assert rc == 1, size
            assert err.count("\n") == 1 and err.startswith(f"error: {cut}: "), (size, err)
        assert not scores.exists()

    def test_short_utterance_error_names_feature_file(self, tmp_path, capsys):
        cfg = cfgmod.RunConfig()
        cfg.network.attention_variant = "sfsc"
        cfg.network.num_speakers = 2
        ckpt = tmp_path / "sfsc.ckpt"
        save_untrained_checkpoint(ckpt, cfg)
        rng = np.random.default_rng(0)
        for name, frames in (("short.feat", 6), ("long.feat", 200)):
            feats.write_feat(tmp_path / name, rng.standard_normal((64, frames)))
        trials = tmp_path / "trials.txt"
        trials.write_text("1 long.feat short.feat\n")
        rc = self.score(ckpt, trials, tmp_path, tmp_path / "s.txt")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'short.feat'}: 6 frames, fewer than the 9 that "
            f"network.stages and attention.k need\n")

    @pytest.mark.parametrize("frames", [1, 8, 9])
    def test_minimum_length_is_the_same_for_every_variant(self, tmp_path, capsys,
                                                          frames):
        # the default network's k = 4,8,16 need 9 frames, whatever the variant
        rng = np.random.default_rng(0)
        feats.write_feat(tmp_path / "long.feat", rng.standard_normal((64, 200)))
        feats.write_feat(tmp_path / "utt.feat", rng.standard_normal((64, frames)))
        trials = tmp_path / "trials.txt"
        trials.write_text("1 long.feat utt.feat\n")
        outcomes = []
        for variant, aggregation in (("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")):
            cfg = cfgmod.RunConfig()
            cfg.network.attention_variant = variant
            cfg.network.aggregation = aggregation
            cfg.network.num_speakers = 2
            ckpt = tmp_path / f"{variant}.ckpt"
            save_untrained_checkpoint(ckpt, cfg)
            rc = self.score(ckpt, trials, tmp_path, tmp_path / f"{variant}.txt")
            outcomes.append((rc, capsys.readouterr().err))
        if frames < 9:
            assert outcomes == 3 * [(1, f"error: {tmp_path / 'utt.feat'}: {frames} frames, "
                                        f"fewer than the 9 that network.stages and "
                                        f"attention.k need\n")]
        else:
            assert outcomes == 3 * [(0, "")]

    @pytest.mark.parametrize("damage", ["parse", "range", "utf8"])
    def test_bad_embedded_config_names_checkpoint(self, synth_dir, tmp_path, capsys,
                                                  damage):
        cfg = tiny_run_config()
        cfg.network.num_speakers = 4
        ckpt = tmp_path / "model.ckpt"
        save_untrained_checkpoint(ckpt, cfg)
        blob = bytearray(ckpt.read_bytes())
        text = cfgmod.serialize_config(cfg).encode()
        assert blob[12:12 + len(text)] == text      # after magic, version, length
        if damage == "parse":
            at = 12 + text.index(b"0.001")
            blob[at:at + 5] = b"0.0x1"
        elif damage == "range":
            at = 12 + text.index(b"attention.reduction = 4")
            blob[at + 22] = ord("0")
        else:
            blob[12] = 0xFF
        ckpt.write_bytes(bytes(blob))
        rc = self.score(ckpt, synth_dir / "trials.txt", synth_dir / "feats",
                        tmp_path / "s.txt")
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {ckpt}: "), err
        assert {"parse": "line 24: bad value for optimizer.lr",
                "range": "reduction must be >= 1",
                "utf8": "not UTF-8"}[damage] in err
        assert not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("damage", ["nan_weight", "scaled_1e300", "proj_1e160"])
    def test_non_finite_embedding_names_feature_file(self, synth_dir, tmp_path,
                                                     damage):
        cfg = tiny_run_config()
        cfg.network.num_speakers = 4
        net = sn.SpeakerNet(cfg.network, np.random.default_rng(0))
        head = sn.AamHead(4, 16, cfg.margin, cfg.scale, np.random.default_rng(0))
        params = net.parameters() + head.parameters()
        if damage == "nan_weight":
            params[0].value[0, 0, 1, 1] = np.nan
        elif damage == "proj_1e160":        # finite embeddings whose norm overflows
            net.proj.value *= 1e160
        else:
            for p in params:
                p.value *= 1e300
        ckpt = tmp_path / "model.ckpt"
        sn.save_checkpoint(ckpt, cfgmod.serialize_config(cfg), params)
        first = (synth_dir / "trials.txt").read_text().split()[1]
        scores = tmp_path / "s.txt"
        proc = run_fresh("score", "--checkpoint", ckpt, "--trials", synth_dir / "trials.txt",
                         "--features", synth_dir / "feats", "--out", scores)
        assert proc.returncode == 1
        if damage == "nan_weight":      # rejected as the checkpoint is read
            assert proc.stderr == (f"error: {ckpt}: non-finite value nan in stage0.conv.w "
                                   f"at [0, 0, 1, 1] (1 in all)\n")
        elif damage == "proj_1e160":
            assert proc.stderr == (f"error: {synth_dir / 'feats' / first}: "
                                   f"embedding norm overflows\n")
        else:                           # finite weights whose embeddings overflow
            assert proc.stderr == (f"error: {synth_dir / 'feats' / first}: "
                                   f"non-finite embedding\n")
        assert not scores.exists()

    def test_zero_norm_embedding_names_feature_file(self, synth_dir, tmp_path, capsys):
        cfg = tiny_run_config()
        cfg.network.num_speakers = 4
        net = sn.SpeakerNet(cfg.network, np.random.default_rng(0))
        net.proj.value[...] = 0.0           # every embedding is the zero vector
        head = sn.AamHead(4, 16, cfg.margin, cfg.scale, np.random.default_rng(0))
        ckpt = tmp_path / "model.ckpt"
        sn.save_checkpoint(ckpt, cfgmod.serialize_config(cfg),
                           net.parameters() + head.parameters())
        first = (synth_dir / "trials.txt").read_text().split()[1]
        scores = tmp_path / "s.txt"
        rc = self.score(ckpt, synth_dir / "trials.txt", synth_dir / "feats", scores)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {synth_dir / 'feats' / first}: zero-norm embedding\n")
        assert not scores.exists()


# one bad value (or pair) per case, and text the error must hold: the field
# name, as the runtime object that owns the field reports it
BAD_CONFIG_CASES = {
    "frame_shift_zero": ({"features.frame_shift_ms": "0.0"}, "frame_shift_ms"),
    "frame_shift_inf": ({"features.frame_shift_ms": "inf"},
                        "bad value for features.frame_shift_ms: 'inf' (not a finite"),
    "n_mels_zero": ({"features.n_mels": "0"}, "n_mels"),
    "embedding_dim_zero": ({"network.embedding_dim": "0"}, "embedding_dim"),
    "in_channels_zero": ({"network.in_channels": "0"}, "in_channels"),
    "in_channels_two": ({"network.in_channels": "2"}, "in_channels must be 1"),
    "kernel_zero": ({"network.stages": "8:0:2,16:3:2"}, "stages[0] = 8:0:2"),
    "stride_zero": ({"network.stages": "8:3:2,16:3:0"}, "stages[1] = 16:3:0"),
    "sfsc_k_zero": ({"attention.variant": "sfsc", "attention.k": "0,4"},
                    "sfsc needs k >= 1"),
    "margin_negative": ({"loss.margin": "-0.1"}, "margin"),
    "batch_zero": ({"optimizer.batch": "0"}, "batch_size"),
    "crop_huge": ({"features.crop_seconds": "1e308"}, "crop_seconds"),
    "crop_huge_negative": ({"features.crop_seconds": "-1e308"}, "must give a crop of >= "),
    "crop_over_limit": ({"features.crop_seconds": "10000000.0"},
                        "crop_seconds=10000000.0 gives 1000000000 frames at "
                        "frame_shift_ms=10.0, above the limit of 60000"),
    # 5 frames; k = 64 on the 16 frequency rows of the second stage needs 13
    "crop_below_min_frames": ({"features.crop_seconds": "0.05", "attention.k": "16,64"},
                              "crop of >= 13 frames"),
    "frame_len_overflow": ({"features.frame_len_ms": "1e306"}, "frame_len_ms"),
    "sample_rate_401_digits": ({"features.sample_rate": "9" * 401}, "sample_rate"),
    "fmax_at_sample_rate": ({"features.fmax": "16000.0"}, "fmax=16000.0 Hz is above"),
    "fmax_huge": ({"features.fmax": "1e300"}, "fmax=1e+300 Hz is above"),
    "n_fft_30_digits": ({"features.n_fft": "9" * 30}, "n_fft"),
    "n_fft_over_limit": ({"features.n_fft": "65537"}, "n_fft=65537 is above"),
    "n_mels_30_digits": ({"features.n_mels": "9" * 30}, "n_mels"),
    "n_mels_over_fft_bins": ({"features.n_mels": "258"}, "n_mels=258 exceeds the 257"),
    "num_speakers_negative": ({"network.num_speakers": "-32"}, "num_speakers must be >= 0"),
    # each first array of the network would be over 1 TiB
    "embedding_dim_huge": ({"network.embedding_dim": "999999999999"},
                           "above the limit of 100000000"),
    "stage_channels_huge": ({"network.stages": "99999999999:3:2,16:3:2"},
                            "above the limit of 100000000"),
    "kernel_huge": ({"network.stages": "8:999999:2,16:3:2"},
                    "above the limit of 100000000"),
}


@pytest.mark.parametrize("command", ["train", "extract"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIG_CASES))
def test_bad_config_value_is_one_named_error(synth_dir, tmp_path, capsys, command,
                                             case):
    changes, field = BAD_CONFIG_CASES[case]
    cfg = tiny_run_config()
    cfg.train_list = str(synth_dir / "train.txt")
    lines = cfgmod.serialize_config(cfg).splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    for key, value in changes.items():
        lines[keys.index(key)] = f"{key} = {value}"
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(cfg_path), "--out", str(out)]
    else:
        wav_dir = tmp_path / "wav"
        wav_dir.mkdir()
        write_wav(wav_dir / "u0.wav", np.zeros(8000))
        argv = ["extract", "--in", str(wav_dir), "--out", str(out), "--config",
                str(cfg_path)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {cfg_path}: "), err
    assert field in err
    assert not out.exists()


class BadInput:
    """Files for one bad-input case: a tiny training config and the synth corpus."""

    def __init__(self, tmp_path, synth_dir, checkpoint, monkeypatch):
        self.tmp, self.synth_dir, self.checkpoint = tmp_path, synth_dir, checkpoint
        self.setenv = monkeypatch.setenv
        self.setattr = monkeypatch.setattr

    def score(self, out):
        """A score command whose --out is `out`; it fails if it reaches an embedding."""
        def never(*args):
            raise AssertionError("score embedded an utterance before trying --out")
        self.setattr(sn, "forward_embed", never)
        return ["score", "--checkpoint", str(self.checkpoint),
                "--trials", str(self.synth_dir / "trials.txt"),
                "--features", str(self.synth_dir / "feats"), "--out", str(out)]

    def config(self, *extra_lines, train_list=None):
        cfg = tiny_run_config()
        cfg.train.epochs = 1
        cfg.train_list = str(train_list or self.synth_dir / "train.txt")
        path = self.tmp / "run.cfg"
        path.write_text(cfgmod.serialize_config(cfg) + config_lines(*extra_lines))
        return path

    def train(self, config=None, out=None):
        return ["train", "--config", str(config or self.config()),
                "--out", str(out or self.tmp / "m.ckpt")]

    def feat(self, name, n_mels):
        path = self.tmp / name
        rng = np.random.default_rng(0)
        feats.write_feat(path, rng.standard_normal((n_mels, 300)))
        return path


def _negative_seed_key(w):
    cfg = w.config("seed = -1")
    return w.train(cfg), f"{cfg}: seed must be a non-negative integer, got -1"


def _negative_env_seed(w):
    w.setenv("FREQATTN_SEED", "-1")
    return w.train(), "FREQATTN_SEED must be a non-negative integer, got '-1'"


def _non_integer_env_seed_synth(w):
    w.setenv("FREQATTN_SEED", "abc")
    return (["synth", "--out", str(w.tmp / "s")],
            "FREQATTN_SEED must be a non-negative integer, got 'abc'")


def _negative_synth_seed(w):
    return (["synth", "--out", str(w.tmp / "s"), "--seed", "-1"],
            "--seed must be a non-negative integer, got -1")


def _negative_synth_trials(w):
    return ["synth", "--out", str(w.tmp / "s"), "--trials", "-5"], "--trials must be >= 0"


def _negative_synth_test_utts(w):
    return (["synth", "--out", str(w.tmp / "s"), "--test-utts", "-1"],
            "--test-utts must be >= 0")


def _non_utf8_train_list(w):
    bad = w.tmp / "train.txt"
    bad.write_bytes(b"spk000 feats/a.feat\n\xff\n")
    return w.train(w.config(train_list=bad)), f"{bad}: not UTF-8 text"


def _narrow_feat_scored(w):
    bad = w.feat("narrow.feat", 2)
    trials = w.tmp / "trials.txt"
    trials.write_text("1 narrow.feat narrow.feat\n")
    return (["score", "--checkpoint", str(w.checkpoint), "--trials", str(trials),
             "--features", str(w.tmp), "--out", str(w.tmp / "s.txt")],
            f"{bad}: 2 mel bins, config has features.n_mels = 64")


def _one_speaker_trained(w):
    train_list = w.tmp / "train.txt"
    lines = (w.synth_dir / "train.txt").read_text().splitlines()
    train_list.write_text("".join(f"{line.split()[0]} {w.synth_dir / line.split()[1]}\n"
                                  for line in lines if line.startswith("spk000 ")))
    return (w.train(w.config(train_list=train_list)),
            f"{train_list}: one speaker (spk000); training needs at least 2")


def _speaker_count_mismatch(w):
    cfg = w.config("network.num_speakers = 3")       # the synth corpus has 4 speakers
    return w.train(cfg), f"{cfg}: config says 3 speakers, training list has 4"


def _mixed_bin_counts_trained(w):
    bad = w.feat("forty.feat", 40)
    train_list = w.tmp / "train.txt"
    first = (w.synth_dir / "train.txt").read_text().splitlines()[0]
    train_list.write_text(f"{first.split()[0]} {w.synth_dir / first.split()[1]}\n"
                          f"spk999 forty.feat\n")
    return (w.train(w.config(train_list=train_list)),
            f"{bad}: 40 mel bins, config has features.n_mels = 64")


def _train_out_is_directory(w):
    out = w.tmp / "out"
    out.mkdir()
    return w.train(out=out), f"{out}: Is a directory"


def _train_out_in_missing_dir(w):
    out = w.tmp / "missing" / "m.ckpt"
    return w.train(out=out), f"{out}: No such file or directory"


def _score_out_is_directory(w):
    out = w.tmp / "out"
    out.mkdir()
    return w.score(out), f"{out}: Is a directory"


def _score_out_in_missing_dir(w):
    out = w.tmp / "missing" / "s.txt"
    return w.score(out), f"{out}: No such file or directory"


def _train_config_is_directory(w):
    return w.train(config=w.tmp), f"{w.tmp}: Is a directory"


def _extract_out_is_file(w):
    (w.tmp / "wav").mkdir()
    write_wav(w.tmp / "wav" / "u0.wav", np.zeros(8000))
    out = w.tmp / "taken"
    out.write_text("")
    return ["extract", "--in", str(w.tmp / "wav"), "--out", str(out)], f"{out}: File exists"


def _extract_without_wavs(w):
    (w.tmp / "wav").mkdir()
    (w.tmp / "wav" / "u0.txt").write_text("")
    return (["extract", "--in", str(w.tmp / "wav"), "--out", str(w.tmp / "feat")],
            f"no .wav files in {w.tmp / 'wav'}")


BAD_INPUT_CASES = {fn.__name__.lstrip("_"): fn for fn in (
    _negative_seed_key, _negative_env_seed, _non_integer_env_seed_synth,
    _negative_synth_seed, _negative_synth_trials, _negative_synth_test_utts,
    _non_utf8_train_list, _narrow_feat_scored, _one_speaker_trained,
    _speaker_count_mismatch, _mixed_bin_counts_trained,
    _train_out_is_directory, _train_out_in_missing_dir, _train_config_is_directory,
    _score_out_is_directory, _score_out_in_missing_dir,
    _extract_out_is_file, _extract_without_wavs)}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_is_one_error_line(synth_dir, trained_checkpoint, tmp_path, capsys,
                                     monkeypatch, case):
    w = BadInput(tmp_path, synth_dir, trained_checkpoint[1], monkeypatch)
    argv, message = BAD_INPUT_CASES[case](w)
    capsys.readouterr()
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err
    assert "epoch=" not in out      # a bad --out is reported before training, too


def test_bare_value_error_is_a_bug_and_propagates(monkeypatch):
    def broken():
        raise ValueError("a programming error, not a bad input")
    monkeypatch.setattr(cli.dct, "run_verification", broken)
    with pytest.raises(ValueError, match="programming error"):
        cli.main(["verify-dct"])
