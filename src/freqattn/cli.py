"""Command-line entry point.

Subcommands: verify-dct, extract, train, score, metrics, synth. Output is
stable key=value text on stdout; per-file problems go to stderr and flip
the exit code. FREQATTN_SEED in the environment overrides the seed of train
and synth.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dct
from . import features as feats
from . import metrics as mt
from . import shares
from . import speakernet as sn
from .errors import CapacityError, ConfigError, FreqattnError, ParseError, naming

_M_TRIM_THRESHOLD = -1      # glibc malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed temporaries in this process's heap; a no-op off glibc.

    Every training and scoring step allocates and frees the same conv
    temporaries (up to ~1 MB). With glibc's default thresholds, malloc maps
    them and hands them back to the kernel, so each example faults them in
    again. Raising both thresholds keeps them in the heap for reuse.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _report(exc) -> None:
    """One `error: <file>: <message>` line on stderr."""
    if isinstance(exc, OSError) and exc.filename is not None:
        exc = f"{exc.filename}: {exc.strerror}"
    print(f"error: {exc}", file=sys.stderr)


def cmd_verify_dct(args) -> int:
    results = dct.run_verification()
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        ok = ok and r.passed
    return 0 if ok else 1


def cmd_extract(args) -> int:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
    in_dir = Path(args.in_dir)
    wavs = sorted(in_dir.glob("*.wav"))
    if not wavs:
        raise ConfigError(f"no .wav files in {in_dir}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for wav in wavs:
        try:
            wave = feats.read_wav(wav)      # its errors already name the file
            with naming(wav):
                x = feats.logmel(wave, cfg.mel)
                if cfg.mvn:
                    x = feats.mvn(x)
            feats.write_feat(out_dir / (wav.stem + ".feat"), x)
        except (FreqattnError, OSError) as exc:
            _report(exc)
            failures += 1
    print(f"extracted={len(wavs) - failures} failed={failures}")
    return 1 if failures else 0


def _load_train_examples(cfg):
    list_path = Path(cfg.train_list)
    base = list_path.parent
    labels = []
    files = []
    with naming(list_path):
        for lineno, line in enumerate(list_path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<speaker> <file>'")
            if "\0" in parts[1]:
                raise ParseError(f"line {lineno}: NUL byte in file name {parts[1]!r}")
            labels.append(parts[0])
            files.append(base / parts[1])
        if not labels:
            raise ConfigError("empty training list")
        speakers = sorted(set(labels))
        if len(speakers) < 2:
            raise ConfigError(f"one speaker ({speakers[0]}); training needs at least 2")
    index = {s: i for i, s in enumerate(speakers)}
    examples = [(index[label], feats.read_feat(path, cfg.mel.n_mels), path)
                for label, path in zip(labels, files)]
    return examples, speakers


def _build_model(cfg):
    """Network and AAM head drawn from one rng seeded by cfg.seed; returns the rng too."""
    rng = np.random.default_rng(cfg.seed)
    net = sn.SpeakerNet(cfg.network, rng)
    head = sn.AamHead(cfg.network.num_speakers, cfg.network.embedding_dim, cfg.margin,
                      cfg.scale, rng)
    return net, head, rng


def _try_out(path) -> None:
    """Open `path` for writing and put it back as it was: an unwritable output
    fails now, not after the work."""
    existed = os.path.exists(path)
    open(path, "ab").close()
    if not existed:
        os.remove(path)


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    cfg.seed = cfgmod.env_seed(os.environ, cfg.seed)
    for name in ("train_list", "features_dir"):
        value = getattr(cfg, name)
        if value and not Path(value).exists():
            raise ConfigError(f"paths.{name} does not exist: {value}")
    if not cfg.train_list:
        raise ConfigError("paths.train_list is required for training")
    _try_out(args.out)
    examples, speakers = _load_train_examples(cfg)
    if cfg.network.num_speakers == 0:
        cfg.network.num_speakers = len(speakers)
    elif cfg.network.num_speakers != len(speakers):
        with naming(args.config):
            raise ConfigError(f"config says {cfg.network.num_speakers} speakers, "
                              f"training list has {len(speakers)}")

    net, head, rng = _build_model(cfg)
    print(f"seed={cfg.seed} speakers={len(speakers)} examples={len(examples)} "
          f"variant={cfg.network.attention_variant}")
    # a diverging run is reported by aam_loss or the loss check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sn.train(net, head, examples, cfg.train, cfg.crop_frames, rng, log=print)
    sn.save_checkpoint(args.out, cfgmod.serialize_config(cfg),
                       net.parameters() + head.parameters())
    print(f"checkpoint={args.out}")
    return 0


def _load_model(checkpoint_path):
    cfg_text, entries = sn.load_checkpoint(checkpoint_path)
    with naming(checkpoint_path):
        cfg = cfgmod.parse_config(cfg_text)
        net, head, _ = _build_model(cfg)
        sn.restore_parameters(net.parameters() + head.parameters(), entries)
    return cfg, net


def _feature_path(features_dir: Path, trial_id: str) -> Path:
    """The regular file `trial_id` names under `features_dir`, as given or,
    failing that, with its suffix replaced by `.feat`, keeping its
    directories: `a/1.wav` reads `a/1.feat`. An id such as `/` or `.` may name
    a directory, and one with no name has no suffix to replace; either is
    reported by its id."""
    path = features_dir / trial_id
    if path.is_file():
        return path
    if path.name and path.with_suffix(".feat").is_file():
        return path.with_suffix(".feat")
    raise FileNotFoundError(f"no feature file for trial id {trial_id!r} "
                            f"under {features_dir}")


def cmd_score(args) -> int:
    cfg, net = _load_model(args.checkpoint)
    with naming(args.trials):
        trials = mt.parse_trials(Path(args.trials).read_text())
        if not trials.ids:
            raise ConfigError("empty trial list")
    _try_out(args.out)
    features_dir = Path(args.features)
    min_frames = sn.min_frames(cfg.network, cfg.mel.n_mels)

    def embed(tid):
        path = _feature_path(features_dir, tid)
        x = feats.read_feat(path, cfg.mel.n_mels)
        # a non-finite embedding is reported by embedding_norm, not warned about
        with naming(path), np.errstate(over="ignore", invalid="ignore"):
            if x.shape[1] < min_frames:
                raise CapacityError(f"{x.shape[1]} frames, fewer than the {min_frames} "
                                    f"that network.stages and attention.k need")
            emb = sn.forward_embed(net, x[None, :, :])
            return emb, mt.embedding_norm(emb)

    with shares.Workers(embed, len(trials.ids)) as workers:
        embeddings, norms = zip(*workers.map(trials.ids))
    trials.scores = mt.cosine_score(np.stack(embeddings), np.array(norms),
                                    trials.enroll, trials.test)
    Path(args.out).write_text(mt.format_scores(trials))
    print(f"scored={len(trials.labels)} out={args.out}")
    return 0


def cmd_metrics(args) -> int:
    with naming(args.scores):
        trials = mt.parse_scores(Path(args.scores).read_text())
        result = mt.evaluate_trials(trials)
    print(f"EER={result.eer * 100.0:.6f} minDCF={result.min_dcf:.6f}")
    return 0


def cmd_synth(args) -> int:
    seed = (cfgmod.check_seed(args.seed, "--seed") if args.seed is not None
            else cfgmod.env_seed(os.environ, cfgmod.RunConfig.seed))
    if not 0 <= args.test_utts < args.utts:
        raise ConfigError("--test-utts must be >= 0 and smaller than --utts")
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    out = Path(args.out)
    feat_dir = out / "feats"
    feat_dir.mkdir(parents=True, exist_ok=True)

    data = feats.synth_dataset(args.speakers, args.utts, seed)
    train_lines = []
    test_ids = {}
    for utt in data:
        name = f"spk{utt.speaker:03d}_utt{utt.utt:03d}.feat"
        feats.write_feat(feat_dir / name, feats.mvn(utt.features))
        if utt.utt < args.utts - args.test_utts:
            train_lines.append(f"spk{utt.speaker:03d} feats/{name}")
        else:
            test_ids.setdefault(utt.speaker, []).append(name)
    (out / "train.txt").write_text("\n".join(train_lines) + "\n")

    target_pairs = [pair for spk in sorted(test_ids)
                    for pair in itertools.combinations(test_ids[spk], 2)]
    cross_pairs = [(a, b) for s, t in itertools.combinations(sorted(test_ids), 2)
                   for a in test_ids[s] for b in test_ids[t]]

    rng = np.random.default_rng(seed + 1)
    n_target = min(args.trials // 2, len(target_pairs))
    n_non = min(args.trials - n_target, len(cross_pairs))
    if n_target < len(target_pairs):
        keep = rng.choice(len(target_pairs), n_target, replace=False)
        target_pairs = [target_pairs[i] for i in sorted(keep)]
    keep = rng.choice(len(cross_pairs), n_non, replace=False)
    cross_pairs = [cross_pairs[i] for i in sorted(keep)]

    lines = [f"1 {a} {b}" for a, b in target_pairs]
    lines += [f"0 {a} {b}" for a, b in cross_pairs]
    (out / "trials.txt").write_text("\n".join(lines) + "\n")
    print(f"speakers={args.speakers} utterances={len(data)} "
          f"trials={len(lines)} out={out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqattn",
        description="DCT-based multi-frequency channel attention: verification, "
                    "feature extraction, training, scoring, and metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-dct", help="check DCT basis properties")
    p.set_defaults(fn=cmd_verify_dct)

    p = sub.add_parser("extract", help="WAV directory -> FEAT directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="train a speaker embedding network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("score", help="score trials with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("metrics", help="EER/minDCF from a scores file")
    p.add_argument("--scores", required=True)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("synth", help="emit a synthetic dataset and trial list")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=20)
    p.add_argument("--utts", type=int, default=20)
    p.add_argument("--test-utts", type=int, default=5, dest="test_utts")
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FreqattnError, OSError) as exc:
        _report(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
