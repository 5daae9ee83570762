"""Seeded synthetic inputs for the benchmark, written as plain files.

The program under test sees only what this module writes: FEAT feature
files, a training list, a trial list and a run config. Nothing here imports
freqattn, so the inputs for a seed stay the same whatever the program does.

The speaker model follows the one documented for ``freqattn synth``: a
fixed random spectral template per speaker, scaled by a slow two-sine
temporal modulation (speaker rates, utterance phases), plus white noise at
about 10 dB SNR, then per-bin mean/variance normalisation.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_MELS = 64
BATCH = 8                       # optimizer.batch of every workload


@dataclass(frozen=True)
class CorpusSpec:
    train_speakers: int
    train_utts: int             # per training speaker, listed in train.txt
    train_frames: tuple         # (min, max) frames of a training utterance
    test_speakers: int          # unseen in training: trials are open-set
    test_utts: int              # per test speaker
    test_frames: tuple          # (min, max) frames of a test utterance
    nontarget_trials: int       # sampled cross-speaker pairs (all target pairs are kept)


def _write(path: Path, data: bytes) -> None:
    """Write and fsync, so that writeback of the inputs happens in set-up and
    not in the middle of a measurement."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def write_feat(path: Path, values: np.ndarray) -> None:
    """FEAT v1: magic, u32 version, u32 rank, u32 dims, f64 LE row-major."""
    values = np.ascontiguousarray(values, dtype="<f8")
    header = b"FEAT" + struct.pack("<II", 1, 2) + struct.pack("<2I", *values.shape)
    _write(path, header + values.tobytes())


def _utterance(rng, template, rates, mix, n_frames):
    phases = rng.uniform(0.0, 2.0 * np.pi, 2)
    t = np.arange(n_frames)
    mod = 1.0 + 0.5 * (mix[0] * np.sin(2.0 * np.pi * rates[0] * t + phases[0]) +
                       mix[1] * np.sin(2.0 * np.pi * rates[1] * t + phases[1])) / mix.sum()
    clean = template[:, None] * mod[None, :]
    noise_std = np.sqrt(np.mean(clean ** 2)) / 10.0 ** 0.5
    x = clean + rng.normal(0.0, noise_std, (N_MELS, n_frames))
    x = x - x.mean(axis=1, keepdims=True)
    return x / np.sqrt(np.maximum(x.var(axis=1, keepdims=True), 1e-8))


def write_corpus(out: Path, spec: CorpusSpec, seed: int) -> dict:
    """Write feats/, train.txt and trials.txt under ``out``; return counts."""
    rng = np.random.default_rng([seed, 0x5EED])
    feat_dir = out / "feats"
    feat_dir.mkdir(parents=True, exist_ok=True)
    train_lines = []
    test_ids = []                       # (speaker, file name)
    for spk in range(spec.train_speakers + spec.test_speakers):
        template = rng.normal(0.0, 1.0, N_MELS)
        rates = rng.uniform(0.01, 0.08, 2)
        mix = rng.uniform(0.5, 1.0, 2)
        held_out = spk >= spec.train_speakers
        for utt in range(spec.test_utts if held_out else spec.train_utts):
            lo, hi = spec.test_frames if held_out else spec.train_frames
            n_frames = int(rng.integers(lo, hi + 1))
            name = f"spk{spk:03d}_utt{utt:03d}.feat"
            write_feat(feat_dir / name, _utterance(rng, template, rates, mix, n_frames))
            if held_out:
                test_ids.append((spk, name))
            else:
                train_lines.append(f"spk{spk:03d} feats/{name}")
    _write(out / "train.txt", ("\n".join(train_lines) + "\n").encode())

    targets, cross = [], []
    for i, (si, a) in enumerate(test_ids):
        for sj, b in test_ids[i + 1:]:
            (targets if si == sj else cross).append((a, b))
    keep = rng.choice(len(cross), min(spec.nontarget_trials, len(cross)), replace=False)
    nontargets = [cross[i] for i in sorted(keep)]
    lines = [f"1 {a} {b}" for a, b in targets] + [f"0 {a} {b}" for a, b in nontargets]
    _write(out / "trials.txt", ("\n".join(lines) + "\n").encode())
    return {"train_examples": len(train_lines), "test_utts": len(test_ids),
            "trials": len(lines)}


def write_config(path: Path, corpus: Path, seed: int, variant: str,
                 aggregation: str, epochs: int) -> None:
    """A run config pinning the workload's keys; the rest keep their defaults."""
    items = {
        "seed": seed,
        "attention.variant": variant,
        "attention.aggregation": aggregation,
        "attention.k": "4,8,16",
        "optimizer.epochs": epochs,
        "optimizer.batch": BATCH,
        "paths.train_list": corpus / "train.txt",
        "paths.features_dir": corpus / "feats",
    }
    _write(path, "".join(f"{k} = {v}\n" for k, v in sorted(items.items())).encode())
