"""Audio ingestion and the log-mel front end.

Pipeline: 16 kHz PCM WAV -> 64-dim log mel-filterbank energies (25 ms
frames, 10 ms shift, Hamming window, power spectrum, HTK mel scale,
log floor 1e-10) -> per-bin mean/variance normalization -> fixed-length
crops. Masking augmentation and a synthetic labeled dataset generator
live here too. Everything is deterministic given the caller's rng.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError
from .tensor import tensor

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1
FEAT_HEADER_BYTES = 20       # magic, u32 version, u32 rank, two u32 dims
MAX_N_FFT = 65536            # 4 s frames at 16 kHz; far above any speech front end


@dataclass
class Waveform:
    samples: np.ndarray          # float64 in [-1, 1]
    sample_rate: int


@dataclass
class MelConfig:
    sample_rate: int = 16000
    n_mels: int = 64
    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    n_fft: int = 512
    fmin: float = 0.0
    fmax: float = 0.0            # <= 0 -> Nyquist, see fmax_hz
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if not self.sample_rate <= sys.float_info.max:     # the frame sizes are floats
            raise ConfigError(f"sample_rate={self.sample_rate} is too large")
        for name in ("frame_len_ms", "frame_shift_ms"):
            if not self.sample_rate * getattr(self, name) < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)} overflows at "
                                  f"{self.sample_rate} Hz")
        if self.shift_samples < 1:
            raise ConfigError(f"frame_shift_ms={self.frame_shift_ms} is shorter than "
                              f"one sample at {self.sample_rate} Hz")
        if self.frame_len_ms < self.frame_shift_ms:
            raise ConfigError("frame length must be >= frame shift")
        if self.n_fft < self.frame_samples:
            raise ConfigError(
                f"n_fft={self.n_fft} smaller than frame of {self.frame_samples} samples")
        if self.n_fft > MAX_N_FFT:
            raise ConfigError(f"n_fft={self.n_fft} is above the limit of {MAX_N_FFT}")
        if self.n_mels > self.n_fft // 2 + 1:     # a mel band needs at least one FFT bin
            raise ConfigError(f"n_mels={self.n_mels} exceeds the {self.n_fft // 2 + 1} "
                              f"FFT bins of n_fft={self.n_fft}")
        if not 0.0 <= self.fmin < self.fmax_hz:
            raise ConfigError(f"fmin={self.fmin} must be >= 0 and below "
                              f"fmax={self.fmax_hz} Hz")
        if self.fmax_hz > self.sample_rate / 2.0:
            raise ConfigError(f"fmax={self.fmax_hz} Hz is above the Nyquist frequency "
                              f"{self.sample_rate / 2.0} Hz")
        if not self.log_floor > 0.0:
            raise ConfigError(f"log_floor must be > 0, got {self.log_floor}")

    @property
    def frame_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_len_ms / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_shift_ms / 1000.0))

    @property
    def fmax_hz(self) -> float:
        return self.fmax if self.fmax > 0.0 else self.sample_rate / 2.0


@dataclass
class FeatureMatrix:
    values: np.ndarray           # (n_mels, T)
    source: str = ""

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# WAV ingestion (strict: RIFF/WAVE, PCM, 16-bit, mono, little-endian)
# ---------------------------------------------------------------------------

def read_wav(path) -> Waveform:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[0:4] != b"RIFF":
        raise FormatError(f"{path}: bad chunk id {raw[0:4]!r}, expected b'RIFF'")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: bad format tag {raw[8:12]!r}, expected b'WAVE'")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise FormatError(f"{path}: data chunk truncated")
            data = body
        pos += 8 + size + (size & 1)   # chunks are word-aligned

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"{path}: audio_format={audio_format} unsupported (PCM only)")
    if channels != 1:
        raise FormatError(f"{path}: channels={channels} unsupported")
    if bits != 16:
        raise FormatError(f"{path}: bits_per_sample={bits} unsupported")
    if sample_rate <= 0:
        raise FormatError(f"{path}: sample_rate={sample_rate} invalid")
    if len(data) % 2:
        raise FormatError(
            f"{path}: data chunk of {len(data)} bytes is not a whole number of 16-bit samples")

    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise FormatError(f"{path}: empty data chunk")
    return Waveform(samples=samples, sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# log-mel extraction
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters on FFT bin frequencies, (n_mels, n_fft//2 + 1)."""
    pts = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax_hz),
                                cfg.n_mels + 2))
    bin_hz = np.arange(cfg.n_fft // 2 + 1) * cfg.sample_rate / cfg.n_fft
    lower, center, upper = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (bin_hz[None, :] - lower) / np.maximum(center - lower, 1e-12)
    falling = (upper - bin_hz[None, :]) / np.maximum(upper - center, 1e-12)
    return np.maximum(0.0, np.minimum(rising, falling))


def frame_count(n_samples: int, cfg: MelConfig) -> int:
    return (n_samples - cfg.frame_samples) // cfg.shift_samples + 1


def logmel(wave: Waveform, cfg: MelConfig = None) -> FeatureMatrix:
    """Log mel-filterbank energies from a waveform, (n_mels, T)."""
    cfg = cfg or MelConfig()
    if wave.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"waveform rate {wave.sample_rate} != configured {cfg.sample_rate}")
    n = wave.samples.size
    frame, shift = cfg.frame_samples, cfg.shift_samples
    if n < frame:
        raise DimensionError(f"input of {n} samples shorter than one {frame}-sample frame")
    t = frame_count(n, cfg)
    idx = np.arange(frame)[None, :] + shift * np.arange(t)[:, None]
    frames = wave.samples[idx] * np.hamming(frame)[None, :]
    power = np.abs(np.fft.rfft(frames, n=cfg.n_fft, axis=1)) ** 2
    energy = mel_filterbank(cfg) @ power.T
    return FeatureMatrix(values=np.log(np.maximum(energy, cfg.log_floor)))


def mvn(fm: FeatureMatrix) -> FeatureMatrix:
    """Normalize each mel bin to zero mean, unit variance over time."""
    if fm.n_frames < 2:
        raise DimensionError("mvn needs at least 2 frames")
    x = fm.values
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    out = (x - mean) / np.sqrt(np.maximum(var, 1e-8))
    return FeatureMatrix(values=out, source=fm.source)


def crop(fm: FeatureMatrix, seconds: float, rng, frames_per_second: float) -> FeatureMatrix:
    """Random fixed-length window; shorter inputs wrap around."""
    target = int(round(seconds * frames_per_second))
    t = fm.n_frames
    if t == target:
        return fm
    if t < target:
        idx = np.arange(target) % t
        return FeatureMatrix(values=fm.values[:, idx], source=fm.source)
    start = int(rng.integers(0, t - target + 1))
    return FeatureMatrix(values=fm.values[:, start:start + target], source=fm.source)


def spec_mask(fm: FeatureMatrix, rng, max_f_mask: int = 8, max_t_mask: int = 20,
              n_masks: int = 2) -> FeatureMatrix:
    """Mask random frequency and time bands with the utterance mean."""
    x = fm.values.copy()
    n_mels, t = x.shape
    fill = float(x.mean())
    for _ in range(n_masks):
        w = int(rng.integers(0, max_f_mask + 1))
        if w > 0 and w <= n_mels:
            f0 = int(rng.integers(0, n_mels - w + 1))
            x[f0:f0 + w, :] = fill
        w = int(rng.integers(0, max_t_mask + 1))
        if w > 0 and w <= t:
            t0 = int(rng.integers(0, t - w + 1))
            x[:, t0:t0 + w] = fill
    return FeatureMatrix(values=x, source=fm.source)


# ---------------------------------------------------------------------------
# synthetic labeled dataset (desk-scale training corpus)
# ---------------------------------------------------------------------------

@dataclass
class SynthUtterance:
    speaker: int
    features: FeatureMatrix


def synth_dataset(num_speakers: int, utts_per_speaker: int, seed: int,
                  n_mels: int = 64, min_frames: int = 200,
                  max_frames: int = 300) -> list:
    """Generate labeled feature matrices for a synthetic speaker population.

    Each speaker is a fixed random spectral template scaled by a slowly
    varying temporal modulation (speaker-specific rates, utterance-specific
    phases) plus white noise at roughly 10 dB SNR.
    """
    if num_speakers < 2:
        raise ConfigError("need at least 2 speakers")
    rng = np.random.default_rng(seed)
    out = []
    for spk in range(num_speakers):
        template = rng.normal(0.0, 1.0, n_mels)
        rates = rng.uniform(0.01, 0.08, 2)       # cycles per frame
        mix = rng.uniform(0.5, 1.0, 2)
        for utt in range(utts_per_speaker):
            t_len = int(rng.integers(min_frames, max_frames + 1))
            phases = rng.uniform(0.0, 2.0 * np.pi, 2)
            t = np.arange(t_len)
            mod = 1.0 + 0.5 * (
                mix[0] * np.sin(2.0 * np.pi * rates[0] * t + phases[0]) +
                mix[1] * np.sin(2.0 * np.pi * rates[1] * t + phases[1])) / mix.sum()
            clean = template[:, None] * mod[None, :]
            noise_std = np.sqrt(np.mean(clean ** 2)) / 10.0 ** 0.5   # ~10 dB SNR
            values = clean + rng.normal(0.0, noise_std, (n_mels, t_len))
            out.append(SynthUtterance(
                speaker=spk,
                features=FeatureMatrix(values=values, source=f"spk{spk:03d}_utt{utt:03d}")))
    return out


# ---------------------------------------------------------------------------
# FEAT file format: magic, u32 version, u32 rank, u32 dims..., f64 LE payload
# ---------------------------------------------------------------------------

def write_feat(path, fm: FeatureMatrix) -> None:
    vals = tensor(fm.values)
    blob = FEAT_MAGIC + struct.pack("<II", FEAT_VERSION, vals.ndim)
    blob += struct.pack(f"<{vals.ndim}I", *vals.shape)
    blob += vals.astype("<f8").tobytes(order="C")
    Path(path).write_bytes(blob)


def read_feat(path, n_mels: int) -> FeatureMatrix:
    """A FEAT file's matrix; a FormatError unless it has `n_mels` bins."""
    raw = Path(path).read_bytes()
    if raw[:4] != FEAT_MAGIC:
        raise FormatError(f"{path}: not a FEAT file")
    if len(raw) < FEAT_HEADER_BYTES:
        raise FormatError(
            f"{path}: header truncated at byte {len(raw)} of {FEAT_HEADER_BYTES}")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != FEAT_VERSION:
        raise FormatError(f"{path}: unsupported FEAT version {version}")
    if rank != 2:
        raise FormatError(f"{path}: expected rank 2, got {rank}")
    dims = struct.unpack_from("<2I", raw, 12)
    if 0 in dims:
        raise FormatError(f"{path}: empty {dims[0]}x{dims[1]} feature matrix")
    if dims[0] != n_mels:
        raise FormatError(f"{path}: {dims[0]} mel bins, config has features.n_mels = {n_mels}")
    payload = raw[FEAT_HEADER_BYTES:]
    expect = 8 * dims[0] * dims[1]
    if len(payload) != expect:
        raise FormatError(f"{path}: payload of {len(payload)} bytes, expected {expect}")
    values = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row, frame = np.unravel_index(bad[0], values.shape)
        raise NumericError(
            f"{path}: non-finite value {values[row, frame]} at bin {row} frame {frame} "
            f"({bad.size} in all)")
    return FeatureMatrix(values=values, source=Path(path).stem)
