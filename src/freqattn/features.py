"""Audio ingestion and the log-mel front end.

Pipeline: 16 kHz PCM WAV -> 64-dim log mel-filterbank energies (25 ms
frames, 10 ms shift, Hamming window, power spectrum, HTK mel scale,
log floor 1e-10) -> per-bin mean/variance normalization -> fixed-length
crops, each a plain (n_mels, T) float64 array. Masking augmentation, a
synthetic labeled dataset generator and the array-record codec that FEAT
files and checkpoints share live here too. Everything is deterministic
given the caller's rng.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError, naming

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1
MAX_N_FFT = 65536            # 4 s frames at 16 kHz; far above any speech front end
SPEC_MASKS = 2               # spec_mask: frequency and time band pairs per crop
SPEC_MAX_F_MASK = 8          # widest frequency band, in mel bins
SPEC_MAX_T_MASK = 20         # widest time band, in frames


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


# ---------------------------------------------------------------------------
# WAV ingestion (strict: RIFF/WAVE, PCM, 16-bit, mono, little-endian)
# ---------------------------------------------------------------------------

def read_wav(path) -> Waveform:
    with naming(path):
        raw = Path(path).read_bytes()
        if len(raw) < 12:
            raise FormatError(f"truncated header ({len(raw)} bytes)")
        if raw[0:4] != b"RIFF":
            raise FormatError(f"bad chunk id {raw[0:4]!r}, expected b'RIFF'")
        if raw[8:12] != b"WAVE":
            raise FormatError(f"bad format tag {raw[8:12]!r}, expected b'WAVE'")

        fmt = None
        data = None
        pos = 12
        while pos + 8 <= len(raw):
            cid = raw[pos:pos + 4]
            (size,) = struct.unpack_from("<I", raw, pos + 4)
            body = raw[pos + 8:pos + 8 + size]
            if cid == b"fmt ":
                if len(body) < 16:
                    raise FormatError("fmt chunk truncated")
                fmt = struct.unpack_from("<HHIIHH", body, 0)
            elif cid == b"data":
                if len(body) < size:
                    raise FormatError("data chunk truncated")
                data = body
            pos += 8 + size + (size & 1)   # chunks are word-aligned

        if fmt is None:
            raise FormatError("missing fmt chunk")
        if data is None:
            raise FormatError("missing data chunk")
        audio_format, channels, sample_rate, _, _, bits = fmt
        if audio_format != 1:
            raise FormatError(f"audio_format={audio_format} unsupported (PCM only)")
        if channels != 1:
            raise FormatError(f"channels={channels} unsupported")
        if bits != 16:
            raise FormatError(f"bits_per_sample={bits} unsupported")
        if sample_rate <= 0:
            raise FormatError(f"sample_rate={sample_rate} invalid")
        if len(data) % 2:
            raise FormatError(f"data chunk of {len(data)} bytes is not a whole number "
                              f"of 16-bit samples")

        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
        if samples.size == 0:
            raise FormatError("empty data chunk")
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


def logmel(wave: Waveform, cfg: MelConfig) -> np.ndarray:
    """Log mel-filterbank energies from a waveform, (n_mels, T)."""
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
    return np.log(np.maximum(energy, cfg.log_floor))


def mvn(x: np.ndarray) -> np.ndarray:
    """Normalize each mel bin to zero mean, unit variance over time."""
    if x.shape[1] < 2:
        raise DimensionError("mvn needs at least 2 frames")
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(np.maximum(var, 1e-8))


def crop(x: np.ndarray, frames: int, rng) -> np.ndarray:
    """Random window of `frames` frames; shorter inputs wrap around."""
    t = x.shape[1]
    if t == frames:
        return x
    if t < frames:
        return x[:, np.arange(frames) % t]
    start = int(rng.integers(0, t - frames + 1))
    return x[:, start:start + frames]


def spec_mask(x: np.ndarray, rng) -> np.ndarray:
    """Mask SPEC_MASKS random frequency and time bands with the utterance mean."""
    x = x.copy()
    n_mels, t = x.shape
    fill = float(x.mean())
    for _ in range(SPEC_MASKS):
        w = int(rng.integers(0, SPEC_MAX_F_MASK + 1))
        if w > 0 and w <= n_mels:
            f0 = int(rng.integers(0, n_mels - w + 1))
            x[f0:f0 + w, :] = fill
        w = int(rng.integers(0, SPEC_MAX_T_MASK + 1))
        if w > 0 and w <= t:
            t0 = int(rng.integers(0, t - w + 1))
            x[:, t0:t0 + w] = fill
    return x


# ---------------------------------------------------------------------------
# synthetic labeled dataset (desk-scale training corpus)
# ---------------------------------------------------------------------------

@dataclass
class SynthUtterance:
    speaker: int
    utt: int                     # index within the speaker
    features: np.ndarray         # (n_mels, T)


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
            out.append(SynthUtterance(speaker=spk, utt=utt, features=values))
    return out


# ---------------------------------------------------------------------------
# array records: a field is a u32, UTF-8 text after its u32 byte length, or an
# array (u32 rank, u32 dims, f64 LE values). Packers append to one bytearray.
# A FEAT file is the magic, a u32 version, then one (n_mels, T) array.
# ---------------------------------------------------------------------------

def pack_u32(out: bytearray, value: int) -> None:
    out += struct.pack("<I", value)


def pack_text(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    pack_u32(out, len(data))
    out += data


def pack_array(out: bytearray, values) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    out += struct.pack(f"<{1 + values.ndim}I", values.ndim, *values.shape)
    out += values.data


class Reader:
    """Takes a record's fields in order. A field that runs past the end is a
    FormatError with its byte offset; a non-finite value names its cell."""

    def __init__(self, raw: bytes):
        self.raw = memoryview(raw)
        self.pos = 0

    @property
    def left(self) -> int:
        return len(self.raw) - self.pos

    def take(self, size: int, what: str) -> memoryview:
        if size > self.left:
            raise FormatError(f"truncated at byte offset {self.pos}: {what} needs "
                              f"{size} bytes, {self.left} left")
        self.pos += size
        return self.raw[self.pos - size:self.pos]

    def header(self, magic: bytes, version: int, kind: str) -> None:
        if self.raw[:len(magic)] != magic:
            raise FormatError(f"not a {kind} file (bad magic)")
        self.pos = len(magic)
        (found,) = self.u32s(1, "version")
        if found != version:
            raise FormatError(f"unsupported {kind} version {found}")

    def u32s(self, count: int, what: str) -> tuple:
        return struct.unpack(f"<{count}I", self.take(4 * count, what))

    def text(self, what: str) -> str:
        (size,) = self.u32s(1, f"length of {what}")
        try:
            return str(self.take(size, what), "utf-8")
        except UnicodeDecodeError as exc:
            start = self.pos - size
            raise FormatError(f"{what} at byte offset {start} is not UTF-8 "
                              f"({exc.reason} at byte {start + exc.start})") from None

    def array(self, what: str) -> np.ndarray:
        (rank,) = self.u32s(1, f"rank of {what}")
        dims = self.u32s(rank, f"shape of {what}")
        raw = self.take(8 * math.prod(dims), f"values of {what}")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)   # aligned copy
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            at = [int(i) for i in np.unravel_index(bad[0], dims)]
            raise NumericError(f"non-finite value {values[bad[0]]} in {what} at {at} "
                               f"({bad.size} in all)")
        return values.reshape(dims)


def write_feat(path, values: np.ndarray) -> None:
    blob = bytearray(FEAT_MAGIC)
    pack_u32(blob, FEAT_VERSION)
    pack_array(blob, values)
    Path(path).write_bytes(blob)


def read_feat(path, n_mels: int) -> np.ndarray:
    """A FEAT file's (n_mels, T) matrix; a FormatError unless it has `n_mels` bins."""
    with naming(path):
        record = Reader(Path(path).read_bytes())
        record.header(FEAT_MAGIC, FEAT_VERSION, "FEAT")
        values = record.array("feature matrix")
        if values.ndim != 2:
            raise FormatError(f"expected rank 2, got {values.ndim}")
        if 0 in values.shape:
            raise FormatError(f"empty {values.shape[0]}x{values.shape[1]} feature matrix")
        if values.shape[0] != n_mels:
            raise FormatError(f"{len(values)} mel bins, config has features.n_mels = {n_mels}")
        if record.left:
            raise FormatError(f"{record.left} bytes after the feature matrix, "
                              f"at byte offset {record.pos}")
    return values
