"""WAV writer for building test inputs; the program itself only reads WAVs."""

import struct
from pathlib import Path

import numpy as np


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = (pcm * 32767.0).round().astype("<i2")
    payload = pcm.tobytes()
    hdr = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
           + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                                   sample_rate * 2, 2, 16)
           + b"data" + struct.pack("<I", len(payload)))
    Path(path).write_bytes(hdr + payload)
