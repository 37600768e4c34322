"""Render beat grids to an audible click track and write 16-bit WAV files."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pose import BeatGrid

CLICK_FREQ_HZ = 1000.0
CLICK_LEN_S = 0.030
CLICK_DECAY_S = 0.006
PEAK = 0.9
MAX_SAMPLES = 2_147_483_629  # 16-bit mono: the RIFF size field holds 36 + 2n < 2^32


@dataclass
class Waveform:
    sample_rate: int
    samples: np.ndarray  # mono, values in [-1, 1]


def render_clicks(beats: BeatGrid, duration_s: float, sample_rate: int = 44100) -> Waveform:
    """Exponentially decaying 1 kHz sine bursts at each beat time,
    overlap-added and peak-normalized to 0.9."""
    n = duration_s * sample_rate
    if not (math.isfinite(n) and 1 <= round(n) <= MAX_SAMPLES):
        raise ConfigError(f"a click track of {duration_s} s at {sample_rate} Hz needs {n:.6g} "
                          f"samples; a 16-bit mono WAV file holds 1 to {MAX_SAMPLES}")
    out = np.zeros(int(round(n)))
    burst_n = int(round(CLICK_LEN_S * sample_rate))
    t = np.arange(burst_n) / sample_rate
    burst = np.exp(-t / CLICK_DECAY_S) * np.sin(2 * math.pi * CLICK_FREQ_HZ * t)
    for f in beats.beat_frames:
        t0 = f / beats.fps
        if t0 > duration_s:
            raise ConfigError(f"beat at {t0:.3f}s lies beyond the {duration_s}s render window")
        s0 = int(round(t0 * sample_rate))
        seg = min(burst_n, out.size - s0)
        out[s0:s0 + seg] += burst[:seg]
    peak = np.abs(out).max()
    if peak > 0:
        out *= PEAK / peak
    return Waveform(sample_rate=sample_rate, samples=out)


def write_wav(w: Waveform, path) -> None:
    """Canonical 44-byte RIFF/WAVE header, PCM 16-bit mono little-endian."""
    q = w.samples * 32767.0  # one scratch array, quantized in place
    data = np.clip(np.round(q, out=q), -32768, 32767, out=q).astype("<i2")
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data.nbytes, b"WAVE",
        b"fmt ", 16, 1, 1, w.sample_rate, w.sample_rate * 2, 2, 16,
        b"data", data.nbytes,
    )
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(data)
