"""Render beat grids to a click track and write 16-bit WAV files in CHUNK-sample pieces."""
from __future__ import annotations

import math
import struct
from collections import namedtuple

import numpy as np

from .errors import ConfigError
from .pose import BeatGrid

CLICK_FREQ_HZ = 1000.0
CLICK_LEN_S = 0.030
CLICK_DECAY_S = 0.006
PEAK = 0.9
MAX_SAMPLES = 2_147_483_629  # 16-bit mono: the RIFF size field holds 36 + 2n < 2^32
CHUNK = 1 << 16

# a track of `samples` samples: a burst from each index in `starts`, scaled by `gain`
ClickTrack = namedtuple("ClickTrack", "sample_rate samples starts gain")


def _overlap_add(track: ClickTrack):
    """The unscaled track, CHUNK samples at a time; each sample gets the
    bursts that reach it added to 0.0 in beat order, as in one whole array."""
    burst_n = int(round(CLICK_LEN_S * track.sample_rate))
    t = np.arange(burst_n) / track.sample_rate
    burst = np.exp(-t / CLICK_DECAY_S) * np.sin(2 * math.pi * CLICK_FREQ_HZ * t)
    for c0 in range(0, track.samples, CHUNK):
        c1 = min(c0 + CHUNK, track.samples)
        out = np.zeros(c1 - c0)
        for s0 in track.starts[(track.starts < c1) & (track.starts + burst_n > c0)].tolist():
            lo, hi = max(s0, c0), min(s0 + burst_n, c1)
            out[lo - c0:hi - c0] += burst[lo - s0:hi - s0]
        yield out


def render_clicks(beats: BeatGrid, duration_s: float, sample_rate: int = 44100) -> ClickTrack:
    """Exponentially decaying 1 kHz sine bursts at each beat time,
    overlap-added and peak-normalized to 0.9; this pass finds the peak."""
    n = duration_s * sample_rate
    if not (math.isfinite(n) and 1 <= round(n) <= MAX_SAMPLES):
        raise ConfigError(f"a click track of {duration_s} s at {sample_rate} Hz needs {n:.6g} "
                          f"samples; a 16-bit mono WAV file holds 1 to {MAX_SAMPLES}")
    t0 = np.array(beats.beat_frames, dtype=np.float64) / beats.fps
    if t0.size and t0[-1] > duration_s:  # beat frames increase
        raise ConfigError(f"beat at {t0[-1]:.3f}s lies beyond the {duration_s}s render window")
    track = ClickTrack(sample_rate, int(round(n)), np.round(t0 * sample_rate).astype(np.int64), 1.0)
    peak = max(np.abs(c).max() for c in _overlap_add(track))
    return track._replace(gain=PEAK / peak) if peak > 0 else track


def write_wav(track: ClickTrack, path) -> None:
    """A canonical 44-byte RIFF/WAVE header, then 16-bit mono PCM: the second
    pass, which renders the track again and scales and quantizes each chunk."""
    sr, nbytes = track.sample_rate, 2 * track.samples
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + nbytes, b"WAVE",
                            b"fmt ", 16, 1, 1, sr, sr * 2, 2, 16, b"data", nbytes))
        for q in _overlap_add(track):
            q *= track.gain
            q *= 32767.0
            f.write(np.clip(np.round(q, out=q), -32768, 32767, out=q).astype("<i2"))
