import math
import struct

import numpy as np
import pytest

from dancebeat import clicktrack
from dancebeat.clicktrack import Waveform, render_clicks, write_wav
from dancebeat.errors import ConfigError
from dancebeat.pose import BeatGrid

from conftest import read_wav_header


def grid(frames, length=150, fps=30.0):
    return BeatGrid(beat_frames=frames, timeline_len=length, fps=fps)


class TestRenderClicks:
    def test_silence(self):
        w = render_clicks(grid([]), duration_s=2.0)
        assert len(w.samples) == 88200
        assert np.all(w.samples == 0)

    def test_peak_normalized(self):
        w = render_clicks(grid([0]), duration_s=1.0)
        assert np.abs(w.samples).max() == pytest.approx(0.9)

    def test_onset_positions(self):
        # beats at frames 15 and 30 at 30 fps -> 0.5 s and 1.0 s
        w = render_clicks(grid([15, 30]), duration_s=2.0)
        assert np.all(w.samples[:22050] == 0)
        burst = int(round(clicktrack.CLICK_LEN_S * 44100))
        assert np.abs(w.samples[22050:22050 + burst]).max() > 0.1
        gap = w.samples[22050 + burst:44100]
        assert np.all(gap == 0)
        assert np.abs(w.samples[44100:44100 + burst]).max() > 0.1

    def test_burst_truncated_at_end(self):
        w = render_clicks(grid([30], fps=30.0), duration_s=1.0)
        assert len(w.samples) == 44100  # click at exactly 1.0 s, zero room

    def test_beat_beyond_duration(self):
        with pytest.raises(ConfigError):
            render_clicks(grid([60], fps=30.0), duration_s=1.0)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan, 1e300, 0.0, 1e-9, -1.0])
    def test_window_a_wav_cannot_hold(self, duration_s):
        with pytest.raises(ConfigError, match="click track of"):
            render_clicks(grid([]), duration_s=duration_s)

    def test_sample_limit_is_the_riff_size_limit(self):
        # the RIFF chunk size 36 + 2n must fit in 32 bits; rendering at the
        # limit would allocate 16 GiB, so only the bound itself is checked
        n = clicktrack.MAX_SAMPLES
        assert 36 + 2 * n < 2 ** 32 <= 36 + 2 * (n + 1)

    def test_overlap_add_no_clipping(self):
        w = render_clicks(grid([10, 11, 12]), duration_s=1.0)
        assert np.abs(w.samples).max() <= 0.9 + 1e-12


class TestWav:
    def test_header_and_size(self, tmp_path):
        p = tmp_path / "one.wav"
        write_wav(Waveform(sample_rate=44100, samples=np.array([1.0])), p)
        raw = p.read_bytes()
        assert len(raw) == 46  # 44-byte header + one 16-bit sample
        assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
        assert struct.unpack("<h", raw[44:])[0] == 32767

    def test_clipping(self, tmp_path):
        p = tmp_path / "clip.wav"
        write_wav(Waveform(sample_rate=8000, samples=np.array([-2.0, 2.0, 0.0])), p)
        vals = struct.unpack("<3h", p.read_bytes()[44:])
        assert vals == (-32768, 32767, 0)

    def test_header_round_trip(self, tmp_path):
        p = tmp_path / "rt.wav"
        w = render_clicks(grid([0, 15]), duration_s=1.0, sample_rate=22050)
        write_wav(w, p)
        h = read_wav_header(p)
        assert h["audio_format"] == 1
        assert h["channels"] == 1
        assert h["sample_rate"] == 22050
        assert h["bits_per_sample"] == 16
        assert h["data_bytes"] == 2 * len(w.samples)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for p in (a, b):
            write_wav(render_clicks(grid([7, 22, 37]), duration_s=5.0), p)
        assert a.read_bytes() == b.read_bytes()
