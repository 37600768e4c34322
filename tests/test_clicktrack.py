import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancebeat import clicktrack
from dancebeat.clicktrack import ClickTrack, render_clicks, write_wav
from dancebeat.errors import ConfigError
from dancebeat.pose import BeatGrid

from conftest import read_wav_header, render_clicks_whole, wav_bytes_whole

PEAK_Q = round(clicktrack.PEAK * 32767)  # the normalized peak as a 16-bit sample


def grid(frames, length=150, fps=30.0):
    return BeatGrid(beat_frames=frames, timeline_len=length, fps=fps)


def written(tmp_path, beats, duration_s, sample_rate=44100):
    """The 16-bit samples of the click track's WAV file, read back."""
    p = tmp_path / "clicks.wav"
    write_wav(render_clicks(beats, duration_s=duration_s, sample_rate=sample_rate), p)
    return np.frombuffer(p.read_bytes(), dtype="<i2", offset=44)


class TestRenderClicks:
    def test_silence(self, tmp_path):
        q = written(tmp_path, grid([]), duration_s=2.0)
        assert len(q) == 88200
        assert np.all(q == 0)

    def test_peak_normalized(self, tmp_path):
        q = written(tmp_path, grid([0]), duration_s=1.0)
        assert np.abs(q).max() == PEAK_Q

    def test_onset_positions(self, tmp_path):
        # beats at frames 15 and 30 at 30 fps -> 0.5 s and 1.0 s
        q = written(tmp_path, grid([15, 30]), duration_s=2.0)
        assert np.all(q[:22050] == 0)
        burst = int(round(clicktrack.CLICK_LEN_S * 44100))
        assert np.abs(q[22050:22050 + burst]).max() > 0.1 * 32767
        assert np.all(q[22050 + burst:44100] == 0)
        assert np.abs(q[44100:44100 + burst]).max() > 0.1 * 32767

    def test_burst_truncated_at_end(self, tmp_path):
        q = written(tmp_path, grid([30], fps=30.0), duration_s=1.0)
        assert len(q) == 44100  # click at exactly 1.0 s, zero room

    def test_beat_beyond_duration(self):
        with pytest.raises(ConfigError):
            render_clicks(grid([60], fps=30.0), duration_s=1.0)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan, 1e300, 0.0, 1e-9, -1.0])
    def test_window_a_wav_cannot_hold(self, duration_s):
        with pytest.raises(ConfigError, match="click track of"):
            render_clicks(grid([]), duration_s=duration_s)

    def test_sample_limit_is_the_riff_size_limit(self):
        # the RIFF chunk size 36 + 2n must fit in 32 bits; a WAV file at the
        # limit is 4 GiB, too slow to write here, so only the bound is checked
        n = clicktrack.MAX_SAMPLES
        assert 36 + 2 * n < 2 ** 32 <= 36 + 2 * (n + 1)

    def test_overlap_add_no_clipping(self, tmp_path):
        q = written(tmp_path, grid([10, 11, 12]), duration_s=1.0)
        assert np.abs(q).max() == PEAK_Q


class TestWav:
    def test_header_and_size(self, tmp_path):
        p = tmp_path / "one.wav"
        write_wav(render_clicks(grid([]), duration_s=1 / 8000, sample_rate=8000), p)
        raw = p.read_bytes()
        assert len(raw) == 46  # 44-byte header + one 16-bit sample
        assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
        assert struct.unpack("<h", raw[44:])[0] == 0

    def test_clipping(self, tmp_path):
        # a gain that overdrives the burst saturates at the 16-bit limits
        p = tmp_path / "clip.wav"
        write_wav(ClickTrack(sample_rate=8000, samples=8, starts=np.array([0]), gain=1e6), p)
        vals = struct.unpack("<8h", p.read_bytes()[44:])
        assert vals == (0, 32767, 32767, 32767, 0, -32768, -32768, -32768)

    def test_header_round_trip(self, tmp_path):
        p = tmp_path / "rt.wav"
        w = render_clicks(grid([0, 15]), duration_s=1.0, sample_rate=22050)
        write_wav(w, p)
        h = read_wav_header(p)
        assert h["audio_format"] == 1
        assert h["channels"] == 1
        assert h["sample_rate"] == 22050
        assert h["bits_per_sample"] == 16
        assert h["data_bytes"] == 2 * 22050 == len(p.read_bytes()) - 44

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for p in (a, b):
            write_wav(render_clicks(grid([7, 22, 37]), duration_s=5.0), p)
        assert a.read_bytes() == b.read_bytes()


class TestStreaming:
    """The track is rendered and written CHUNK samples at a time, with the
    same bytes as the whole-window array in `conftest.render_clicks_whole`."""

    @staticmethod
    def assert_bytes_equal_the_whole_window(path, beats, frames, fps, sample_rate):
        g = BeatGrid(beat_frames=beats, timeline_len=frames + 1, fps=fps)
        duration_s = frames / fps  # a beat at frame `frames` lies on the window's end
        write_wav(render_clicks(g, duration_s, sample_rate), path)
        want = wav_bytes_whole(render_clicks_whole(g, duration_s, sample_rate), sample_rate)
        assert path.read_bytes() == want

    @settings(max_examples=60, deadline=None)
    @given(sample_rate=st.sampled_from([8000, 22050, 44100]),
           fps=st.floats(30.0, 240.0), frames=st.integers(1, 700), data=st.data())
    def test_random_grids(self, tmp_path_factory, sample_rate, fps, frames, data):
        # above 1 / CLICK_LEN_S = 33 fps, neighbouring bursts overlap
        beats = data.draw(st.lists(st.integers(0, frames), unique=True).map(sorted))
        self.assert_bytes_equal_the_whole_window(tmp_path_factory.getbasetemp() / "stream.wav",
                                                 beats, frames, fps, sample_rate)

    C = clicktrack.CHUNK

    @pytest.mark.parametrize("sample_rate, fps, frames, beats", [
        (44100, 30.0, 150, []),
        # at fps = sample_rate a frame is a sample: beats straddling each chunk
        # boundary, on the window's last sample and on its end
        (8000, 8000.0, 3 * C, [0, C - 1, C, 2 * C - 5, 3 * C - 1, 3 * C]),
        # f / 128 s at 8000 Hz is sample 62.5 f: each odd beat rounds half to even
        (8000, 128.0, 255, list(range(1, 256, 2))),
        (22050, 240.0, 1200, list(range(1201))),
    ])
    def test_edge_grids(self, tmp_path, sample_rate, fps, frames, beats):
        self.assert_bytes_equal_the_whole_window(tmp_path / "edge.wav", beats, frames, fps,
                                                 sample_rate)

    def test_ten_minute_window_in_bounded_memory(self, tmp_path):
        # a beat on every frame at 30 fps for 600 s: 26,460,000 samples,
        # which the whole-window array held as about 454 MiB
        p = tmp_path / "ten.wav"
        g = BeatGrid(beat_frames=range(18000), timeline_len=18000, fps=30.0)
        tracemalloc.start()
        try:
            write_wav(render_clicks(g, duration_s=600.0), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, peak
        # the digest of the file the whole-window renderer wrote
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "753a650b3557b5d25a8628e511e78da6cfc5e4d86bc1fa9fe8ae466325e779c1")
