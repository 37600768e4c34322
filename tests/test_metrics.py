import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancebeat import metrics, pose
from dancebeat.errors import ConfigError
from dancebeat.pose import BeatGrid, MusicLatent, synth_dance, synth_latent

from conftest import optimal_match, reflect_indices, relerr


def grid(frames, length=100, fps=30.0):
    return BeatGrid(beat_frames=frames, timeline_len=length, fps=fps)


beat_lists = st.lists(st.integers(min_value=0, max_value=99), min_size=0,
                      max_size=8, unique=True).map(sorted)


class TestDetectDanceBeats:
    def test_generator_round_trip(self):
        p, g = synth_dance(120, 5, 30, joints=6, noise_std=0, seed=2)
        det = metrics.detect_dance_beats(p, smooth_sigma=0, min_separation=1)
        assert det.beat_frames == g.beat_frames

    def test_round_trip_other_tempi(self):
        for tempo in (60, 90, 150, 180):
            p, g = synth_dance(tempo, 5, 30, joints=6, noise_std=0, seed=tempo)
            det = metrics.detect_dance_beats(p, smooth_sigma=0, min_separation=1)
            assert det.beat_frames == g.beat_frames, f"tempo {tempo}"

    def test_monotone_speed_empty(self):
        data = np.zeros((20, 1, 2))
        data[:, 0, 0] = np.linspace(0, 1, 20) ** 2  # strictly increasing speed
        det = metrics.detect_dance_beats(pose.PoseSequence(data=data, fps=30),
                                         smooth_sigma=0)
        assert det.beat_frames == []

    def test_min_separation_keeps_deeper(self):
        # two dips 3 frames apart; the deeper one survives
        speed = np.array([5, 5, 1.0, 5, 5, 0.5, 5, 5, 5])
        data = np.zeros((10, 1, 2))
        data[1:, 0, 0] = np.cumsum(speed)
        p = pose.PoseSequence(data=data, fps=30)
        det = metrics.detect_dance_beats(p, smooth_sigma=0, min_separation=5)
        assert det.beat_frames == [5]


class TestGaussianSmooth:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    @pytest.mark.parametrize("sigma", [0.2, 1.0, 2.0, 7.5])
    def test_matches_direct_sum(self, rng, n, sigma):
        # sigma 7.5 pads 23 a side, wider than every signal here but the last
        x = rng.standard_normal(n)
        half = max(1, math.ceil(3 * sigma))
        w = [math.exp(-u * u / (2 * sigma * sigma)) for u in range(-half, half + 1)]
        src = reflect_indices(n, half)
        brute = [sum(w[j] * x[src[t + j]] for j in range(len(w))) / sum(w) for t in range(n)]
        assert relerr(metrics.gaussian_smooth(x, sigma), np.array(brute)) < 1e-13


class TestDetectLatentBeats:
    def test_generator_round_trip(self):
        g = grid([5, 10], length=15)
        z = synth_latent(g, 15, 3, seed=0)
        det = metrics.detect_latent_beats(z)
        assert det.beat_frames == [5, 10]

    def test_all_zero(self):
        det = metrics.detect_latent_beats(MusicLatent(data=np.zeros((8, 2))))
        assert det.beat_frames == []

    def test_boundary_peak(self):
        data = np.zeros((6, 1))
        data[0, 0] = 1.0
        assert metrics.detect_latent_beats(MusicLatent(data=data)).beat_frames == [0]

    def test_threshold(self):
        data = np.zeros((9, 1))
        data[2, 0] = 1.0
        data[6, 0] = 0.3
        det = metrics.detect_latent_beats(MusicLatent(data=data), rel_threshold=0.5)
        assert det.beat_frames == [2]


class TestBeatScores:
    def test_identical(self):
        s = metrics.beat_scores(grid([3, 9, 20]), grid([3, 9, 20]), 2)
        assert (s.bcs, s.bhs, s.f1) == (100.0, 100.0, 100.0)

    def test_disjoint(self):
        s = metrics.beat_scores(grid([10, 20]), grid([50, 60]), 2)
        assert (s.bcs, s.bhs, s.f1) == (0.0, 0.0, 0.0)

    def test_hand_case(self):
        s = metrics.beat_scores(grid([10, 20, 30, 40]), grid([10, 20, 50]), 2)
        assert s.aligned == 2
        assert s.bcs == pytest.approx(50.0)
        assert s.bhs == pytest.approx(66.67, abs=0.005)
        assert s.f1 == pytest.approx(57.14, abs=0.005)

    def test_empty_gen(self):
        s = metrics.beat_scores(grid([]), grid([5]), 2)
        assert s.bcs == 0.0 and s.f1 == 0.0

    def test_timeline_mismatch(self):
        with pytest.raises(ConfigError):
            metrics.beat_scores(grid([1], length=10), grid([1], length=20), 2)

    @given(beat_lists, beat_lists, st.integers(min_value=0, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_greedy_equals_bruteforce(self, gen, truth, window):
        greedy = metrics.greedy_match(gen, truth, window)
        assert greedy == optimal_match(gen, truth, window)
        assert greedy <= min(len(gen), len(truth))

    @given(beat_lists, beat_lists, st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_window_monotonicity(self, gen, truth, window):
        a = metrics.greedy_match(gen, truth, window)
        b = metrics.greedy_match(gen, truth, window + 1)
        assert b >= a

    @given(beat_lists, beat_lists)
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, gen, truth):
        s1 = metrics.beat_scores(grid(gen), grid(truth), 2)
        s2 = metrics.beat_scores(grid(truth), grid(gen), 2)
        assert s1.bcs == pytest.approx(s2.bhs)
        assert s1.bhs == pytest.approx(s2.bcs)
        assert s1.f1 == pytest.approx(s2.f1)

    @given(beat_lists, beat_lists, st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, gen, truth, shift):
        s1 = metrics.beat_scores(grid(gen), grid(truth), 2)
        s2 = metrics.beat_scores(grid([f + shift for f in gen], length=150),
                                 grid([f + shift for f in truth], length=150), 2)
        assert (s1.bcs, s1.bhs, s1.f1) == (s2.bcs, s2.bhs, s2.f1)


class TestAggregate:
    def _scores(self, bcs_values):
        return [metrics.BeatScores(bcs=v, bhs=v, f1=v, generated=1, truth=1, aligned=1)
                for v in bcs_values]

    def test_identical_clips(self):
        agg = metrics.aggregate(self._scores([70, 70, 70]))
        assert agg.csd == 0.0 and agg.hsd == 0.0

    def test_two_point_std(self):
        agg = metrics.aggregate(self._scores([40, 60]))
        assert agg.mean_bcs == pytest.approx(50.0)
        assert agg.csd == pytest.approx(14.142, abs=0.001)

    def test_single_clip(self):
        agg = metrics.aggregate(self._scores([80]))
        assert agg.csd == 0.0 and agg.hsd == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            metrics.aggregate([])


class TestReports:
    def test_report_contains_rows(self):
        scores = [metrics.beat_scores(grid([1, 5]), grid([1, 5]), 1)]
        agg = metrics.aggregate(scores)
        text = metrics.format_report(["clip_000"], scores, agg)
        assert "clip_000" in text and "100.00" in text
        tsv = metrics.format_report_tsv(["clip_000"], scores, agg)
        assert tsv.splitlines()[1].startswith("clip_000\t")
