"""Hand-worked cases for the benchmark's oracles.

Run with: python3 -m pytest perfbench/test_oracles.py
"""
import oracles


def test_latent_peaks_threshold_and_plateau():
    # max 2.0, floor 1.0: index 1 (1.0) is a rising peak at the floor;
    # the plateau 2.0, 2.0 at 4-5 resolves to its left end, 4; index 7
    # (0.9) peaks below the floor
    c = [0.0, 1.0, 0.5, 1.5, 2.0, 2.0, 0.1, 0.9, 0.2]
    assert oracles.latent_peaks(c, 0.5) == [1, 4]


def test_latent_peaks_boundaries():
    # each end is checked against its one neighbour: 3.0 >= 1.0 at the
    # start, 2.5 > 0.0 at the end; the floor is 1.5
    assert oracles.latent_peaks([3.0, 1.0, 0.0, 2.5], 0.5) == [0, 3]


def test_latent_peaks_nowhere_positive():
    assert oracles.latent_peaks([-1.0, -0.5, -2.0], 0.5) == []
    assert oracles.latent_peaks([0.0, 0.0, 0.0], 0.5) == []


def test_map_beats_rounding_clamp_and_merge():
    # 150 frames onto 50 steps: frame f goes to f/3 rounded half up
    # 4 -> 1.33 -> 1; 5 -> 1.67 -> 2; 6 -> 2; 148 -> 49.33 -> 49; 149 -> 49.67 -> 50 -> 49
    assert oracles.map_beats([4, 5, 6, 148, 149], 150, 50) == [1, 2, 49]


def test_map_beats_half_rounds_up():
    # 10 frames onto 4 steps: 3 -> 1.2 -> 1; 5 -> 2.0; 7 -> 2.8 -> 3
    # 4 frames onto 2 steps: 1 -> 0.5, which rounds up to 1
    assert oracles.map_beats([3, 5, 7], 10, 4) == [1, 2, 3]
    assert oracles.map_beats([1], 4, 2) == [1]


def test_greedy_match_in_order():
    # window 1: 2~3 pair; 6 has no truth within 1 (truth 9 too far, 3 used);
    # 10~9 pair; 14 has nothing left
    assert oracles.greedy_match([2, 6, 10, 14], [3, 9], 1.0) == 2


def test_greedy_match_takes_earliest_truth():
    # generated 5 takes truth 4 (first within the window), leaving 6 for 7
    assert oracles.greedy_match([5, 7], [4, 6], 1.0) == 2
    # truth 1 lies more than the window before 10 and is dropped; 9 matches
    assert oracles.greedy_match([10], [1, 9], 1.0) == 1
    assert oracles.greedy_match([], [1, 2], 1.0) == 0
    assert oracles.greedy_match([1, 2], [], 1.0) == 0


def test_segment_spans_even_and_uneven():
    assert oracles.segment_spans(150, 50)[:2] == [(0, 3), (3, 6)]
    assert oracles.segment_spans(150, 50)[-1] == (147, 150)
    # 10 into 3: 10 = 4 + 3 + 3
    assert oracles.segment_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert oracles.segment_spans(5, 5) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
