"""Beat detection and alignment scoring.

Coverage (BCS) is precision-like: matched beats over generated beats.
Hit score (BHS) is recall-like: matched beats over ground-truth beats.
F1 is their harmonic mean; CSD/HSD are across-clip sample standard
deviations of BCS/BHS. Matching is greedy, one-to-one and in time order
within a +-window tolerance.

The `evaluate` command scores a latent's channel-0 peaks (`detect_latent_beats`)
against the clip's `.beats` grid as `pose.map_to_latent` places it on the latent
timeline. `detect_dance_beats`, the minima of raw unweighted motion magnitude, is
the kinematic reference that acceptance test 6 checks `pose.synth_dance` against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pose import BeatGrid, MusicLatent, PoseSequence, local_minima, motion_diff


@dataclass
class BeatScores:
    bcs: float
    bhs: float
    f1: float
    generated: int
    truth: int
    aligned: int


@dataclass
class ScoreAggregate:
    mean_bcs: float
    mean_bhs: float
    mean_f1: float
    csd: float
    hsd: float


def gaussian_smooth(signal: np.ndarray, sigma: float) -> np.ndarray:
    """Reflect-padded Gaussian smoothing; sigma <= 0 is a no-op."""
    if sigma <= 0:
        return signal.copy()
    half = max(1, int(math.ceil(3 * sigma)))
    u = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(u ** 2) / (2 * sigma ** 2))
    k /= k.sum()
    return np.correlate(np.pad(signal, half, mode="reflect"), k, mode="valid")


def _suppress(candidates: list[int], values: np.ndarray, min_separation: int) -> list[int]:
    """Greedy separation filter, preferring deeper minima."""
    order = sorted(candidates, key=lambda t: values[t])
    kept: list[int] = []
    for t in order:
        if all(abs(t - u) >= min_separation for u in kept):
            kept.append(t)
    return sorted(kept)


def detect_dance_beats(p: PoseSequence, smooth_sigma: float = 2.0,
                       min_separation: int = 1) -> BeatGrid:
    """Kinematic beats: interior local minima of the smoothed, joint-summed
    motion magnitude, at least `min_separation` frames apart."""
    s = gaussian_smooth(motion_diff(p).magnitude.sum(axis=1), smooth_sigma)
    beats = local_minima(s)
    if min_separation > 1:
        beats = _suppress(beats, s, min_separation)
    return BeatGrid(beat_frames=beats, timeline_len=p.frames, fps=p.fps)


def detect_latent_beats(z: MusicLatent, rel_threshold: float = 0.5,
                        fps: float = 1.0) -> BeatGrid:
    """Peaks of latent channel 0 that reach rel_threshold of the global max.

    Plateaus resolve to their leftmost index; boundary peaks are admitted.
    Empty grid when channel 0 is nowhere positive.
    """
    c = z.data[:, 0]
    peak = c.max(initial=0.0)
    left_ok = np.append(True, c[1:] > c[:-1])
    right_ok = np.append(c[:-1] >= c[1:], True)
    beats = np.flatnonzero(left_ok & right_ok & (c >= rel_threshold * peak) & (peak > 0))
    return BeatGrid(beat_frames=beats.tolist(), timeline_len=c.size, fps=fps)


def greedy_match(gen: list[int], truth: list[int], window: float) -> int:
    """One-to-one in-order matching count with |gen - truth| <= window."""
    i = j = matched = 0
    while i < len(gen) and j < len(truth):
        if abs(gen[i] - truth[j]) <= window:
            matched += 1
            i += 1
            j += 1
        elif gen[i] < truth[j]:
            i += 1
        else:
            j += 1
    return matched


def beat_scores(gen: BeatGrid, truth: BeatGrid, window_frames: float) -> BeatScores:
    if gen.timeline_len != truth.timeline_len or gen.fps != truth.fps:
        raise ConfigError(
            f"grids disagree: timeline {gen.timeline_len}/{truth.timeline_len}, "
            f"fps {gen.fps}/{truth.fps}")
    matched = greedy_match(gen.beat_frames, truth.beat_frames, window_frames)
    n_gen, n_truth = len(gen.beat_frames), len(truth.beat_frames)
    bcs = 100.0 * matched / n_gen if n_gen else 0.0
    bhs = 100.0 * matched / n_truth if n_truth else 0.0
    f1 = 2 * bcs * bhs / (bcs + bhs) if bcs + bhs > 0 else 0.0
    return BeatScores(bcs=bcs, bhs=bhs, f1=f1,
                      generated=n_gen, truth=n_truth, aligned=matched)


def aggregate(scores: list[BeatScores]) -> ScoreAggregate:
    if not scores:
        raise ConfigError("cannot aggregate an empty score list")
    bcs = np.array([s.bcs for s in scores])
    bhs = np.array([s.bhs for s in scores])
    f1 = np.array([s.f1 for s in scores])
    sd = lambda x: float(x.std(ddof=1)) if len(scores) > 1 else 0.0  # sample deviation
    return ScoreAggregate(mean_bcs=float(bcs.mean()), mean_bhs=float(bhs.mean()),
                          mean_f1=float(f1.mean()), csd=sd(bcs), hsd=sd(bhs))


def format_report(clip_ids: list[str], scores: list[BeatScores],
                  agg: ScoreAggregate) -> str:
    """Human-readable evaluation table, one row per clip plus the aggregate."""
    lines = [f"{'clip':<16}{'B_g':>6}{'B_t':>6}{'B_a':>6}{'BCS':>9}{'BHS':>9}{'F1':>9}"]
    for cid, s in zip(clip_ids, scores):
        lines.append(f"{cid:<16}{s.generated:>6}{s.truth:>6}{s.aligned:>6}"
                     f"{s.bcs:>9.2f}{s.bhs:>9.2f}{s.f1:>9.2f}")
    lines.append(f"{'aggregate':<16}{'':>6}{'':>6}{'':>6}"
                 f"{agg.mean_bcs:>9.2f}{agg.mean_bhs:>9.2f}{agg.mean_f1:>9.2f}")
    lines.append(f"CSD={agg.csd:.2f} HSD={agg.hsd:.2f}")
    return "\n".join(lines) + "\n"


def format_report_tsv(clip_ids: list[str], scores: list[BeatScores],
                      agg: ScoreAggregate) -> str:
    """Machine-readable variant: one tab-separated record per clip."""
    lines = ["clip\tB_g\tB_t\tB_a\tBCS\tBHS\tF1"]
    for cid, s in zip(clip_ids, scores):
        lines.append(f"{cid}\t{s.generated}\t{s.truth}\t{s.aligned}"
                     f"\t{s.bcs:.2f}\t{s.bhs:.2f}\t{s.f1:.2f}")
    lines.append(f"aggregate\t\t\t\t{agg.mean_bcs:.2f}\t{agg.mean_bhs:.2f}\t{agg.mean_f1:.2f}")
    lines.append(f"std\t\t\t\t{agg.csd:.2f}\t{agg.hsd:.2f}\t")
    return "\n".join(lines) + "\n"
