"""Pose ingestion, motion differencing, and the synthetic benchmark generator.

The synthetic generator produces dance clips with known kinematic beats
(motion-magnitude minima) plus matching pulse-train latents, giving the
rest of the pipeline a ground truth to be verified against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ParseError


@dataclass
class _Matrix:
    """A finite, nonempty float64 array, at a finite positive `fps` if it has one.
    Each kind declares its file's `header`: a field per axis, rows first, then
    `fps` if the kind has one; `row` names a row in `load`'s errors."""

    data: np.ndarray
    row = "row"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        dims = len(self.header.split()) - self.header.endswith(" fps")
        if self.data.ndim != dims or 0 in self.data.shape:
            raise ConfigError(f"{self.what} must be {dims}-D and nonempty, "
                              f"got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ConfigError(f"{self.what} contains non-finite values")
        if not 0 < getattr(self, "fps", 1.0) < math.inf:
            raise ConfigError(f"{self.what} fps must be finite and positive, got {self.fps}")


@dataclass
class PoseSequence(_Matrix):
    """T x J x C keypoint trajectory at a fixed frame rate."""

    fps: float
    what = "pose data"
    header = "T J C fps"
    row = "frame"

    def __post_init__(self):
        super().__post_init__()
        T, J, C = self.data.shape
        if T < 2 or C not in (2, 3):
            raise ConfigError(f"invalid pose shape T={T} J={J} C={C}")

    @property
    def frames(self) -> int:
        return self.data.shape[0]


@dataclass
class MotionField:
    """Frame-to-frame displacements and their per-joint speeds."""

    diffs: np.ndarray      # (T-1, J, C)
    magnitude: np.ndarray  # (T-1, J)


@dataclass
class BeatGrid:
    """Strictly increasing beat frame indices on a fixed timeline."""

    beat_frames: list[int]
    timeline_len: int
    fps: float

    def __post_init__(self):
        self.beat_frames = [int(f) for f in self.beat_frames]
        if not 1 <= self.timeline_len <= 2 ** 53:  # a float holds it exactly
            raise ConfigError(f"beat timeline length must be 1 to 2**53, got {self.timeline_len}")
        if not 0 < self.fps < math.inf:
            raise ConfigError(f"beat grid fps must be finite and positive, got {self.fps}")
        prev = -1
        for f in self.beat_frames:
            if not (0 <= f < self.timeline_len):
                raise ConfigError(f"beat frame {f} outside [0, {self.timeline_len})")
            if f <= prev:
                raise ConfigError("beat frames must be strictly increasing")
            prev = f


class ConditioningFeatures(_Matrix):
    """Precomputed or synthetic per-frame conditioning vectors (T_v x D_v)."""

    what = "conditioning"
    header = "T_v D_v"


class MusicLatent(_Matrix):
    """T_m x d latent sequence; the generation target."""

    what = "latent"
    header = "T_m d"


# ---------------------------------------------------------------------------
# motion


def motion_diff(p: PoseSequence) -> MotionField:
    """Frame-wise displacement and its per-joint euclidean magnitude."""
    diffs = p.data[1:] - p.data[:-1]
    magnitude = np.linalg.norm(diffs, axis=2)
    return MotionField(diffs=diffs, magnitude=magnitude)


def local_minima(signal: np.ndarray) -> list[int]:
    """Interior local minima; two-sample plateaus resolve to the left index."""
    mid = signal[1:-1]
    return (np.flatnonzero((mid < signal[:-2]) & (mid <= signal[2:])) + 1).tolist()


# ---------------------------------------------------------------------------
# synthetic benchmark


def synth_dance(
    tempo_bpm: float,
    duration_s: float,
    fps: float,
    joints: int,
    amplitude: float = 0.1,
    noise_std: float = 0.0,
    seed: int = 0,
    beat_joint_fraction: float = 0.5,
    coords: int = 2,
) -> tuple[PoseSequence, BeatGrid]:
    """Deterministic synthetic dance clip plus its ground-truth beat grid.

    A subset of joints oscillates with period 60*fps/tempo frames (shared
    phase, per-joint direction); the rest drift at constant velocity so
    joint weighting has something to suppress. Beats are the interior
    minima of the noise-free summed motion magnitude.
    """
    if tempo_bpm <= 0:
        raise ConfigError(f"tempo must be positive, got {tempo_bpm}")
    T = int(round(duration_s * fps))
    if T < 2:
        raise ConfigError(f"duration {duration_s}s at {fps} fps yields T={T} < 2")
    rng = np.random.default_rng(seed)
    period = 60.0 * fps / tempo_bpm
    n_beat = max(1, int(round(beat_joint_fraction * joints)))

    t = np.arange(T, dtype=np.float64)
    phase0 = math.floor(period / 2) + 0.5
    osc = amplitude * np.cos(math.pi * (t - phase0) / period)  # (T,)

    centers = rng.uniform(0.25, 0.75, size=(joints, coords))
    data = np.broadcast_to(centers, (T, joints, coords)).copy()

    # beat-carrying joints: shared-phase oscillation along a random unit direction
    dirs = rng.standard_normal((n_beat, coords))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = rng.uniform(0.6, 1.0, size=(n_beat, 1))
    data[:, :n_beat, :] += osc[:, None, None] * (dirs * scale)[None, :, :]

    # drifting joints: constant velocity, so their speed is flat over time
    if joints > n_beat:
        vel = rng.standard_normal((joints - n_beat, coords))
        vel *= amplitude / (2.0 * T) / np.maximum(np.linalg.norm(vel, axis=1, keepdims=True), 1e-12)
        data[:, n_beat:, :] += t[:, None, None] * vel[None, :, :]

    clean = PoseSequence(data=data.copy(), fps=fps)
    mag = motion_diff(clean).magnitude[:, :n_beat].sum(axis=1)
    beats = local_minima(mag)
    grid = BeatGrid(beat_frames=beats, timeline_len=T, fps=fps)

    if noise_std > 0:
        data = data + rng.normal(0.0, noise_std, size=data.shape)
    return PoseSequence(data=data, fps=fps), grid


def map_to_latent(grid: BeatGrid, latent_len: int) -> list[int]:
    """Rescale beat frames onto a latent timeline by nearest-index rounding.

    Monotone; collisions merge into a single index. The top edge is
    clamped so rounding can never leave the timeline.
    """
    frames = np.array(grid.beat_frames, dtype=np.float64)
    i = np.minimum(np.floor(frames * latent_len / grid.timeline_len + 0.5), latent_len - 1)
    return i[np.diff(i, prepend=-1) != 0].astype(np.int64).tolist()


LATENT_PULSE_SIGMA = 1.0  # the Gaussian sigma, in latent steps, of synth_latent's beat pulses
LATENT_NOISE_AMP = 0.1  # the standard deviation of its other channels


def synth_latent(
    beats: BeatGrid,
    latent_len: int,
    dim: int,
    seed: int = 0,
) -> MusicLatent:
    """Pulse-train latent: channel 0 carries unit-height smoothed pulses at
    the rescaled beat indices, remaining channels are low-amplitude noise.
    """
    if latent_len < 1 or dim < 1:
        raise ConfigError(f"latent shape must be positive, got ({latent_len}, {dim})")
    rng = np.random.default_rng(seed)
    data = np.zeros((latent_len, dim))
    if dim > 1:
        data[:, 1:] = LATENT_NOISE_AMP * rng.standard_normal((latent_len, dim - 1))
    idx = np.arange(latent_len, dtype=np.float64)[:, None]
    pulses = np.exp(-0.5 * ((idx - map_to_latent(beats, latent_len)) / LATENT_PULSE_SIGMA) ** 2)
    data[:, 0] = pulses.max(axis=1, initial=0.0)  # one pulse per beat, 0 with none
    return MusicLatent(data=data)


def synth_conditioning(length: int, dim: int, seed: int = 0) -> ConditioningFeatures:
    """Seeded stand-in for precomputed video features."""
    rng = np.random.default_rng(seed)
    return ConditioningFeatures(data=rng.standard_normal((length, dim)))


# ---------------------------------------------------------------------------
# text formats
#
# Matrix files share one layout: the header its kind declares, then one
# line of decimals per row. Its first field counts the rows; the product of
# its other integer fields is the row width.
# BeatGrid file: exactly two lines, "timeline_len fps" then space-separated frames.


def read_lines(path) -> list[str]:
    """A UTF-8 text file's lines; undecodable bytes are a ParseError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError("invalid UTF-8", line=raw.count(b"\n", 0, e.start) + 1, path=path)


def _check_finite(rows: np.ndarray, fault) -> None:
    """Raise `fault(k)` for the first row k of `rows` holding a non-finite value."""
    ok = np.isfinite(rows).all(axis=1)
    if not ok.all():
        raise fault(int(ok.argmin()))


def save(m: _Matrix, path) -> None:
    """Write `m`'s shape, then its fps by repr if its kind has one, on line 1,
    then one line of exactly round-tripping decimals per row. A non-finite
    value, which `load` refuses, is refused before the file is opened."""
    rows = m.data.reshape(len(m.data), -1)
    _check_finite(rows, lambda k: NumericalError(f"{path}: row {k}: non-finite value, not written"))
    fps = [repr(float(m.fps))] if m.header.endswith(" fps") else []
    with open(path, "w", encoding="utf-8") as f:
        f.write(" ".join([*map(str, m.data.shape), *fps]) + "\n")
        for row in rows:
            f.write(" ".join(map(repr, row.tolist())) + "\n")


def load(cls, path) -> _Matrix:
    """The `cls` a matrix file holds, its header's fields positive integers but
    a trailing finite `fps`. The array is sized from the file's rows once the
    first has the header's width. Of the first faulty row, the count, then the
    values, then their finiteness is reported; what `cls` refuses, at line 1."""
    lines = read_lines(path)
    head = lines[0].split() if lines else []
    if len(head) != len(cls.header.split()):
        raise ParseError(f"header must be {cls.header!r}", 1, path)
    n_int = len(head) - cls.header.endswith(" fps")
    try:
        values = [int(v) for v in head[:n_int]] + [float(v) for v in head[n_int:]]
    except ValueError as e:
        raise ParseError(f"bad header: {e}", 1, path)
    if min(values[:n_int]) < 1 or not np.isfinite(values[n_int:]).all():
        raise ParseError(f"bad header {lines[0]!r}: sizes must be positive, floats finite",
                         1, path)
    width = math.prod(values[1:n_int])
    nonfinite = lambda k: ParseError(f"{cls.row} {k}: non-finite value", k + 2, path)
    data = np.empty((0, 0))
    for i, text in enumerate(lines[1:]):
        parts = text.split()
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} values, found {len(parts)}")
            row = list(map(float, parts))
        except ValueError as e:
            _check_finite(data[:i], nonfinite)
            raise ParseError(f"{cls.row} {i}: {e}", i + 2, path)
        if i == 0:  # a row has the header's width, so the file's size bounds the array
            data = np.empty((len(lines) - 1, width))
        data[i] = row
    _check_finite(data, nonfinite)
    if len(data) != values[0]:
        raise ParseError(f"expected {values[0]} {cls.row}s, file has {len(data)}",
                         len(lines), path)
    return parsed(cls, path, 1, data.reshape(values[:n_int]), *values[n_int:])


def parsed(cls, path, line: int, *args):
    """`cls(*args)`; a value the type refuses is a ParseError at `line` of `path`."""
    try:
        return cls(*args)
    except ConfigError as e:
        raise ParseError(str(e), line, path)


save_pose_sequence = save_conditioning = save_latent = save
load_pose_sequence = functools.partial(load, PoseSequence)
load_conditioning = functools.partial(load, ConditioningFeatures)
load_latent = functools.partial(load, MusicLatent)


def save_beat_grid(g: BeatGrid, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{g.timeline_len} {repr(float(g.fps))}\n")
        f.write(" ".join(str(b) for b in g.beat_frames) + "\n")


def load_beat_grid(path) -> BeatGrid:
    lines = read_lines(path)
    head = lines[0].split() if lines else []
    if len(head) != 2:
        raise ParseError("header must be 'timeline_len fps'", 1, path)
    try:
        timeline_len, fps = int(head[0]), float(head[1])
    except ValueError as e:
        raise ParseError(f"bad header: {e}", 1, path)
    parsed(BeatGrid, path, 1, [], timeline_len, fps)  # the header's own values
    if len(lines) != 2:
        raise ParseError(f"expected 2 lines, file has {len(lines)}", min(len(lines) + 1, 3), path)
    try:
        frames = [int(x) for x in lines[1].split()]
    except ValueError as e:
        raise ParseError(f"bad beat frame: {e}", 2, path)
    return parsed(BeatGrid, path, 2, frames, timeline_len, fps)
