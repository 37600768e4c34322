"""Fine-grained rhythm extraction from skeleton motion.

Pipeline per clip: frame-wise motion magnitudes are analyzed with a bank
of real Gabor wavelets (multi-scale temporal view), joints are reweighted
by a small shared MLP, direction-of-motion phase histograms add a spatial
view, and a gated linear fusion produces a T x D rhythm embedding whose
last frame is repeated to restore the original clip length.

All learnable paths run on `tensor.Tensor` so the embedding is
differentiable with respect to every parameter.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tz
from .errors import ConfigError
from .pose import PoseSequence, _Matrix, load, local_minima, motion_diff, save
from .tensor import Tensor


def build_wavelet_bank(scales: int, base_period: float) -> list[np.ndarray]:
    """Real cosine-phase Gabor kernels, shortest period first: base_period * 2^s for
    scale s, sigma = period/2, truncated at +-ceil(3 sigma), mean-subtracted, L2-normalized."""
    if scales < 1:
        raise ConfigError(f"need at least one scale, got {scales}")
    if base_period < 2:
        raise ConfigError(f"base period must be >= 2 frames (sub-Nyquist), got {base_period}")
    # bounds the kernel length, which grows with the longest period
    if not math.log2(base_period) + scales - 1 <= 16:
        raise ConfigError(f"longest wavelet period {base_period} * 2^{scales - 1} "
                          f"exceeds 2^16 frames")
    kernels = []
    for s in range(scales):
        lam = base_period * 2.0 ** s
        sigma = lam / 2.0
        half = int(math.ceil(3.0 * sigma))
        u = np.arange(-half, half + 1, dtype=np.float64)
        k = np.exp(-(u ** 2) / (2.0 * sigma ** 2)) * np.cos(2.0 * math.pi * u / lam)
        k -= k.mean()
        k /= np.linalg.norm(k)
        kernels.append(k)
    return kernels


class RhythmParams(SimpleNamespace):
    """Learnable parameters, named by `layout`: per-joint weight net, fusion
    projection, gate net; `scales` and `bins` shape the fusion input."""

    @staticmethod
    def layout(scales: int, bins: int, dim: int, hidden_w: int, hidden_a: int) -> tz.Layout:
        fin, fuse_in = 1 + scales, bins * scales + scales
        return [("w1", (fin, hidden_w), fin), ("b1", (hidden_w,), "zeros"),
                ("w2", (hidden_w, 1), hidden_w),
                ("fuse_w", (fuse_in, dim), fuse_in), ("fuse_b", (dim,), "zeros"),
                ("a1", (dim, hidden_a), dim), ("ab1", (hidden_a,), "zeros"),
                ("a2", (hidden_a, 1), hidden_a), ("ab2", (1,), "zeros")]

    @classmethod
    def init(cls, rng: np.random.Generator, scales: int, bins: int, dim: int,
             hidden_w: int, hidden_a: int) -> "RhythmParams":
        layout = cls.layout(scales, bins, dim, hidden_w, hidden_a)
        return cls(scales=scales, bins=bins,
                   **tz.parameters(layout, np.empty(tz.layout_size(layout)), rng))


@dataclass
class ClipRhythmFeatures:
    """Pose-derived constants reused across training steps for one clip:
    only what `rhythm_core_tensor` reads.

    Gradients never flow into these; they are functions of the input pose
    and the fixed wavelet bank only. `magnitude` and `wavelet` are views of
    `joint_input`. `mx` and `my`, the (T-1, J, S) filtered x and y
    displacements, are not stored: each access refilters `pose` through
    `bank`, and no `src/` code reads them.
    """

    joint_input: np.ndarray  # (T-1, J, 1+S): each joint's speed, then its S wavelet responses
    mag_s: np.ndarray       # (T-1, J, S) per-scale magnitude sqrt(mx^2 + my^2)
    # (T-1, J, S) integer: where the joint's scale-s magnitude lands in the
    # row-major (T-1, K*S + S) fusion input, t*(K*S + S) + k*S + s for the
    # phase bin k, 0 <= k < bins, that holds its phase at frame t
    column: np.ndarray
    bins: int
    pose: PoseSequence
    bank: list[np.ndarray]

    magnitude = property(lambda self: self.joint_input[:, :, 0])  # (T-1, J)
    # (T-1, J, S) signed responses of the magnitude signal
    wavelet = property(lambda self: self.joint_input[:, :, 1:])
    mx = property(lambda self: _filtered(self.pose, self.bank)[2])
    my = property(lambda self: _filtered(self.pose, self.bank)[3])


@dataclass
class RhythmEmbedding(_Matrix):
    """T x D rhythm features at `fps`; extracted, the final row repeats the penultimate one."""

    fps: float
    what = "rhythm embedding"
    header = "T D fps"


def _conv_cols(signal_2d: np.ndarray, bank: list[np.ndarray]) -> np.ndarray:
    """Reflect-padded, length-preserving cross-correlation of every column of
    (T, J) with every bank kernel -> (T, J, S): one reflect-pad for the
    longest kernel, then one windowed product per kernel."""
    T, J = signal_2d.shape
    P = max(k.size for k in bank) // 2
    padded = np.ascontiguousarray(np.pad(signal_2d, ((P, P), (0, 0)), "reflect").T)  # (J, T + 2P)
    out = np.empty((T, J, len(bank)))
    for s, k in enumerate(bank):
        p = k.size // 2
        win = sliding_window_view(padded[:, P - p:P + p + T], k.size, axis=1)  # (J, T, L)
        out[:, :, s] = np.dot(win, k).T
    return out


def phase_bins(mx: np.ndarray, my: np.ndarray, bins: int) -> np.ndarray:
    """Index of the right-open phase bin on [-pi, pi) holding atan2(my, mx)."""
    theta = np.arctan2(my, mx)
    theta += math.pi
    theta /= 2.0 * math.pi / bins
    idx = np.floor(theta, out=theta).astype(np.intp)
    idx %= bins  # angle exactly pi wraps to bin 0
    return idx


def fusion_column(mx: np.ndarray, my: np.ndarray, bins: int) -> np.ndarray:
    """ClipRhythmFeatures.column: t*(K*S + S) + k*S + s, k the phase bin."""
    Tm1, _, S = mx.shape
    column = phase_bins(mx, my, bins)
    column *= S
    column += np.arange(0, Tm1 * (bins + 1) * S, (bins + 1) * S)[:, None, None] + np.arange(S)
    return column


def _filtered(p: PoseSequence, bank: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The (T-1, J) speed, then the (T-1, J, S) wavelet responses of the speed,
    the x and the y displacement, from one filtering pass over their (T-1, 3J) stack."""
    m = motion_diff(p)
    J = m.magnitude.shape[1]
    f = _conv_cols(np.concatenate([m.magnitude, m.diffs[:, :, 0], m.diffs[:, :, 1]], axis=1),
                   bank)
    return m.magnitude, f[:, :J], f[:, J:2 * J], f[:, 2 * J:]


def clip_features(p: PoseSequence, bank: list[np.ndarray], bins: int) -> ClipRhythmFeatures:
    magnitude, wavelet, mx, my = _filtered(p, bank)
    return ClipRhythmFeatures(joint_input=np.concatenate([magnitude[:, :, None], wavelet], axis=2),
                              mag_s=np.sqrt(mx ** 2 + my ** 2),
                              column=fusion_column(mx, my, bins), bins=bins, pose=p, bank=bank)


def joint_weight_tensor(feats: ClipRhythmFeatures, params: RhythmParams) -> Tensor:
    """Softmax joint weights from the shared two-layer net, (T-1, J). The
    output layer has no bias: one added to every joint's logit cancels in
    the softmax."""
    Tm1, J, fin = feats.joint_input.shape
    flat = Tensor(feats.joint_input.reshape(Tm1 * J, fin))
    h = tz.relu(tz.linear(flat, params.w1, params.b1))
    logits = tz.linear(h, params.w2)
    return tz.softmax(tz.reshape(logits, (Tm1, J)), axis=1)


def fusion_features(feats: ClipRhythmFeatures, w: Tensor) -> Tensor:
    """The (T-1, K*S + S) fusion input: per frame, the joint-weighted
    phase histograms ((k, s) row-major, each joint's scale-s magnitude in
    its bin's column) and the joint-weighted wavelet responses, in one
    scatter node. The features are constants; gradient flows through `w` only."""
    return tz.weighted_scatter(w, feats.column, feats.mag_s, feats.wavelet,
                               feats.bins * feats.wavelet.shape[2])


def rhythm_core_tensor(feats: ClipRhythmFeatures, params: RhythmParams) -> tuple[Tensor, Tensor]:
    """Differentiable forward pass: the (T, D) rhythm embedding and the
    (T-1, 1) gate."""
    Tm1 = feats.magnitude.shape[0]
    w = joint_weight_tensor(feats, params)
    feat = fusion_features(feats, w)
    core = tz.linear(feat, params.fuse_w, params.fuse_b)  # (T-1, D)
    gate = tz.sigmoid(tz.linear(tz.relu(tz.linear(core, params.a1, params.ab1)),
                                params.a2, params.ab2))  # (T-1, 1)
    gated = tz.mul(gate, core)
    full = gated[np.minimum(np.arange(Tm1 + 1), Tm1 - 1)]  # repeat last frame -> (T, D)
    return full, gate


def extract_rhythm(p: PoseSequence, bank: list[np.ndarray],
                   params: RhythmParams) -> RhythmEmbedding:
    feats = clip_features(p, bank, params.bins)
    full, _gate = rhythm_core_tensor(feats, params)
    return RhythmEmbedding(data=full.data, fps=p.fps)


def scale_energy(p: PoseSequence, bank: list[np.ndarray]) -> np.ndarray:
    """Frame-averaged wavelet energy per scale; argmax marks the dominant
    oscillation period of the clip."""
    w = _conv_cols(motion_diff(p).magnitude, bank)
    return (w ** 2).mean(axis=(0, 1))


def baseline_mean_rhythm(p: PoseSequence, dim: int) -> np.ndarray:
    """Ablation baseline: joint-averaged speed per frame, tiled to D columns."""
    m = motion_diff(p).magnitude.mean(axis=1)  # (T-1,)
    m = np.concatenate([m, m[-1:]])
    return np.tile(m[:, None], (1, dim))


def baseline_binary_rhythm(p: PoseSequence, dim: int) -> np.ndarray:
    """Ablation baseline: binarized first-difference rhythm, 1 at speed minima."""
    s = motion_diff(p).magnitude.sum(axis=1)
    b = np.zeros(p.frames)
    b[local_minima(s)] = 1.0
    return np.tile(b[:, None], (1, dim))


save_rhythm = save
load_rhythm = functools.partial(load, RhythmEmbedding)
