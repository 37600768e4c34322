import math
import struct

import numpy as np
import pytest

from dancebeat import flowgen
from dancebeat import tensor as tz
from dancebeat.align import segment_slots, segment_spans
from dancebeat.errors import ConfigError, ShapeError
from dancebeat.pose import MusicLatent, motion_diff
from dancebeat.rhythm import phase_bins
from dancebeat.tensor import Tensor, _emit, reflect_indices


def relerr(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (test oracle)."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def phase_histograms(mx: np.ndarray, my: np.ndarray, mag_s: np.ndarray,
                     weights: np.ndarray, bins: int) -> np.ndarray:
    """Weighted per-scale phase histograms, (T-1, K, S) (numpy reference)."""
    if bins < 2:
        raise ConfigError(f"need at least 2 phase bins, got {bins}")
    idx = phase_bins(mx, my, bins)
    Tm1, J, S = mag_s.shape
    h = np.zeros((Tm1, bins, S))
    for k in range(bins):
        h[:, k, :] = (weights[:, :, None] * mag_s * (idx == k)).sum(axis=1)
    return h


def optimal_match(gen: list[int], truth: list[int], window: float) -> int:
    """Brute-force maximum one-to-one matching (oracle for small grids)."""

    def rec(i: int, used: int) -> int:
        if i == len(gen):
            return 0
        best = rec(i + 1, used)
        for j, t in enumerate(truth):
            if not used & (1 << j) and abs(gen[i] - t) <= window:
                best = max(best, 1 + rec(i + 1, used | (1 << j)))
        return best

    return rec(0, 0)


# ---------------------------------------------------------------------------
# the unbatched forms of the batched layers: one op per column, bin, segment
# or head, the dense-column form of the fusion scatter, and the multi-pass
# forms of the one-pass kernels (oracles for tests/test_batched.py)


def conv1d_same(signal, kernel) -> Tensor:
    """Cross-correlate a 1-D signal with an odd-length kernel, reflect-padded
    so the output length equals the input length. Adjoints are recorded for
    the signal only."""
    sig = tz.as_tensor(signal)
    k = np.asarray(kernel, dtype=np.float64)
    if sig.ndim != 1 or k.ndim != 1:
        raise ShapeError(f"conv1d_same expects 1-D operands, got {sig.shape} and {k.shape}")
    L = k.size
    if L % 2 == 0:
        raise ConfigError(f"conv1d_same kernel length must be odd, got {L}")
    T = sig.data.size
    idx = reflect_indices(T, L // 2)
    out = np.correlate(sig.data[idx], k, mode="valid")

    def bwd(g):
        if sig.requires_grad:
            gsig = np.zeros(T)
            np.add.at(gsig, idx, np.convolve(g, k, mode="full"))
            sig._accum(gsig)

    return _emit(out, (sig,), bwd)


def conv_cols_loop(signal_2d: np.ndarray, bank) -> np.ndarray:
    """conv1d_same of each column against each kernel -> (T, J, S)."""
    T, J = signal_2d.shape
    out = np.empty((T, J, bank.scales))
    for j in range(J):
        col = Tensor(signal_2d[:, j])
        for s, k in enumerate(bank.kernels):
            out[:, j, s] = conv1d_same(col, k).data
    return out


def fusion_features_loop(feats, w: Tensor, bins: int) -> Tensor:
    """One weighted-sum column per (bin, scale), then one per wavelet scale."""
    S = feats.wavelet.shape[2]
    idx = phase_bins(feats.mx, feats.my, bins)
    cols = []
    for k in range(bins):
        for s in range(S):
            mass = feats.mag_s[:, :, s] * (idx[:, :, s] == k)
            cols.append(tz.tsum(tz.mul(w, mass), axis=1, keepdims=True))
    for s in range(S):
        cols.append(tz.tsum(tz.mul(w, feats.wavelet[:, :, s]), axis=1, keepdims=True))
    return tz.concat(cols, axis=1)


def dense_fusion_columns(feats) -> np.ndarray:
    """The (T-1, J, K*S + S) block: each joint's scale-s magnitude in the
    column k*S + s of its phase bin k, zeros in the other bins, then the S
    wavelet columns."""
    Tm1, J, S = feats.mag_s.shape
    columns = np.zeros((Tm1, J, (feats.bins + 1) * S))
    np.put_along_axis(columns, phase_bins(feats.mx, feats.my, feats.bins) * S + np.arange(S),
                      feats.mag_s, axis=2)
    columns[:, :, feats.bins * S:] = feats.wavelet
    return columns


def fusion_features_matmul(feats, w: Tensor) -> Tensor:
    """The fusion input as one (1, J) @ (J, K*S + S) product per frame over
    the dense columns."""
    columns = dense_fusion_columns(feats)
    Tm1, J, C = columns.shape
    return tz.reshape(tz.matmul(tz.reshape(w, (Tm1, 1, J)), columns), (Tm1, C))


def softmax_oracle(a, axis: int = -1) -> Tensor:
    """tensor.softmax with out-of-place temporaries."""
    a = tz.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        a._accum(y * (g - dot))

    return _emit(y, (a,), bwd)


def layer_norm_oracle(a, eps: float = 1e-5) -> Tensor:
    """tensor.layer_norm with numpy's own mean and var."""
    a = tz.as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        a._accum((g - gm - xhat * gx) * inv)

    return _emit(xhat, (a,), bwd)


def transpose(a, axes=None) -> Tensor:
    """Permute a tensor's axes, reversed by default."""
    a = tz.as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))

    def bwd(g):
        a._accum(g.transpose(np.argsort(axes)))

    return _emit(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def attention_pool_loop(seg: Tensor, q: Tensor) -> Tensor:
    """Pool an (n, D) segment with a (D,) query into a (1, D) row."""
    n, dim = seg.shape
    scores = tz.mul(tz.matmul(seg, tz.reshape(q, (dim, 1))), 1.0 / math.sqrt(dim))
    return tz.matmul(transpose(tz.softmax(scores, axis=0)), seg)


def align_loop(r: Tensor, queries: Tensor) -> Tensor:
    """Each query pools its own segment of r, one segment at a time."""
    spans = segment_spans(r.shape[0], queries.shape[0])
    return tz.concat([attention_pool_loop(r[a:b, :], queries[i, :])
                      for i, (a, b) in enumerate(spans)], axis=0)


def mean_pool_loop(r: Tensor, latent_len: int) -> Tensor:
    return tz.concat([tz.tmean(r[a:b, :], axis=0, keepdims=True)
                      for a, b in segment_spans(r.shape[0], latent_len)], axis=0)


def mean_pool_weighted(r: Tensor, latent_len: int) -> Tensor:
    """Segment means as one weighted sum of gathered slots, each weight 1/n."""
    slots, inside = segment_slots(r.shape[0], latent_len)
    weights = inside / inside.sum(axis=1, keepdims=True)
    rows = tz.concat([r, np.zeros((1, r.shape[1]))], axis=0)[slots]
    return tz.tsum(tz.mul(rows, weights[:, :, None]), axis=1)


def self_attention_loop(x: Tensor, blk, heads: int) -> Tensor:
    """Multi-head self-attention, one head's slice at a time."""
    n, hidden = x.shape
    dh = hidden // heads
    q = tz.linear(x, blk.wq, blk.bq)
    k = tz.linear(x, blk.wk)
    v = tz.linear(x, blk.wv, blk.bv)
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = tz.mul(tz.matmul(q[:, sl], transpose(k[:, sl])), 1.0 / math.sqrt(dh))
        outs.append(tz.matmul(tz.softmax(scores, axis=1), v[:, sl]))
    return tz.linear(tz.concat(outs, axis=1), blk.wo, blk.bo)


# ---------------------------------------------------------------------------
# the two-node biased linear and the attention that scales its scores
# (oracles for the one-node tz.linear and tz.attention)


def linear_oracle(x, w, b) -> Tensor:
    """x @ w + b as a matmul node and an add node."""
    return tz.add(tz.matmul(x, w), b)


def self_attention_scaled_scores(x: Tensor, blk, heads: int) -> Tensor:
    """Multi-head self-attention with 1/sqrt(dh) applied to the (heads, n, n)
    scores, every biased linear as two nodes."""
    n, hidden = x.shape
    dh = hidden // heads

    def split(y, axes):
        return transpose(tz.reshape(y, (n, heads, dh)), axes)

    q = split(linear_oracle(x, blk.wq, blk.bq), (1, 0, 2))
    kt = split(tz.matmul(x, blk.wk), (1, 2, 0))
    v = split(linear_oracle(x, blk.wv, blk.bv), (1, 0, 2))
    scores = tz.mul(tz.matmul(q, kt), 1.0 / math.sqrt(dh))
    out = transpose(tz.matmul(tz.softmax(scores, axis=-1), v), (1, 0, 2))
    return linear_oracle(tz.reshape(out, (n, hidden)), blk.wo, blk.bo)


# ---------------------------------------------------------------------------
# the per-frame loops of the peak, minimum and beat-index scans (oracles for
# tests/test_batched.py)


def local_minima_loop(signal: np.ndarray) -> list[int]:
    out = []
    n = signal.size
    for t in range(1, n - 1):
        if signal[t] < signal[t - 1] and signal[t] <= signal[t + 1]:
            out.append(t)
    return out


def latent_peaks_loop(c: np.ndarray, rel_threshold: float) -> list[int]:
    """metrics.detect_latent_beats's frames for channel 0 `c`."""
    n = c.size
    peak = c.max(initial=0.0)
    beats = []
    if peak > 0:
        thr = rel_threshold * peak
        for t in range(n):
            left_ok = t == 0 or c[t] > c[t - 1]
            right_ok = t == n - 1 or c[t] >= c[t + 1]
            if left_ok and right_ok and c[t] >= thr:
                beats.append(t)
    return beats


def map_to_latent_loop(grid, latent_len: int) -> list[int]:
    out: list[int] = []
    for f in grid.beat_frames:
        i = int(math.floor(f * latent_len / grid.timeline_len + 0.5))
        i = min(i, latent_len - 1)
        if not out or i != out[-1]:
            out.append(i)
    return out


def binary_rhythm_loop(p, dim: int) -> np.ndarray:
    """rhythm.baseline_binary_rhythm, filled one minimum at a time."""
    s = motion_diff(p).magnitude.sum(axis=1)
    b = np.zeros(p.frames)
    for t in local_minima_loop(s):
        b[t] = 1.0
    return np.tile(b[:, None], (1, dim))


# ---------------------------------------------------------------------------
# the per-tensor optimizer (oracle for flowgen.Adam over the parameter vector)


class adam_oracle:
    """Standard Adam with bias correction over a fixed tensor list, stepping
    from each tensor's own `grad`."""

    def __init__(self, tensors: list[Tensor], lr: float, beta1: float, beta2: float,
                 eps: float = 1e-8):
        self.tensors = tensors
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.b1 ** self.step_count
        c2 = 1.0 - self.b2 ** self.step_count
        for i, t in enumerate(self.tensors):
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            t.data -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)


# ---------------------------------------------------------------------------
# the sampler with guidance built in, and the WAV header reader (oracles for
# flowgen.generate and the WAV writer)


def euler_sample(params, rhythm, cond, latent_len: int, steps: int, cfg_scale: float,
                 seed: int, velocity_fn=None, latent_dim: int | None = None) -> MusicLatent:
    """flowgen.euler_sample over the model's `velocity` field, guided at
    `cfg_scale` unless both `rhythm` and `cond` are None.
    `velocity_fn(z, t, rhythm, cond) -> ndarray` replaces the model field;
    `latent_dim` is then required."""
    vf = velocity_fn or (lambda z, t, r, c: flowgen.velocity(params, z, t, r, c).data)
    if rhythm is None and cond is None:
        field = lambda z, t: vf(z, t, None, None)
    else:
        field = lambda z, t: flowgen.cfg_velocity(vf(z, t, rhythm, cond), vf(z, t, None, None),
                                                  cfg_scale)
    shape = (latent_len, latent_dim or params.latent_dim)
    return flowgen.euler_sample(field, shape, steps, seed)


def read_wav_header(path) -> dict:
    """The fixed 44-byte header's fields."""
    with open(path, "rb") as f:
        raw = f.read(44)
    fields = struct.unpack("<4sI4s4sIHHIIHH4sI", raw)
    return {
        "riff": fields[0], "wave": fields[2], "audio_format": fields[5],
        "channels": fields[6], "sample_rate": fields[7],
        "bits_per_sample": fields[10], "data_bytes": fields[12],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
