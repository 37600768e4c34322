import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from dancebeat import clicktrack, flowgen
from dancebeat import tensor as tz
from dancebeat.align import segment_slots
from dancebeat.errors import ConfigError, ShapeError
from dancebeat.pose import MusicLatent, motion_diff
from dancebeat.rhythm import phase_bins
from dancebeat.tensor import Tape, Tensor, _emit, backward


def relerr(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> float:
    """Largest difference over the larger operand's largest magnitude, or
    over `scale`, the size of the computation, where the outputs may cancel
    to rounding noise (|x| * sum|k| for a correlation of x with k)."""
    a, b = np.asarray(a), np.asarray(b)
    if scale is None:
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


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


def reflect_indices(n: int, pad: int) -> np.ndarray:
    """Source indices for reflect-padding a length-n signal by `pad` a side,
    reflecting again where the pad is wider than the signal (oracle for
    np.pad(mode="reflect"))."""
    if n == 1:
        return np.zeros(1 + 2 * pad, dtype=np.intp)
    pos = np.arange(-pad, n + pad)
    period = 2 * (n - 1)
    q = np.mod(pos, period)
    return np.where(q < n, q, period - q).astype(np.intp)


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
# and multi-node forms of the one-pass kernels (oracles for tests/test_batched.py)


def conv1d_same(signal, kernel) -> Tensor:
    """Cross-correlate a 1-D signal with an odd-length kernel, reflect-padded
    so the output length equals the input length. Adjoints are recorded for
    the signal only."""
    sig = tz.as_tensor(signal)
    k = np.asarray(kernel, dtype=np.float64)
    if sig.data.ndim != 1 or k.ndim != 1:
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
    out = np.empty((T, J, len(bank)))
    for j in range(J):
        col = Tensor(signal_2d[:, j])
        for s, k in enumerate(bank):
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


def layer_norm_oracle(a, g, b, eps: float = 1e-5) -> Tensor:
    """tensor.layer_norm as a normalization node with numpy's own mean and
    var, then a mul node by the gain and an add node of the bias."""
    a = tz.as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv

    def bwd(dy):
        gm = dy.mean(axis=-1, keepdims=True)
        gx = (dy * xhat).mean(axis=-1, keepdims=True)
        a._accum((dy - gm - xhat * gx) * inv)

    return tz.add(tz.mul(_emit(xhat, (a,), bwd), g), b)


def mse_chain(a, target) -> Tensor:
    """tensor.mse as a sub node, a mul node and a mean node."""
    diff = sub(a, target)
    return tmean(tz.mul(diff, diff))


def sub(a, b) -> Tensor:
    a, b = tz.as_tensor(a), tz.as_tensor(b)

    def bwd(g):
        a._accum(g)
        if b.requires_grad:
            b._accum(-g)

    return _emit(a.data - b.data, (a, b), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tz.as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape) / n)

    return _emit(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def transpose(a, axes=None) -> Tensor:
    """Permute a tensor's axes, reversed by default."""
    a = tz.as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))

    def bwd(g):
        a._accum(g.transpose(np.argsort(axes)))

    return _emit(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def segment_spans(total: int, count: int) -> list[tuple[int, int]]:
    """The cut rule by its definition: segment i is the frames f with
    floor(i*total/count) <= f < floor((i+1)*total/count)."""
    cuts = [math.floor(i * total / count) for i in range(count + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(count)]


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
    return tz.concat([tmean(r[a:b, :], axis=0, keepdims=True)
                      for a, b in segment_spans(r.shape[0], latent_len)], axis=0)


def mean_pool_weighted(r: Tensor, latent_len: int) -> Tensor:
    """Segment means as one weighted sum of gathered slots, each weight 1/n
    inside the segment and 0 past its end."""
    slots, inside = segment_slots(r.shape[0], latent_len)
    weights = inside / inside.sum(axis=1, keepdims=True)
    return tz.tsum(tz.mul(r[slots], weights[:, :, None]), axis=1)


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
# per-tensor gradients gathered once a batch (oracle for flowgen.train's one
# gradient vector, which backward fills in place)


def gather_grads(tensors: list[Tensor]) -> np.ndarray:
    """The tensors' gradients as one new vector, zeros where one got none;
    resets them. Backward may hand two leaves one array, so never adopt it."""
    g = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad
                        for t in tensors], axis=None)
    for t in tensors:
        t.grad = None
    return g


def train_loop(dataset, cfg) -> tuple[flowgen.TrainedModel, list[bytes], int]:
    """flowgen.train with each leaf's gradient summed out of place and the
    leaves gathered into a new vector each batch. Returns the model, each
    batch's vector as clipping receives it, and how many clips dropped their
    conditioning."""
    model = flowgen.init_model(cfg)
    inputs = [flowgen.rhythm_input(pose, model) for pose, _, _ in dataset]
    tensors = list(model.tensors.values())
    opt = flowgen.Adam(model.flat, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2)
    rng = np.random.default_rng(cfg.seed + 1)
    vectors, drops = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for b0 in range(0, len(dataset), cfg.batch_size):
            batch = order[b0:b0 + cfg.batch_size]
            batch_loss = 0.0
            for i in batch:
                pose, z1, cond = dataset[i]
                t = float(rng.uniform())
                z0 = rng.standard_normal(z1.data.shape)
                drop = cfg.cond_drop_prob > 0 and rng.uniform() < cfg.cond_drop_prob
                drops += drop
                with Tape():
                    rcond = None if drop else flowgen.rhythm_condition_tensor(inputs[i], model)
                    loss = tz.mul(flowgen.cfm_loss(model, z1.data, z0, t, rcond,
                                                   None if drop else cond), 1.0 / len(batch))
                    backward(loss)
                batch_loss += float(loss.data) * len(batch)
            g = gather_grads(tensors)
            vectors.append(g.tobytes())
            flowgen._clip_global_norm(g, cfg.grad_clip)
            opt.step(g)
            losses.append(batch_loss / len(batch))
        model.loss_history.append(float(np.mean(losses)))
    return model, vectors, drops


# ---------------------------------------------------------------------------
# the sampler with guidance built in, the whole-window click track and the
# WAV header reader (oracles for flowgen.generate and the streamed WAV writer)


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


def render_clicks_whole(beats, duration_s: float, sample_rate: int = 44100) -> np.ndarray:
    """The click track as one float64 array over the whole window: each
    beat's burst overlap-added in beat order, then peak-normalized."""
    out = np.zeros(int(round(duration_s * sample_rate)))
    burst_n = int(round(clicktrack.CLICK_LEN_S * sample_rate))
    t = np.arange(burst_n) / sample_rate
    burst = (np.exp(-t / clicktrack.CLICK_DECAY_S)
             * np.sin(2 * math.pi * clicktrack.CLICK_FREQ_HZ * t))
    for f in beats.beat_frames:
        s0 = int(round(f / beats.fps * sample_rate))
        seg = min(burst_n, out.size - s0)
        out[s0:s0 + seg] += burst[:seg]
    peak = np.abs(out).max()
    if peak > 0:
        out *= clicktrack.PEAK / peak
    return out


def wav_bytes_whole(samples: np.ndarray, sample_rate: int) -> bytes:
    """The 16-bit mono WAV file of `samples` in [-1, 1], quantized in one array."""
    data = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data.nbytes, b"WAVE",
                      b"fmt ", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16,
                      b"data", data.nbytes)
    return hdr + data.tobytes()


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


# ---------------------------------------------------------------------------
# the matrix text file, one repr(float(v)) per value (byte oracle for
# pose.save), and a checkpoint blob writer that keeps the manifest's
# length and digest true, so a test can plant any values behind them


def matrix_text(head: tuple, rows: np.ndarray) -> str:
    fields = [repr(float(v)) if isinstance(v, float) else str(v) for v in head]
    return "".join(" ".join(f) + "\n"
                   for f in [fields] + [[repr(float(v)) for v in row] for row in rows])


def write_blob(ckpt: Path, flat: np.ndarray) -> None:
    blob = flat.astype("<f8").tobytes()
    manifest = ckpt.with_suffix(".manifest")
    lines = manifest.read_text().splitlines()
    lines[1] = f"blob {len(blob)} {hashlib.sha256(blob).hexdigest()}"
    manifest.write_text("\n".join(lines) + "\n")
    ckpt.with_suffix(".bin").write_bytes(blob)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
