"""Conditional flow-matching music-latent generator.

A small transformer predicts the velocity field v(z_t, t | rhythm, cond)
on the linear path z_t = (1-t) z0 + t z1 with regression target z1 - z0.
Sampling integrates the learned ODE with a fixed-step Euler solver under
classifier-free guidance. Training jointly optimizes the velocity field,
the rhythm extractor, and the alignment queries with Adam.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import tensor as tz
from .align import ContextQueries, align_tensor, mean_pool_align
from .config import RunConfig
from .errors import ConfigError, NumericalError
from .pose import ConditioningFeatures, MusicLatent, PoseSequence
from .rhythm import (ClipRhythmFeatures, RhythmParams, baseline_binary_rhythm, baseline_mean_rhythm,
                     build_wavelet_bank, clip_features, rhythm_core_tensor)
from .tensor import Tape, Tensor, backward

TIME_FREQ_SCALE = 1000.0  # spreads t in [0,1] across the sinusoid spectrum


class TransformerBlock(SimpleNamespace):
    """One transformer block's tensors, named by the layout's `block{i}.` entries."""


class VelocityFieldParams(SimpleNamespace):
    """The velocity field's tensors, named by `layout`, with `heads`, the
    attention head count, and `layers`, one TransformerBlock per block."""

    @property
    def latent_dim(self) -> int:
        return self.lat_w.shape[0]

    @property
    def hidden(self) -> int:
        return self.lat_w.shape[1]

    @staticmethod
    def layout(cfg: RunConfig) -> tz.Layout:
        h, ff, ld = cfg.hidden, 4 * cfg.hidden, cfg.latent_dim
        w = lambda name, fan_in, fan_out: (name, (fan_in, fan_out), fan_in)
        z = lambda name, n=h: (name, (n,), "zeros")
        block = [("ln1_g", (h,), "ones"), z("ln1_b"), w("wq", h, h), z("bq"),
                 # no key bias: it shifts a query's scores equally, which softmax cancels
                 w("wk", h, h), w("wv", h, h), z("bv"), w("wo", h, h), z("bo"),
                 ("ln2_g", (h,), "ones"), z("ln2_b"), w("f1", h, ff), z("fb1", ff),
                 w("f2", ff, h), z("fb2")]
        return [w("time_w1", h, h), z("time_b1"), w("time_w2", h, h), z("time_b2"),
                w("cond_w", cfg.cond_dim, h), z("cond_b"), ("null_cond", (1, h), h),
                w("rhythm_w", cfg.rhythm_dim, h), z("rhythm_b"), ("null_rhythm", (1, h), h),
                w("lat_w", ld, h), z("lat_b"),
                *[(f"block{i}.{n}", *rest) for i in range(cfg.blocks) for n, *rest in block],
                ("out_g", (h,), "ones"), z("out_b"), w("head_w", h, ld), z("head_b", ld)]


def _self_attention(x: Tensor, blk: TransformerBlock, heads: int) -> Tensor:
    q = tz.linear(x, blk.wq, blk.bq)
    k = tz.linear(x, blk.wk)
    v = tz.linear(x, blk.wv, blk.bv)
    return tz.linear(tz.attention(q, k, v, heads), blk.wo, blk.bo)


def _time_token(params: VelocityFieldParams, t: float) -> Tensor:
    temb = Tensor(tz.sinusoidal_embedding([t * TIME_FREQ_SCALE], params.hidden))
    return tz.linear(tz.relu(tz.linear(temb, params.time_w1, params.time_b1)),
                     params.time_w2, params.time_b2)


def _cond_tokens(params: VelocityFieldParams, cond) -> Tensor:
    if cond is None:
        return params.null_cond
    cdata = cond.data if isinstance(cond, (ConditioningFeatures,)) else np.asarray(cond)
    if cdata.shape[1] != params.cond_w.shape[0]:
        raise ConfigError(f"conditioning dim {cdata.shape[1]} != model dim "
                          f"{params.cond_w.shape[0]}")
    return tz.linear(Tensor(cdata), params.cond_w, params.cond_b)


def _rhythm_tokens(params: VelocityFieldParams, rhythm, T_m: int) -> Tensor:
    if rhythm is None:
        return params.null_rhythm
    rhythm = tz.as_tensor(rhythm)
    if rhythm.shape[0] != T_m:
        raise ConfigError(f"rhythm length {rhythm.shape[0]} != latent length {T_m}")
    return tz.linear(rhythm, params.rhythm_w, params.rhythm_b)


def _latent_tokens(params: VelocityFieldParams, z: Tensor, positions) -> Tensor:
    return tz.add(tz.linear(z, params.lat_w, params.lat_b), positions)


def _transformer(params: VelocityFieldParams, tt: Tensor, ct: Tensor, lat: Tensor,
                 rt: Tensor) -> Tensor:
    x = tz.concat([tt, ct, tz.add(lat, rt)], axis=0)
    for blk in params.layers:
        x = tz.add(x, _self_attention(tz.layer_norm(x, blk.ln1_g, blk.ln1_b), blk, params.heads))
        h = tz.linear(tz.relu(tz.linear(tz.layer_norm(x, blk.ln2_g, blk.ln2_b), blk.f1, blk.fb1)),
                      blk.f2, blk.fb2)
        x = tz.add(x, h)
    n, T_m = x.shape[0], lat.shape[0]
    out = tz.layer_norm(x[n - T_m:n, :], params.out_g, params.out_b)
    return tz.linear(out, params.head_w, params.head_b)


def velocity(params: VelocityFieldParams, z_t, t: float,
             rhythm=None, cond=None) -> Tensor:
    """Predicted velocity at time t, shape (T_m, d).

    Token layout: [time token] ++ [conditioning tokens] ++ [latent tokens
    with rhythm features added positionwise]. Null rhythm/conditioning are
    replaced by learned null tokens. `generate` builds each token from the
    same helpers, but only as often as it changes.
    """
    z = tz.as_tensor(z_t)
    T_m, d = z.shape
    if d != params.latent_dim:
        raise ConfigError(f"latent dim {d} != model dim {params.latent_dim}")
    pos = tz.sinusoidal_embedding(np.arange(T_m), params.hidden)
    # arguments evaluate in order: the tape records time, cond, latent, rhythm
    return _transformer(params, _time_token(params, t), _cond_tokens(params, cond),
                        _latent_tokens(params, z, pos), _rhythm_tokens(params, rhythm, T_m))


def cfg_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, scale: float) -> np.ndarray:
    """Extrapolate from the unconditional toward the conditional velocity."""
    if v_cond.shape != v_uncond.shape:
        raise ConfigError(f"guidance shapes differ: {v_cond.shape} vs {v_uncond.shape}")
    return v_uncond + scale * (v_cond - v_uncond)


def euler_sample(field, shape: tuple[int, int], steps: int, seed: int) -> MusicLatent:
    """Integrate dz/dt = field(z, t) from a standard-normal draw of `shape`
    at t=0 to t=1 with `steps` fixed Euler steps; deterministic for a fixed
    seed."""
    z = np.random.default_rng(seed).standard_normal(shape)
    dt = 1.0 / steps
    for k in range(steps):
        z = z + dt * field(z, k / steps)
        if not np.isfinite(z).all():
            raise NumericalError(f"non-finite latent after Euler step {k + 1} of {steps}")
    return MusicLatent(data=z)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainedModel:
    """Every tensor's `data` is a view into `flat`, the one parameter vector,
    at its `layout(config)` segment: write through them, never rebind a `data`."""

    vf: VelocityFieldParams
    rhythm_net: RhythmParams
    queries: ContextQueries
    bank: list[np.ndarray]  # the wavelet kernels, shortest period first
    config: RunConfig
    loss_history: list[float]
    flat: np.ndarray
    tensors: dict[str, Tensor]  # by layout name, in layout order

    def all_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())


def rhythm_input(pose: PoseSequence, model: TrainedModel):
    """What the model's rhythm mode conditions on for one clip: clip
    features ('learned'), a (T, D) baseline array ('mean', 'binary'), or
    None ('none')."""
    mc = model.config
    if mc.rhythm_mode == "learned":
        return clip_features(pose, model.bank, mc.bins)
    if mc.rhythm_mode == "mean":
        return baseline_mean_rhythm(pose, mc.rhythm_dim)
    if mc.rhythm_mode == "binary":
        return baseline_binary_rhythm(pose, mc.rhythm_dim)
    return None


def rhythm_condition_tensor(inp: ClipRhythmFeatures | np.ndarray | None,
                            model: TrainedModel) -> Tensor | None:
    """Aligned rhythm conditioning from one clip's `rhythm_input`."""
    if inp is None:
        return None
    if isinstance(inp, ClipRhythmFeatures):
        r, _gate = rhythm_core_tensor(inp, model.rhythm_net)
    else:
        r = Tensor(inp)
    if model.config.align_mode == "attn":
        return align_tensor(r, model.queries)
    return mean_pool_align(r, model.config.latent_len)


def cfm_loss(model: TrainedModel, z1: np.ndarray, z0: np.ndarray, t: float,
             rhythm_cond: Tensor | None, cond: ConditioningFeatures | None) -> Tensor:
    """Mean squared error between the predicted velocity at z_t and the
    linear-path target z1 - z0."""
    if z1.shape != z0.shape:
        raise ConfigError(f"latent shapes differ: {z1.shape} vs {z0.shape}")
    z_t = (1.0 - t) * z0 + t * z1
    v = velocity(model.vf, z_t, t, rhythm_cond, cond)
    return tz.mse(v, z1 - z0)


class Adam:
    """Standard Adam with bias correction on the parameter vector `flat`, in
    place and in the textbook order per element: m and v from the gradient
    `g`, then flat -= lr * (m / c1) / (sqrt(v / c2) + eps)."""

    def __init__(self, flat: np.ndarray, lr: float, beta1: float, beta2: float,
                 eps: float = 1e-8):
        self.flat = flat
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.step_count = 0

    def step(self, g: np.ndarray) -> None:
        """One update from `g`, a vector like `flat`, which it overwrites."""
        self.step_count += 1
        c1 = 1.0 - self.b1 ** self.step_count
        c2 = 1.0 - self.b2 ** self.step_count
        m, v, s = self.m, self.v, np.empty_like(g)
        m *= self.b1
        m += np.multiply(g, 1 - self.b1, out=s)
        v *= self.b2
        v += np.multiply(np.multiply(g, 1 - self.b2, out=s), g, out=s)
        den = np.sqrt(np.divide(v, c2, out=g), out=g)
        den += self.eps
        np.multiply(np.divide(m, c1, out=s), self.lr, out=s)
        self.flat -= np.divide(s, den, out=s)


def _clip_global_norm(g: np.ndarray, max_norm: float) -> float:
    """The norm of the gradient vector `g`; scales `g` to norm `max_norm` > 0 if longer."""
    total = math.sqrt(float(np.dot(g, g)))
    if total > max_norm > 0:
        g *= max_norm / total
    return total


# init_model draws the groups in this order, not in their `flat` order (vf,
# rhythm, align), which keeps the initial weights of earlier versions
DRAW_ORDER = ("rhythm", "align", "vf")


def _group_layouts(cfg: RunConfig) -> dict[str, tz.Layout]:
    return {"vf": VelocityFieldParams.layout(cfg),
            "rhythm": RhythmParams.layout(cfg.scales, cfg.bins, cfg.rhythm_dim,
                                          cfg.hidden_w, cfg.hidden_a),
            "align": ContextQueries.layout(cfg.latent_len, cfg.rhythm_dim)}


def layout(cfg: RunConfig) -> tz.Layout:
    """Every parameter tensor of the model, group-prefixed, in `flat` order."""
    return [(f"{g}.{name}", shape, init) for g, group in _group_layouts(cfg).items()
            for name, shape, init in group]


def parameter_count(cfg: RunConfig) -> int:
    """Number of float64 values in `flat`: the layout's size with one block plus
    one block's size per further block, so any `blocks` costs the same to count."""
    one, two = (tz.layout_size(layout(replace(cfg, blocks=b))) for b in (1, 2))
    return one + (cfg.blocks - 1) * (two - one)


def build_model(cfg: RunConfig, flat: np.ndarray,
                rng: np.random.Generator | None = None) -> TrainedModel:
    """The model over views of `flat`'s `layout(cfg)` segments, drawn first if given `rng`."""
    groups = _group_layouts(cfg)
    starts = dict(zip(groups, np.cumsum([0] + [tz.layout_size(g) for g in groups.values()])))
    t = {g: tz.parameters(groups[g], flat[starts[g]:], rng) for g in DRAW_ORDER}
    block = lambda i: {n.removeprefix(f"block{i}."): x for n, x in t["vf"].items()
                       if n.startswith(f"block{i}.")}
    vf = VelocityFieldParams(heads=cfg.heads,
                             layers=[TransformerBlock(**block(i)) for i in range(cfg.blocks)],
                             **{n: x for n, x in t["vf"].items() if "." not in n})
    return TrainedModel(vf=vf, rhythm_net=RhythmParams(bins=cfg.bins, **t["rhythm"]),
                        queries=ContextQueries(t["align"]["queries"]),
                        bank=build_wavelet_bank(cfg.scales, cfg.base_period), config=cfg,
                        loss_history=[], flat=flat,
                        tensors={f"{g}.{n}": x for g in groups for n, x in t[g].items()})


def init_model(cfg: RunConfig) -> TrainedModel:
    return build_model(cfg, np.empty(parameter_count(cfg)), np.random.default_rng(cfg.seed))


def train(dataset: list[tuple[PoseSequence, MusicLatent, ConditioningFeatures]],
          cfg: RunConfig) -> TrainedModel:
    """Joint Adam optimization of all three parameter groups on the CFM loss.

    Deterministic for a fixed config seed. Raises ConfigError when a clip's
    latent shape or conditioning width differs from the config, and
    NumericalError, before Adam steps, when a batch loss or gradient is not finite.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    for pose, z, c in dataset:
        if z.data.shape != (cfg.latent_len, cfg.latent_dim) or c.data.shape[1] != cfg.cond_dim:
            raise ConfigError(
                f"dataset clip has latent {z.data.shape} and conditioning width "
                f"{c.data.shape[1]}; the config says ({cfg.latent_len}, {cfg.latent_dim}) "
                f"and {cfg.cond_dim}")

    model = init_model(cfg)
    inputs = [rhythm_input(pose, model) for pose, _, _ in dataset]

    # one gradient vector laid out like flat: backward adds each tensor's gradient
    # into its segment; a group the mode leaves out of the loss keeps zeros there
    grad = np.zeros_like(model.flat)
    for name, view in tz.parameters(layout(cfg), grad).items():
        model.tensors[name].slot = tz.LeafSlot(view.data)
    opt = Adam(model.flat, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2)
    rng = np.random.default_rng(cfg.seed + 1)

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for b0 in range(0, len(dataset), cfg.batch_size):
            batch = order[b0:b0 + cfg.batch_size]
            batch_loss = 0.0
            for i in batch:
                pose, z1, cond = dataset[i]
                t = float(rng.uniform())
                z0 = rng.standard_normal(z1.data.shape)
                drop = cfg.cond_drop_prob > 0 and rng.uniform() < cfg.cond_drop_prob
                with Tape():
                    loss = cfm_loss(model, z1.data, z0, t,
                                    None if drop else rhythm_condition_tensor(inputs[i], model),
                                    None if drop else cond)
                    backward(loss)
                batch_loss += float(loss.data)
            grad *= 1.0 / len(batch)  # the batch mean, taken once on the summed gradients
            if not math.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
            if not math.isfinite(_clip_global_norm(grad, cfg.grad_clip)):
                raise NumericalError(
                    f"non-finite gradient norm at epoch {epoch}, batch {b0 // cfg.batch_size}")
            opt.step(grad)
            grad.fill(0.0)  # Adam used it as scratch; the next batch sums into zeros
            epoch_losses.append(batch_loss / len(batch))
        model.loss_history.append(float(np.mean(epoch_losses)))
    for t in model.tensors.values():  # ordinary slots again: the model keeps no gradient vector
        t.slot = tz.GradSlot(t.shape, True)
    return model


def generate(model: TrainedModel, pose: PoseSequence, cond: ConditioningFeatures | None,
             steps: int, cfg_scale: float, seed: int, conditioned: bool = True) -> MusicLatent:
    """Sample a latent for one clip with `steps` Euler steps at guidance
    scale `cfg_scale`, conditioning on its rhythm unless `conditioned` is
    False (null-token generation)."""
    vf, T_m = model.vf, model.config.latent_len
    r = rhythm_condition_tensor(rhythm_input(pose, model), model) if conditioned else None
    c = cond if conditioned else None
    # context tokens once a clip; time and latent tokens once a step, for both passes
    ct, rt = _cond_tokens(vf, c), _rhythm_tokens(vf, r, T_m)
    positions = Tensor(tz.sinusoidal_embedding(np.arange(T_m), vf.hidden))

    def field(z, t):
        tt, lat = _time_token(vf, t), _latent_tokens(vf, Tensor(z), positions)
        v = _transformer(vf, tt, ct, lat, rt).data
        if r is None and c is None:
            return v
        return cfg_velocity(v, _transformer(vf, tt, vf.null_cond, lat, vf.null_rhythm).data,
                            cfg_scale)

    return euler_sample(field, (T_m, vf.latent_dim), steps, seed)
