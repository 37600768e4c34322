"""End-to-end acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The slowest test trains two desk-scale models from scratch; the full file
takes a couple of minutes.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dancebeat import align as align_mod
from dancebeat import flowgen, metrics, pose, rhythm
from dancebeat import tensor as tz
from dancebeat.align import ContextQueries
from dancebeat.cli import main as cli_main
from dancebeat.config import RunConfig
from dancebeat.flowgen import init_model
from dancebeat.pose import BeatGrid
from dancebeat.tensor import Tape, Tensor

from conftest import euler_sample, optimal_match, phase_histograms


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient integrity of the composite training loss


def test_1_composite_gradient_matches_finite_differences():
    t_start = time.monotonic()
    rng = np.random.default_rng(7)
    tc = RunConfig(batch_size=1, epochs=1, learning_rate=1e-3,
                   scales=2, base_period=2.0, bins=4, rhythm_dim=6,
                   hidden_w=4, hidden_a=4, blocks=1, hidden=8, heads=2,
                   latent_dim=3, latent_len=2, cond_dim=3)
    model = init_model(tc)
    p = pose.PoseSequence(data=rng.uniform(0, 1, (4, 2, 2)), fps=30)
    feats = rhythm.clip_features(p, model.bank, tc.bins)
    cond = pose.ConditioningFeatures(data=rng.standard_normal((2, 3)))
    z1 = rng.standard_normal((2, 3))
    z0 = rng.standard_normal((2, 3))
    t_flow = 0.37

    def loss_value() -> float:
        with Tape():
            r, _gate = rhythm.rhythm_core_tensor(feats, model.rhythm_net)
            aligned = align_mod.align_tensor(r, model.queries)
            return flowgen.cfm_loss(model, z1, z0, t_flow, aligned, cond).item()

    params = model.all_tensors()
    for _name, t in params:
        t.grad = None
    with Tape():
        r, _gate = rhythm.rhythm_core_tensor(feats, model.rhythm_net)
        aligned = align_mod.align_tensor(r, model.queries)
        loss = flowgen.cfm_loss(model, z1, z0, t_flow, aligned, cond)
        tz.backward(loss)

    eps = 1e-5
    worst = 0.0
    for name, t in params:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        fd = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_value()
            flat[i] = orig - eps
            lo = loss_value()
            flat[i] = orig
            fd.reshape(-1)[i] = (hi - lo) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        rel = np.linalg.norm(analytic - fd) / denom if denom > 1e-10 else 0.0
        if np.linalg.norm(fd) < 1e-10 and np.linalg.norm(analytic) < 1e-10:
            rel = 0.0
        worst = max(worst, rel)
    elapsed = time.monotonic() - t_start
    _report(1, "gradient integrity", worst < 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. rhythm-extraction invariants on randomized instances


def test_2_rhythm_invariants_randomized():
    t_start = time.monotonic()
    rng = np.random.default_rng(11)
    bank = rhythm.build_wavelet_bank(2, 2.0)
    violations = 0
    for _ in range(1000):
        T = int(rng.integers(3, 9))
        J = int(rng.integers(2, 5))
        p = pose.PoseSequence(data=rng.uniform(0, 1, (T, J, 2)), fps=30)
        params = rhythm.RhythmParams.init(rng, scales=2, bins=4, dim=4,
                                        hidden_w=3, hidden_a=3)
        feats = rhythm.clip_features(p, bank, params.bins)
        w = rhythm.joint_weight_tensor(feats, params).data
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-9:
            violations += 1
            continue
        h = phase_histograms(feats.mx, feats.my, feats.mag_s, w, bins=4)
        mass = (w[:, :, None] * feats.mag_s).sum(axis=1)
        if np.abs(h.sum(axis=1) - mass).max() > 1e-9:
            violations += 1
            continue
        r = rhythm.extract_rhythm(p, bank, params)
        perm = rng.permutation(J)
        p2 = pose.PoseSequence(data=p.data[:, perm, :], fps=30)
        r2 = rhythm.extract_rhythm(p2, bank, params)
        if np.abs(r.data - r2.data).max() > 1e-9:
            violations += 1
            continue
        if not np.array_equal(r.data[-1], r.data[-2]):
            violations += 1
    elapsed = time.monotonic() - t_start
    _report(2, "rhythm-extraction invariants", violations == 0 and elapsed < 30.0,
            f"{violations} violations in 1000 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. attention-pooling oracle


def test_3_alignment_oracle():
    rng = np.random.default_rng(13)
    # identity regime: one row per segment is passed through exactly
    r = rhythm.RhythmEmbedding(data=rng.standard_normal((6, 4)), fps=30)
    q = ContextQueries.init(rng, 6, 4)
    a = align_mod.align(r, q)
    identity_ok = np.array_equal(a.data, r.data)

    # convex-hull bound on randomized segments
    hull_ok = True
    for _ in range(1000):
        seg = rng.standard_normal((int(rng.integers(1, 7)), 3))
        pooled = align_mod.attention_pool(Tensor(seg), Tensor(rng.standard_normal(3))).data
        lo, hi = seg.min(axis=0), seg.max(axis=0)
        if np.any(pooled < lo - 1e-12) or np.any(pooled > hi + 1e-12):
            hull_ok = False
            break

    # hand-computed two-row softmax: logits [2/sqrt(2), 0]
    seg = np.array([[1.0, 0.0], [0.0, 1.0]])
    pooled = align_mod.attention_pool(Tensor(seg), Tensor(np.array([2.0, 0.0]))).data
    expect = np.array([0.80442968, 0.19557032])
    hand_ok = np.abs(pooled.reshape(-1) - expect).max() < 1e-6

    _report(3, "alignment oracle", identity_ok and hull_ok and hand_ok,
            f"identity={identity_ok} hull={hull_ok} hand={hand_ok}")


# ---------------------------------------------------------------------------
# 4. Euler solver accuracy on the exponential-decay field


def test_4_sampler_accuracy():
    decay = lambda z, t, r, c: -z

    def multiplier_gap(steps: int) -> float:
        z0 = np.random.default_rng(21).standard_normal((8, 4))
        z = euler_sample(None, None, None, 8, steps, 1.0, 21, velocity_fn=decay, latent_dim=4)
        return np.abs(z.data / z0 - math.exp(-1)).max()

    gap32 = multiplier_gap(32)
    gap64 = multiplier_gap(64)
    ratio = gap32 / gap64
    ok = gap32 < 0.006 and 1.7 <= ratio <= 2.3
    _report(4, "sampler accuracy", ok, f"gap32={gap32:.5f} ratio={ratio:.3f}")


# ---------------------------------------------------------------------------
# 5. beat-metric oracle


def test_5_metric_oracle():
    g = lambda f: BeatGrid(beat_frames=f, timeline_len=100, fps=30.0)
    s = metrics.beat_scores(g([10, 20, 30, 40]), g([10, 20, 50]), 2)
    hand_ok = (abs(s.bcs - 50.00) < 0.005 and abs(s.bhs - 66.67) < 0.005
               and abs(s.f1 - 57.14) < 0.005)

    rng = np.random.default_rng(17)
    greedy_ok = True
    for _ in range(500):
        gen = sorted(rng.choice(100, size=int(rng.integers(0, 9)), replace=False))
        truth = sorted(rng.choice(100, size=int(rng.integers(0, 9)), replace=False))
        window = int(rng.integers(0, 7))
        if metrics.greedy_match(gen, truth, window) != optimal_match(gen, truth, window):
            greedy_ok = False
            break
    _report(5, "metric oracle", hand_ok and greedy_ok,
            f"hand BCS/BHS/F1 {s.bcs:.2f}/{s.bhs:.2f}/{s.f1:.2f}, greedy=optimal {greedy_ok}")


# ---------------------------------------------------------------------------
# 6. rhythm recovery on the synthetic benchmark


def test_6_rhythm_recovery():
    exact = True
    for tempo in (60, 90, 120, 150, 180):
        p, truth = pose.synth_dance(tempo, 5, 30, joints=8, noise_std=0.0, seed=tempo)
        det = metrics.detect_dance_beats(p, smooth_sigma=0.0, min_separation=1)
        if det.beat_frames != truth.beat_frames:
            exact = False
            break

    bank = rhythm.build_wavelet_bank(4, 4.0)
    p60, _ = pose.synth_dance(60, 5, 30, joints=8, noise_std=0.0, seed=1)
    p150, _ = pose.synth_dance(150, 5, 30, joints=8, noise_std=0.0, seed=1)
    s60 = int(np.argmax(rhythm.scale_energy(p60, bank)))
    s150 = int(np.argmax(rhythm.scale_energy(p150, bank)))
    order_ok = s60 > s150
    _report(6, "rhythm recovery", exact and order_ok,
            f"exact={exact}, dominant scale 60bpm={s60} > 150bpm={s150}")


# ---------------------------------------------------------------------------
# 7. desk-scale conditioning experiment


def _make_clips(cfg: RunConfig, n: int, seed0: int):
    rng = np.random.default_rng(seed0)
    clips = []
    for _ in range(n):
        tempo = float(rng.uniform(cfg.tempo_min, cfg.tempo_max))
        s = int(rng.integers(2 ** 31 - 1))
        p, grid = pose.synth_dance(tempo, cfg.duration_s, cfg.fps, cfg.joints,
                                   amplitude=cfg.amplitude, noise_std=cfg.noise_std,
                                   seed=s, beat_joint_fraction=cfg.beat_joint_fraction,
                                   coords=cfg.coords)
        z = pose.synth_latent(grid, cfg.latent_len, cfg.latent_dim, seed=s + 1)
        c = pose.synth_conditioning(cfg.cond_len, cfg.cond_dim, seed=s + 2)
        clips.append((p, z, c, grid))
    return clips


def _mean_f1(cfg: RunConfig, model, clips, conditioned: bool) -> float:
    scores = []
    for i, (p, _z, c, grid) in enumerate(clips):
        z = flowgen.generate(model, p, c, cfg.steps, cfg.cfg_scale, cfg.seed + 7919 * (i + 1),
                             conditioned=conditioned)
        fps_l = cfg.fps * cfg.latent_len / grid.timeline_len
        truth = BeatGrid(beat_frames=pose.map_to_latent(grid, cfg.latent_len),
                         timeline_len=cfg.latent_len, fps=fps_l)
        det = metrics.detect_latent_beats(z, cfg.rel_threshold, fps=fps_l)
        scores.append(metrics.beat_scores(det, truth, cfg.window_latent))
    return metrics.aggregate(scores).mean_f1


def test_7_conditioning_experiment():
    # desk-default architecture; the short-budget training recipe replaces
    # the full recipe (30 epochs max, one clip per update, higher lr)
    cfg = RunConfig(epochs=30, batch_size=1, learning_rate=1e-3, seed=0)
    train_clips = _make_clips(cfg, 16, seed0=100)
    eval_clips = _make_clips(cfg, 8, seed0=200)
    dataset = [(p, z, c) for (p, z, c, _g) in train_clips]

    t0 = time.monotonic()
    model = flowgen.train(dataset, cfg)
    train_s = time.monotonic() - t0

    f1_cond = _mean_f1(cfg, model, eval_clips, conditioned=True)
    f1_uncond = _mean_f1(cfg, model, eval_clips, conditioned=False)

    cfg_none = replace(cfg, rhythm_mode="none")
    model_none = flowgen.train(dataset, cfg_none)
    f1_condonly = _mean_f1(cfg_none, model_none, eval_clips, conditioned=True)

    ok = (train_s < 900.0
          and f1_cond >= f1_uncond + 15.0
          and f1_cond >= f1_condonly)
    _report(7, "conditioning experiment", ok,
            f"train {train_s:.0f}s; F1 cond={f1_cond:.2f} uncond={f1_uncond:.2f} "
            f"cond-only={f1_condonly:.2f}")


# ---------------------------------------------------------------------------
# 8. byte-deterministic CLI


_TINY_CFG = """\
scales = 2
base_period = 2.0
bins = 4
rhythm_dim = 6
hidden_w = 4
hidden_a = 4
joints = 4
duration_s = 2.0
cond_len = 4
cond_dim = 3
latent_len = 10
latent_dim = 3
blocks = 1
hidden = 8
heads = 2
batch_size = 2
epochs = 2
learning_rate = 0.001
steps = 4
"""


def _run_pipeline(root: Path, cfg_file: str) -> dict[str, bytes]:
    data = root / "data"
    assert cli_main(["--config", cfg_file, "synth", "--out", str(data),
                     "--n-clips", "2"]) == 0
    assert cli_main(["--config", cfg_file, "extract",
                     "--pose", str(data / "clip_000.pose"),
                     "--out", str(root / "clip.rhythm")]) == 0
    assert cli_main(["--config", cfg_file, "align",
                     "--rhythm", str(root / "clip.rhythm"),
                     "--out", str(root / "clip.arhythm")]) == 0
    assert cli_main(["--config", cfg_file, "train", "--data", str(data),
                     "--out", str(root / "model")]) == 0
    assert cli_main(["--config", cfg_file, "generate",
                     "--ckpt", str(root / "model"),
                     "--pose", str(data / "clip_000.pose"),
                     "--cond", str(data / "clip_000.cond"),
                     "--out", str(root / "gen.latent"),
                     "--wav", str(root / "gen.wav")]) == 0
    assert cli_main(["--config", cfg_file, "evaluate", "--data", str(data),
                     "--generated", str(data),
                     "--report", str(root / "report.txt")]) == 0
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def test_8_cli_determinism(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(_TINY_CFG)
    runs = []
    for name in ("run_a", "run_b"):
        root = tmp_path / name
        root.mkdir()
        runs.append(_run_pipeline(root, str(cfg_file)))
    same_names = sorted(runs[0]) == sorted(runs[1])
    diffs = [k for k in runs[0] if runs[0][k] != runs[1].get(k)]
    _report(8, "CLI determinism", same_names and not diffs,
            f"{len(runs[0])} artifacts compared" + (f"; differ: {diffs}" if diffs else ""))
