"""Command-line surface: synthesize benchmarks, extract rhythm, align,
train, generate, and evaluate — all deterministic under a fixed seed."""
from __future__ import annotations

import argparse
import ctypes
import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import align as align_mod
from . import checkpoint, clicktrack, flowgen, metrics, pose, rhythm
from .config import RunConfig, load_config
from .errors import ConfigError, DanceBeatError, ParseError
from .pose import BeatGrid

# where numpy's wheels bundle their OpenBLAS
_NUMPY_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


@functools.cache
def _blas_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, once per process.

    This program's matmuls are small: a second OpenBLAS thread spins between
    calls, nearly doubling CPU time for at most 5% less wall time. With no
    bundled library or no such symbol (numpy built on another BLAS), do nothing."""
    libs = sorted(_NUMPY_LIBS.glob("libscipy_openblas*"))
    try:
        set_threads = ctypes.CDLL(str(libs[0])).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


@functools.cache
def _fixed_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 16 MiB,
    once per process, so a training step reuses the heap the last one freed
    rather than faulting it in again (README, "Threads"). Where the C library
    has no `mallopt`, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def _clip_ids(data_dir: Path) -> list[str]:
    """The manifest lines' first fields, sorted; each a plain file name, named once."""
    manifest = data_dir / "manifest.txt"
    if not manifest.exists():
        raise ConfigError(f"no manifest.txt in {data_dir}")
    first = {}
    for ln, line in enumerate(pose.read_lines(manifest), start=1):
        if not line.strip():
            continue
        cid = line.split()[0]
        if Path(cid).name != cid:
            raise ParseError(f"clip {cid!r}: it is not a file name", ln, manifest)
        if cid in first:
            raise ParseError(f"clip {cid!r}: line {first[cid]} named it first", ln, manifest)
        first[cid] = ln
    return sorted(first)


def _load_dataset(data_dir: Path):
    return [(pose.load_pose_sequence(data_dir / f"{cid}.pose"),
             pose.load_latent(data_dir / f"{cid}.latent"),
             pose.load_conditioning(data_dir / f"{cid}.cond")) for cid in _clip_ids(data_dir)]


def _write_runlog(cfg: RunConfig, args) -> None:
    """`<out>.log`, or `<out>/run.log` for synth: a config file, the command its first comment."""
    path = Path(args.out) / "run.log" if args.command == "synth" else Path(f"{args.out}.log")
    path.write_text(f"# command = {args.command}\n{cfg.to_text()}", encoding="utf-8")


def _load_checkpoint(cfg: RunConfig, path) -> flowgen.TrainedModel:
    """The checkpoint's model, once the run config agrees with every field it
    fixes; with no path, the untrained model `train` starts from."""
    if path is None:
        return flowgen.init_model(cfg)
    model = checkpoint.load_model(path)
    for key in checkpoint.MODEL_KEYS:
        ours, theirs = getattr(cfg, key), getattr(model.config, key)
        if ours != theirs:
            raise ConfigError(f"the run config sets {key} = {ours!r} but checkpoint "
                              f"{path} was trained with {key} = {theirs!r}")
    return model


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: RunConfig, args) -> int:
    if args.n_clips < 1:
        raise ConfigError(f"--n-clips must be at least 1, got {args.n_clips}")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"{out} is not empty; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    manifest_lines = []
    for i in range(args.n_clips):
        cid = f"clip_{i:03d}"
        tempo = float(rng.uniform(cfg.tempo_min, cfg.tempo_max))
        clip_seed = int(rng.integers(2 ** 31 - 1))
        p, grid = pose.synth_dance(
            tempo_bpm=tempo, duration_s=cfg.duration_s, fps=cfg.fps,
            joints=cfg.joints, amplitude=cfg.amplitude, noise_std=cfg.noise_std,
            seed=clip_seed, beat_joint_fraction=cfg.beat_joint_fraction,
            coords=cfg.coords)
        z = pose.synth_latent(grid, cfg.latent_len, cfg.latent_dim, seed=clip_seed + 1)
        c = pose.synth_conditioning(cfg.cond_len, cfg.cond_dim, seed=clip_seed + 2)
        pose.save_pose_sequence(p, out / f"{cid}.pose")
        pose.save_beat_grid(grid, out / f"{cid}.beats")
        pose.save_latent(z, out / f"{cid}.latent")
        pose.save_conditioning(c, out / f"{cid}.cond")
        manifest_lines.append(f"{cid} tempo={tempo!r} seed={clip_seed}")
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    print(f"wrote {args.n_clips} clips to {out}")
    return 0


def cmd_extract(cfg: RunConfig, args) -> int:
    p = pose.load_pose_sequence(args.pose)
    model = _load_checkpoint(cfg, args.ckpt)
    if model.config.rhythm_mode in ("mean", "binary"):  # what such a model conditions on
        r = rhythm.RhythmEmbedding(data=flowgen.rhythm_input(p, model), fps=p.fps)
    else:
        r = rhythm.extract_rhythm(p, model.bank, model.rhythm_net)
    rhythm.save_rhythm(r, args.out)
    print(f"rhythm embedding {r.data.shape[0]}x{r.data.shape[1]} -> {args.out}")
    return 0


def cmd_align(cfg: RunConfig, args) -> int:
    r = rhythm.load_rhythm(args.rhythm)
    if (D := r.data.shape[1]) != cfg.rhythm_dim:
        raise ConfigError(f"{args.rhythm} has {D} columns but rhythm_dim is {cfg.rhythm_dim}")
    if (T := r.data.shape[0]) < cfg.latent_len:
        raise ConfigError(f"{args.rhythm} has {T} frames, fewer than latent_len = {cfg.latent_len}")
    model = _load_checkpoint(cfg, args.ckpt)
    # pooled the way the model conditions; a checkpoint's align_mode equals cfg's
    a = align_mod.align(r, model.queries, cfg.align_mode)
    rhythm.save_rhythm(a, args.out)
    print(f"aligned rhythm {a.data.shape[0]}x{a.data.shape[1]} -> {args.out}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    dataset = _load_dataset(Path(args.data))
    t0, c0 = time.monotonic(), time.process_time()
    model = flowgen.train(dataset, cfg)
    wall, cpu = time.monotonic() - t0, time.process_time() - c0
    checkpoint.save_model(model, args.out)
    print(f"trained {len(dataset)} clips for {cfg.epochs} epochs; "
          f"loss {model.loss_history[0]:.4f} -> {model.loss_history[-1]:.4f}")
    print(f"wall time {wall:.1f}s, cpu {cpu:.1f}s", file=sys.stderr)
    return 0


def cmd_generate(cfg: RunConfig, args) -> int:
    model = _load_checkpoint(cfg, args.ckpt)
    p = pose.load_pose_sequence(args.pose)
    cond = pose.load_conditioning(args.cond) if args.cond else None
    z = flowgen.generate(model, p, cond, cfg.steps, cfg.cfg_scale, cfg.seed,
                         conditioned=not args.unconditional)
    if args.wav:
        grid = metrics.detect_latent_beats(z, cfg.rel_threshold,
                                           fps=p.fps * cfg.latent_len / p.frames)
        clicktrack.write_wav(clicktrack.render_clicks(grid, duration_s=p.frames / p.fps), args.wav)
    pose.save_latent(z, args.out)
    print(f"generated latent -> {args.out}")
    return 0


def _evaluate_clips(cfg: RunConfig, data_dir: Path, latents: dict[str, pose.MusicLatent]):
    ids = sorted(latents)
    scores = []
    for cid in ids:
        truth = pose.load_beat_grid(data_dir / f"{cid}.beats")
        fps_latent = truth.fps * cfg.latent_len / truth.timeline_len
        truth_latent = BeatGrid(
            beat_frames=pose.map_to_latent(truth, cfg.latent_len),
            timeline_len=cfg.latent_len, fps=fps_latent)
        det = metrics.detect_latent_beats(latents[cid], cfg.rel_threshold, fps=fps_latent)
        scores.append(metrics.beat_scores(det, truth_latent, cfg.window_latent))
    return ids, scores, metrics.aggregate(scores)


def _generate_all(cfg: RunConfig, model: flowgen.TrainedModel, data_dir: Path,
                  conditioned: bool) -> dict[str, pose.MusicLatent]:
    latents = {}
    for i, cid in enumerate(_clip_ids(data_dir)):
        p = pose.load_pose_sequence(data_dir / f"{cid}.pose")
        c = pose.load_conditioning(data_dir / f"{cid}.cond")
        latents[cid] = flowgen.generate(model, p, c, cfg.steps, cfg.cfg_scale,
                                        cfg.seed + 7919 * (i + 1), conditioned=conditioned)
    return latents


def cmd_evaluate(cfg: RunConfig, args) -> int:
    data_dir = Path(args.data)
    if args.ablation:
        return _cmd_ablation(cfg, args)
    if args.generated:
        gen_dir = Path(args.generated)
        latents = {cid: pose.load_latent(gen_dir / f"{cid}.latent")
                   for cid in _clip_ids(data_dir)}
        for cid, z in latents.items():
            if len(z.data) != cfg.latent_len:
                raise ConfigError(f"{gen_dir / cid}.latent has {len(z.data)} rows but "
                                  f"latent_len is {cfg.latent_len}")
    elif args.ckpt:
        model = _load_checkpoint(cfg, args.ckpt)
        latents = _generate_all(cfg, model, data_dir, conditioned=not args.unconditional)
    else:
        raise ConfigError("evaluate needs --generated or --ckpt")
    ids, scores, agg = _evaluate_clips(cfg, data_dir, latents)
    report = metrics.format_report(ids, scores, agg)
    print(report, end="")
    print(f"BCS={agg.mean_bcs:.2f} CSD={agg.csd:.2f} BHS={agg.mean_bhs:.2f} "
          f"HSD={agg.hsd:.2f} F1={agg.mean_f1:.2f}")
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")
        Path(args.report).with_suffix(".tsv").write_text(
            metrics.format_report_tsv(ids, scores, agg), encoding="utf-8")
    return 0


_ABLATION_ROWS = [
    ("conditioning-only", {"rhythm_mode": "none"}),
    ("+rhythm (meanpool)", {"rhythm_mode": "learned", "align_mode": "meanpool"}),
    ("+rhythm +alignment", {"rhythm_mode": "learned", "align_mode": "attn"}),
    ("mean-motion rhythm", {"rhythm_mode": "mean", "align_mode": "attn"}),
    ("binarized rhythm", {"rhythm_mode": "binary", "align_mode": "attn"}),
]


def _cmd_ablation(cfg: RunConfig, args) -> int:
    """Component and rhythm-feature comparison on a train/held-out pair."""
    train_dir = Path(args.data)
    eval_dir = Path(args.eval_data) if args.eval_data else train_dir
    dataset = _load_dataset(train_dir)
    rows = []
    for name, overrides in _ABLATION_ROWS:
        sub = replace(cfg, **overrides)
        model = flowgen.train(dataset, sub)
        latents = _generate_all(sub, model, eval_dir, conditioned=True)
        _cids, scores, agg = _evaluate_clips(sub, eval_dir, latents)
        rows.append((name, agg))
        print(f"[ablation] {name}: F1={agg.mean_f1:.2f}", file=sys.stderr)
    lines = [f"{'configuration':<22}{'BCS':>8}{'CSD':>8}{'BHS':>8}{'HSD':>8}{'F1':>8}"]
    for name, agg in rows:
        lines.append(f"{name:<22}{agg.mean_bcs:>8.2f}{agg.csd:>8.2f}"
                     f"{agg.mean_bhs:>8.2f}{agg.hsd:>8.2f}{agg.mean_f1:>8.2f}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.report:
        Path(args.report).write_text(table, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dancebeat",
                                 description="desk-scale dance-to-music pipeline")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--seed", type=int, help="override the master seed")
    ap.add_argument("--force", action="store_true", help="overwrite non-empty outputs")
    ap.add_argument("--print-config", action="store_true",
                    help="print the effective config with provenance labels and exit")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("synth", help="generate a synthetic benchmark directory")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-clips", type=int, default=16)

    sp = sub.add_parser("extract", help="extract a rhythm embedding from a pose file")
    sp.add_argument("--pose", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--ckpt")

    sp = sub.add_parser("align", help="align a rhythm embedding to the latent timeline")
    sp.add_argument("--rhythm", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--ckpt")

    sp = sub.add_parser("train", help="train the generator on a benchmark directory")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("generate", help="sample a music latent for one clip")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--pose", required=True)
    sp.add_argument("--cond")
    sp.add_argument("--out", required=True)
    sp.add_argument("--wav", help="also render detected beats to a click-track WAV")
    sp.add_argument("--unconditional", action="store_true")

    sp = sub.add_parser("evaluate", help="score generated latents against ground truth")
    sp.add_argument("--data", required=True, help="benchmark directory with ground truth")
    sp.add_argument("--generated", help="directory of generated latents")
    sp.add_argument("--ckpt", help="generate on the fly from a checkpoint")
    sp.add_argument("--unconditional", action="store_true")
    sp.add_argument("--report", help="write the report (and .tsv variant) here")
    sp.add_argument("--ablation", action="store_true",
                    help="train and compare component/rhythm-feature variants")
    sp.add_argument("--eval-data", help="held-out directory for --ablation")
    return ap


_HANDLERS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "align": cmd_align,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    _blas_one_thread()
    _fixed_malloc_thresholds()
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.print_config:
            print(cfg.to_text(labeled=True), end="")
            return 0
        if not args.command:
            ap.print_help()
            return 2
        rc = _HANDLERS[args.command](cfg, args)
        if hasattr(args, "out"):  # every command but evaluate
            _write_runlog(cfg, args)
        return rc
    except (DanceBeatError, OSError, MemoryError) as e:  # a valid config may not fit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
