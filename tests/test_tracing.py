"""perfbench's tracer swaps program attributes by name for traced wrappers:
each must be its owner's own, or a rename under src/ breaks `--trace 1`;
and the program must still call each layer through that name, or its
per-layer figure silently reads zero. The tape nodes of a training
clip-step are counted here as the bench counts them, on a real `train`."""
import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from dancebeat import flowgen, pose  # noqa: E402
from dancebeat.cli import main  # noqa: E402
from dancebeat.config import RunConfig  # noqa: E402
from test_acceptance import _TINY_CFG  # noqa: E402


def test_every_traced_attribute_is_its_owners_own():
    targets = [(owner, attr) for owner, attr, _ in tracing.TARGETS] + [(tracing.flowgen, "Tape")]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets
            if attr not in owner.__dict__] == []


def test_one_cli_round_calls_every_traced_layer(tmp_path):
    cfg, data, model = tmp_path / "tiny.cfg", tmp_path / "data", tmp_path / "model"
    cfg.write_text(_TINY_CFG)
    clip = data / "clip_000"
    tracer = tracing.Tracer(True)
    with tracing.traced(tracer):
        for argv in (
                ["synth", "--out", data, "--n-clips", "2"],
                ["train", "--data", data, "--out", model],
                ["generate", "--ckpt", model, "--pose", f"{clip}.pose", "--cond", f"{clip}.cond",
                 "--out", tmp_path / "gen.latent", "--wav", tmp_path / "gen.wav"],
                ["extract", "--ckpt", model, "--pose", f"{clip}.pose",
                 "--out", tmp_path / "clip.rhythm"],
                ["align", "--ckpt", model, "--rhythm", tmp_path / "clip.rhythm",
                 "--out", tmp_path / "clip.arhythm"],
                ["evaluate", "--data", data, "--ckpt", model,
                 "--report", tmp_path / "report.txt"]):
            assert main(["--config", str(cfg), *map(str, argv)]) == 0, argv
    recorded = {s.name for s in tracer.spans}
    assert sorted({name for _, _, name in tracing.TARGETS} - recorded) == []


@functools.lru_cache(maxsize=None)
def train_figures(latent_len: int) -> dict[str, float]:
    """`tracing.layer_metrics`' node figures over one epoch of `train` on two
    desk-shaped clips, none dropping its conditioning, under a "train" span."""
    cfg = RunConfig(latent_len=latent_len, epochs=1, cond_drop_prob=0.0)
    dataset = []
    for i in range(2):
        p, grid = pose.synth_dance(120.0, cfg.duration_s, cfg.fps, cfg.joints, seed=i)
        dataset.append((p, pose.synth_latent(grid, latent_len, cfg.latent_dim, seed=i),
                        pose.synth_conditioning(cfg.cond_len, cfg.cond_dim, seed=i)))
    tracer = tracing.Tracer(True)
    with tracing.traced(tracer):
        span = tracer.begin("train")
        flowgen.train(dataset, cfg)
        tracer.finish(span)
    return {name: value for name, (value, unit) in tracing.layer_metrics(tracer, cfg.steps).items()
            if unit == "nodes"}


def test_desk_clip_step_records_54_nodes():
    assert train_figures(RunConfig().latent_len)["tape_nodes_per_clip_step"] == 54


def test_desk_clip_step_splits_36_velocity_13_rhythm_4_alignment_1_loss():
    f = train_figures(RunConfig().latent_len)
    split = (f["flowgen.velocity_tape_nodes"], f["rhythm.core_tape_nodes"],
             f["align.tape_nodes"])
    assert split == (36, 13, 4)
    assert f["tape_nodes_per_clip_step"] - sum(split) == 1  # the loss's mse


def test_clip_step_nodes_do_not_depend_on_latent_len():
    counts = {n: train_figures(n)["tape_nodes_per_clip_step"] for n in (10, 50, 150)}
    assert len(set(counts.values())) == 1, counts
