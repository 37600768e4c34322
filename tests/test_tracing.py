"""perfbench's tracer swaps program attributes by name for traced wrappers:
each must be its owner's own, or a rename under src/ breaks `--trace 1`;
and the program must still call each layer through that name, or its
per-layer figure silently reads zero."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from dancebeat.cli import main  # noqa: E402
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
