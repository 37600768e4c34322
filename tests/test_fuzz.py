"""Mutated input files never end in a traceback.

Each example takes one valid artifact, truncates it at a byte, flips one
byte or swaps two whitespace-separated tokens, and runs the command that
reads it: the command must exit 0, or exit 1 with exactly one stderr line
starting `error:`.
"""
import contextlib
import io
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dancebeat.cli import main
from test_cli import TINY_CFG


def _cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tiny.cfg").write_text(TINY_CFG)
    cfg = ("--config", root / "tiny.cfg")
    data = root / "data"
    for argv in (("synth", "--out", data, "--n-clips", 2),
                 ("train", "--data", data, "--out", root / "model"),
                 ("extract", "--pose", data / "clip_000.pose", "--out", root / "clip.rhythm")):
        assert _cli(*cfg, *argv)[0] == 0
    return root


# kind -> (artifact to mutate, relative to the work copy; command that reads it)
def _target(kind: str, work):
    cfg = ("--config", work / "tiny.cfg")
    data, out = work / "data", work / "out"
    return {
        "pose": (data / "clip_000.pose",
                 (*cfg, "extract", "--pose", data / "clip_000.pose", "--out", out / "r")),
        "cond": (data / "clip_000.cond",
                 (*cfg, "generate", "--ckpt", work / "model", "--pose", data / "clip_000.pose",
                  "--cond", data / "clip_000.cond", "--out", out / "z")),
        "latent": (data / "clip_000.latent",
                   (*cfg, "evaluate", "--data", data, "--generated", data)),
        "beats": (data / "clip_001.beats",
                  (*cfg, "evaluate", "--data", data, "--generated", data)),
        "rhythm": (work / "clip.rhythm",
                   (*cfg, "align", "--rhythm", work / "clip.rhythm", "--out", out / "a")),
        "config": (work / "tiny.cfg", (*cfg, "synth", "--out", out / "s", "--n-clips", 1)),
        "manifest": (work / "model.manifest",
                     (*cfg, "align", "--ckpt", work / "model",
                      "--rhythm", work / "clip.rhythm", "--out", out / "a")),
    }[kind]


def _mutate(raw: bytes, data) -> bytes:
    how = data.draw(st.sampled_from(["truncate", "flip", "swap"]))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        i = data.draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1:]
    parts = re.split(rb"(\s+)", raw)
    tokens = [i for i, p in enumerate(parts) if p and not p.isspace()]
    i, j = data.draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2, unique=True))
    parts[i], parts[j] = parts[j], parts[i]
    return b"".join(parts)


KINDS = ["pose", "cond", "latent", "beats", "rhythm", "config", "manifest"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_fails_cleanly(root, tmp_path_factory, kind, data):
    work = tmp_path_factory.getbasetemp() / f"fuzz_{kind}"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root, work)
    (work / "out").mkdir()
    path, argv = _target(kind, work)
    path.write_bytes(_mutate(path.read_bytes(), data))
    rc, err = _cli(*argv)
    lines = err.splitlines()
    assert rc == 0 or (rc == 1 and len(lines) == 1 and lines[0].startswith("error:")), (rc, err)
