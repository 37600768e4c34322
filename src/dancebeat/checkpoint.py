"""Checkpoint `path`: UTF-8 manifest `<path>.manifest`, little-endian float64 blob `<path>.bin`.

Manifest lines, in this order:
    dancebeat-checkpoint 4
    blob <byte length> <sha256 hex digest>
    <key> = <value>               (`RunConfig.to_text()`: every field, in field order)
    tensor <name> <d1[,d2,...]> <byte offset>

The config lines are read by the config file's parser, never evaluated, and
must be exactly `to_text()`'s; the tensor lines are `flowgen.layout(config)`'s.
Loading checks the blob file's size against the recorded length, that length
against the config and every line against the config's text and layout before
it reads the blob, checks its digest, then that it is finite, as saving does.
The blob is `TrainedModel.flat`, each tensor's values contiguously in manifest
order, and the loaded model wraps a copy of it, so a round trip is bit-exact.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .errors import NumericalError, ParseError
from .flowgen import TrainedModel, build_model, layout, parameter_count
from .pose import read_lines

MAGIC = "dancebeat-checkpoint 4"

# RunConfig fields a checkpoint fixes: model shapes, timeline and ablation switches
MODEL_KEYS = ("scales", "base_period", "bins", "rhythm_dim", "hidden_w", "hidden_a",
              "blocks", "hidden", "heads", "latent_len", "latent_dim", "cond_dim",
              "rhythm_mode", "align_mode")


def _files(path) -> tuple[Path, Path]:
    return Path(f"{path}.manifest"), Path(f"{path}.bin")


def _tensor_lines(cfg: RunConfig) -> list[str]:
    """The manifest records of the config's tensors, blob offsets included."""
    lines, off = [], 0
    for name, shape, _ in layout(cfg):
        lines.append(f"tensor {name} {','.join(str(d) for d in shape)} {off}")
        off += 8 * math.prod(shape)
    return lines


def _finite(model: TrainedModel, fault) -> TrainedModel:
    """`model`; raises `fault(message)` naming its first non-finite tensor by layout name."""
    for name, t in model.tensors.items():
        if not np.isfinite(t.data).all():
            raise fault(f"tensor {name} holds a non-finite value")
    return model


def save_model(model: TrainedModel, path) -> None:
    _finite(model, lambda msg: NumericalError(f"{path}: {msg}, not written"))
    blob = model.flat.astype("<f8", copy=False).tobytes()
    lines = [MAGIC, f"blob {len(blob)} {hashlib.sha256(blob).hexdigest()}"]
    lines += model.config.to_text().splitlines() + _tensor_lines(model.config)
    manifest, bin_path = _files(path)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bin_path.write_bytes(blob)


def load_model(path) -> TrainedModel:
    manifest, bin_path = _files(path)
    lines = read_lines(manifest)
    if not lines or lines[0] != MAGIC:
        found = repr(lines[0][:40]) if lines else "an empty file"
        raise ParseError(f"expected {MAGIC!r}, found {found}", 1, manifest)
    blob_rec = lines[1].split(" ") if len(lines) > 1 else []
    if len(blob_rec) != 3 or blob_rec[0] != "blob":
        raise ParseError("expected 'blob <byte length> <sha256>'", 2, manifest)
    cfg = parse_config(lines[2:2 + len(fields(RunConfig))], manifest, first=3)

    # nothing of the blob is read before the manifest is known to describe it
    mismatch = lambda n: ParseError(f"{bin_path} ({n} bytes) does not match the manifest's "
                                    f"recorded length and SHA-256", 2, manifest)
    size = bin_path.stat().st_size
    if blob_rec[1] != str(size):
        raise mismatch(size)
    count = parameter_count(cfg)
    if blob_rec[1] != str(8 * count):
        raise ParseError(f"the checkpoint config describes {count} values, "
                         f"the blob holds {size // 8}", 2, manifest)
    want = cfg.to_text().splitlines() + _tensor_lines(cfg) + [None]
    for ln, (w, g) in enumerate(zip(want, lines[2:] + [None]), start=3):
        if w != g:
            show = lambda s: "end of manifest" if s is None else repr(s)
            raise ParseError(f"expected {show(w)}, found {show(g)}", ln, manifest)
    flat = np.empty(size // 8, dtype="<f8")
    with bin_path.open("rb") as f:
        got = f.readinto(flat)
    if got != size or hashlib.sha256(flat).hexdigest() != blob_rec[2]:
        raise mismatch(got)
    return _finite(build_model(cfg, flat.astype(np.float64, copy=False)),
                   lambda msg: ParseError(msg, path=bin_path))
