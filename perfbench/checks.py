"""Output checks: properties every output must have, and agreement with the
oracles in oracles.py. None compares against a stored copy of an earlier
run's output; byte-identity is only ever checked within one run.

The files are parsed here, not with the program's loaders, so a loader
fault cannot hide a writer fault.
"""
from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

import oracles

SAMPLE_RATE = 44100
ONSET_GAP = 100  # zero samples that separate two clicks; within one click at most a few


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_matrix(path: Path, header_fields: int) -> tuple[list[str], np.ndarray]:
    """A text matrix: a header line, then one row of floats per line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(bool(lines), f"{path}: empty")
    head = lines[0].split()
    require(len(head) == header_fields, f"{path}: header {lines[0]!r}")
    rows = [[float(v) for v in line.split()] for line in lines[1:] if line.strip()]
    require(len({len(r) for r in rows}) <= 1, f"{path}: ragged rows")
    return head, np.array(rows, dtype=np.float64)


def pose_header(path: Path) -> tuple[int, float]:
    """(frames, fps) from a pose file's 'T J C fps' header."""
    with open(path, encoding="utf-8") as f:
        t, _j, _c, fps = f.readline().split()
    return int(t), float(fps)


def beat_file(path: Path) -> tuple[list[int], int]:
    """(beat frames, timeline length) of a .beats file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    frames = [int(x) for x in lines[1].split()] if len(lines) > 1 else []
    return frames, int(lines[0].split()[0])


def report_rows(path: Path) -> dict[str, dict[str, float]]:
    """Per-clip rows of an evaluate report's .tsv variant."""
    lines = Path(path).with_suffix(".tsv").read_text(encoding="utf-8").splitlines()
    cols = lines[0].split("\t")
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        if cells[0].startswith("clip_"):
            rows[cells[0]] = {c: float(v) for c, v in zip(cols[1:], cells[1:])}
    return rows


# ---------------------------------------------------------------------------


def train_output(stdout: str) -> None:
    """The loss `train` prints is finite and falls from the first epoch to the last."""
    m = re.search(r"loss (\S+) -> (\S+)", stdout)
    require(m is not None, f"train printed no loss: {stdout!r}")
    first, last = float(m.group(1)), float(m.group(2))
    require(math.isfinite(first) and math.isfinite(last), f"non-finite loss {first} -> {last}")
    require(last < first, f"loss did not fall: {first} -> {last}")


def scores_agree(cid: str, row: dict[str, float]) -> None:
    """B_a <= min(B_g, B_t) and the printed scores follow from the counts."""
    g, t, a = row["B_g"], row["B_t"], row["B_a"]
    require(a <= min(g, t), f"{cid}: B_a={a} exceeds min(B_g={g}, B_t={t})")
    bcs = 100.0 * a / g if g else 0.0
    bhs = 100.0 * a / t if t else 0.0
    f1 = 2 * bcs * bhs / (bcs + bhs) if bcs + bhs > 0 else 0.0
    for name, want in (("BCS", bcs), ("BHS", bhs), ("F1", f1)):
        require(abs(row[name] - want) <= 0.005 + 1e-9,
                f"{cid}: {name}={row[name]} but counts give {want:.4f}")


def truth_beats_on_latent(data_dir: Path, cid: str, latent_len: int) -> list[int]:
    frames, timeline = beat_file(data_dir / f"{cid}.beats")
    return oracles.map_beats(frames, timeline, latent_len)


def ckpt_report(report: Path, data_dir: Path, clip_ids: list[str], latent_len: int) -> None:
    """`evaluate --ckpt`: B_t from the oracle mapping, the rest consistent."""
    rows = report_rows(report)
    require(sorted(rows) == clip_ids, f"report rows {sorted(rows)} != clips {clip_ids}")
    for cid in clip_ids:
        row = rows[cid]
        want_t = len(truth_beats_on_latent(data_dir, cid, latent_len))
        require(row["B_t"] == want_t, f"{cid}: B_t={row['B_t']} but oracle maps {want_t}")
        scores_agree(cid, row)


def generated_report(report: Path, data_dir: Path, gen_dir: Path, clip_ids: list[str],
                     latent_len: int, rel_threshold: float, window: float) -> dict:
    """`evaluate --generated`: every count equals the oracles' count."""
    rows = report_rows(report)
    require(sorted(rows) == clip_ids, f"report rows {sorted(rows)} != clips {clip_ids}")
    for cid in clip_ids:
        row = rows[cid]
        _head, z = read_matrix(gen_dir / f"{cid}.latent", 2)
        peaks = oracles.latent_peaks(z[:, 0], rel_threshold)
        truth = truth_beats_on_latent(data_dir, cid, latent_len)
        want = {"B_g": len(peaks), "B_t": len(truth),
                "B_a": oracles.greedy_match(peaks, truth, window)}
        for k, v in want.items():
            require(row[k] == v, f"{cid}: {k}={row[k]} but the oracle gives {v}")
        scores_agree(cid, row)
    return rows


def truth_latents(rows: dict, data_dir: Path, latent_len: int, rel_threshold: float) -> None:
    """A synthetic truth latent peaks exactly at its mapped beats, and
    scoring it as if generated gives 100 everywhere."""
    for cid, row in rows.items():
        _head, z = read_matrix(data_dir / f"{cid}.latent", 2)
        peaks = oracles.latent_peaks(z[:, 0], rel_threshold)
        truth = truth_beats_on_latent(data_dir, cid, latent_len)
        require(peaks == truth, f"{cid}: truth latent peaks at {peaks}, beats map to {truth}")
        for k in ("BCS", "BHS", "F1"):
            require(row[k] == 100.0, f"{cid}: truth latent scores {k}={row[k]}, not 100")


def latent_file(path: Path, latent_len: int, latent_dim: int) -> np.ndarray:
    head, z = read_matrix(path, 2)
    require(z.shape == (latent_len, latent_dim) and head == [str(latent_len), str(latent_dim)],
            f"{path}: shape {z.shape}, header {head}; want ({latent_len}, {latent_dim})")
    require(bool(np.isfinite(z).all()), f"{path}: non-finite values")
    return z


def wav_file(path: Path, z: np.ndarray, pose_path: Path, rel_threshold: float) -> None:
    """44.1 kHz 16-bit mono with the clip's length, and one click starting
    where each oracle peak of latent channel 0 falls in time."""
    raw = Path(path).read_bytes()
    (riff, _size, wave, fmt, _fmt_len, audio_format, channels, rate, _byte_rate,
     _align, bits, data_tag, data_bytes) = struct.unpack("<4sI4s4sIHHIIHH4sI", raw[:44])
    require((riff, wave, fmt, data_tag) == (b"RIFF", b"WAVE", b"fmt ", b"data"),
            f"{path}: not a RIFF/WAVE file")
    require((audio_format, channels, rate, bits) == (1, 1, SAMPLE_RATE, 16),
            f"{path}: format {audio_format}, {channels} ch, {rate} Hz, {bits} bit")
    frames, fps = pose_header(pose_path)
    n = round(frames / fps * SAMPLE_RATE)
    require(data_bytes == 2 * n and len(raw) == 44 + 2 * n,
            f"{path}: {data_bytes} data bytes for a {n}-sample clip")

    q = np.frombuffer(raw, dtype="<i2", offset=44)
    nz = np.flatnonzero(q)
    onsets = nz[np.diff(nz, prepend=-ONSET_GAP - 1) > ONSET_GAP].tolist()
    latent_len = z.shape[0]
    # a click is a sine burst starting at phase 0, so its first nonzero
    # sample follows the beat's own sample; allow one sample of rounding
    want = [round(i * frames * SAMPLE_RATE / (latent_len * fps)) + 1
            for i in oracles.latent_peaks(z[:, 0], rel_threshold)]
    require(len(onsets) == len(want) and all(abs(a - b) <= 1 for a, b in zip(onsets, want)),
            f"{path}: click onsets {onsets} but latent peaks put them at {want}")


def inspect_files(rhythm_path: Path, aligned_path: Path, pose_path: Path,
                  latent_len: int) -> None:
    """One rhythm row per pose frame, the last repeating the one before;
    each aligned row inside its segment's per-column range."""
    frames, _fps = pose_header(pose_path)
    _rh, r = read_matrix(rhythm_path, 3)
    require(r.shape[0] == frames, f"{rhythm_path}: {r.shape[0]} rows for {frames} frames")
    require(bool((r[-1] == r[-2]).all()), f"{rhythm_path}: last row differs from the one before")
    _ah, a = read_matrix(aligned_path, 3)
    require(a.shape == (latent_len, r.shape[1]),
            f"{aligned_path}: shape {a.shape}, want ({latent_len}, {r.shape[1]})")
    for i, (lo, hi) in enumerate(oracles.segment_spans(frames, latent_len)):
        seg = r[lo:hi]
        tol = 1e-12 * (1.0 + np.abs(seg).max())
        inside = (a[i] >= seg.min(axis=0) - tol) & (a[i] <= seg.max(axis=0) + tol)
        require(bool(inside.all()),
                f"{aligned_path}: row {i} leaves the range of rhythm rows {lo}..{hi - 1}")
