"""Run configuration: one flat key=value namespace covering every tunable.

Defaults marked "reference" follow the full-scale training recipe; "desk"
defaults are scaled down so the whole pipeline runs on one machine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ParseError
from .pose import read_lines

# --print-config labels an unset field "reference default" if listed here, else "desk default"
_REFERENCE = {"duration_s", "batch_size", "epochs", "learning_rate",
              "adam_beta1", "adam_beta2", "steps", "cfg_scale"}


@dataclass
class RunConfig:
    # rhythm extraction
    scales: int = 4
    base_period: float = 4.0
    bins: int = 8
    rhythm_dim: int = 64
    hidden_w: int = 16
    hidden_a: int = 16
    # synthetic benchmark
    fps: float = 30.0
    joints: int = 17
    coords: int = 2
    duration_s: float = 5.0
    amplitude: float = 0.1
    noise_std: float = 0.005
    beat_joint_fraction: float = 0.5
    tempo_min: float = 60.0
    tempo_max: float = 180.0
    cond_len: int = 10
    cond_dim: int = 8
    # latent timeline
    latent_len: int = 50
    latent_dim: int = 8
    # velocity field
    blocks: int = 2
    hidden: int = 64
    heads: int = 4
    # training
    batch_size: int = 4
    epochs: int = 100
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    cond_drop_prob: float = 0.1
    grad_clip: float = 1.0  # 0 disables clipping
    # ablation switches: rhythm_mode in {learned, mean, binary, none},
    # align_mode in {attn, meanpool}
    rhythm_mode: str = "learned"
    align_mode: str = "attn"
    # sampling
    steps: int = 32
    cfg_scale: float = 4.0
    # evaluation
    window_latent: float = 1.0
    rel_threshold: float = 0.5
    # master seed
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("cond_drop_prob", "adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("batch_size", "epochs", "learning_rate", "scales", "bins",
                     "rhythm_dim", "blocks", "hidden", "heads", "hidden_w", "hidden_a",
                     "joints", "coords", "cond_len", "cond_dim", "latent_len", "latent_dim",
                     "fps", "duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("amplitude", "noise_std", "grad_clip", "window_latent"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.base_period < 2:
            raise ConfigError(f"base_period must be >= 2 frames, got {self.base_period}")
        if not 0 <= self.rel_threshold <= 1:
            raise ConfigError(f"rel_threshold must be in [0, 1], got {self.rel_threshold}")
        if self.duration_s * self.fps > 2 ** 16:  # caps a clip's frames
            raise ConfigError(f"duration_s * fps = {self.duration_s * self.fps} > 2^16 frames")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if self.rhythm_mode not in ("learned", "mean", "binary", "none"):
            raise ConfigError(f"unknown rhythm_mode {self.rhythm_mode!r}")
        if self.align_mode not in ("attn", "meanpool"):
            raise ConfigError(f"unknown align_mode {self.align_mode!r}")
        if self.steps < 1:
            raise ConfigError(f"need at least one solver step, got {self.steps}")
        if self.cfg_scale < 0:
            raise ConfigError(f"guidance scale must be >= 0, got {self.cfg_scale}")
        if self.tempo_min <= 0 or self.tempo_max < self.tempo_min:
            raise ConfigError(f"bad tempo range [{self.tempo_min}, {self.tempo_max}]")
        if not 0 < self.beat_joint_fraction <= 1:
            raise ConfigError(f"beat_joint_fraction must be in (0, 1], got {self.beat_joint_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_text(self, labeled: bool = False) -> str:
        label = lambda f: ("  # set by this run" if getattr(self, f.name) != f.default else
                           f"  # {'reference' if f.name in _REFERENCE else 'desk'} default")
        return "".join(f"{f.name} = {getattr(self, f.name)!r}{label(f) if labeled else ''}\n"
                       for f in fields(self))


_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config(lines: list[str], path, first: int = 1) -> RunConfig:
    """The run config `lines` set, `lines[0]` being line `first` of `path`:
    `key = value`, `#` comments and blank lines, each value parsed as its
    field's type, never evaluated. Unknown keys and keys set twice are refused."""
    kwargs, seen = {}, {}
    for ln, raw in enumerate(lines, start=first):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = map(str.strip, line.partition("="))
        if not eq:
            raise ParseError(f"expected 'key = value', got {raw.rstrip()!r}", ln, path)
        if key not in _TYPES:
            raise ParseError(f"unknown config key {key!r}", ln, path)
        if key in seen:
            raise ParseError(f"{key} is set again; line {seen[key]} set it first", ln, path)
        seen[key] = ln
        if _TYPES[key] is str and len(val) >= 2 and val[0] == val[-1] and val[0] in "'\"":
            val = val[1:-1]  # to_text() writes strings via repr
        try:
            kwargs[key] = _TYPES[key](val)
        except ValueError as e:
            raise ParseError(f"bad value for {key}: {e}", ln, path)
    try:
        return RunConfig(**kwargs)
    except ConfigError as e:
        raise ParseError(str(e), path=path)


def load_config(path) -> RunConfig:
    """The run config a config file, run log or `--print-config` output sets."""
    return parse_config(read_lines(path), path)
