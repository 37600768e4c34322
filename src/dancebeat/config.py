"""Run configuration: one flat key=value namespace covering every tunable.

Defaults marked "reference" follow the full-scale training recipe; "desk"
defaults are scaled down so the whole pipeline runs on one machine.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ParseError
from .pose import read_lines

POSITIVE = ("must be positive", lambda v: v > 0)
AT_LEAST_0 = ("must be >= 0", lambda v: v >= 0)
BELOW_1 = ("must be in [0, 1)", lambda v: 0 <= v < 1)


def _one_of(*names: str):
    return f"must be one of {names}", lambda v: v in names


def _field(default, rule, model: bool = False, reference: bool = False):
    """A RunConfig field whose value must pass `rule`, (the words its error uses, a test);
    `model` if a checkpoint fixes it, `reference` if its default is the reference recipe's."""
    return field(default=default, metadata={"rule": rule, "model": model, "reference": reference})


@dataclass
class RunConfig:
    # rhythm extraction
    scales: int = _field(4, POSITIVE, model=True)
    base_period: float = _field(4.0, ("must be >= 2 frames", lambda v: v >= 2), model=True)
    bins: int = _field(8, POSITIVE, model=True)
    rhythm_dim: int = _field(64, POSITIVE, model=True)
    hidden_w: int = _field(16, POSITIVE, model=True)
    hidden_a: int = _field(16, POSITIVE, model=True)
    # synthetic benchmark
    fps: float = _field(30.0, POSITIVE)
    joints: int = _field(17, POSITIVE)
    coords: int = _field(2, POSITIVE)
    duration_s: float = _field(5.0, POSITIVE, reference=True)
    amplitude: float = _field(0.1, AT_LEAST_0)
    noise_std: float = _field(0.005, AT_LEAST_0)
    beat_joint_fraction: float = _field(0.5, ("must be in (0, 1]", lambda v: 0 < v <= 1))
    tempo_min: float = _field(60.0, POSITIVE)
    tempo_max: float = _field(180.0, POSITIVE)
    cond_len: int = _field(10, POSITIVE)
    cond_dim: int = _field(8, POSITIVE, model=True)
    # latent timeline
    latent_len: int = _field(50, POSITIVE, model=True)
    latent_dim: int = _field(8, POSITIVE, model=True)
    # velocity field
    blocks: int = _field(2, POSITIVE, model=True)
    hidden: int = _field(64, POSITIVE, model=True)
    heads: int = _field(4, POSITIVE, model=True)
    # training
    batch_size: int = _field(4, POSITIVE, reference=True)
    epochs: int = _field(100, POSITIVE, reference=True)
    learning_rate: float = _field(1e-4, POSITIVE, reference=True)
    adam_beta1: float = _field(0.9, BELOW_1, reference=True)
    adam_beta2: float = _field(0.95, BELOW_1, reference=True)
    cond_drop_prob: float = _field(0.1, BELOW_1)
    grad_clip: float = _field(1.0, AT_LEAST_0)  # 0 disables clipping
    # ablation switches
    rhythm_mode: str = _field("learned", _one_of("learned", "mean", "binary", "none"), model=True)
    align_mode: str = _field("attn", _one_of("attn", "meanpool"), model=True)
    # sampling
    steps: int = _field(32, POSITIVE, reference=True)
    cfg_scale: float = _field(4.0, AT_LEAST_0, reference=True)
    # evaluation
    window_latent: float = _field(1.0, AT_LEAST_0)
    rel_threshold: float = _field(0.5, ("must be in [0, 1]", lambda v: 0 <= v <= 1))
    # master seed
    seed: int = _field(0, AT_LEAST_0)

    def __post_init__(self):
        for f in fields(self):
            value, (words, test) = getattr(self, f.name), f.metadata["rule"]
            if f.type == "float" and not math.isfinite(value):
                words = "must be finite"
            elif f.type == "int" and not isinstance(value, numbers.Integral):
                words = "must be an integer"
            elif test(value):
                continue
            raise ConfigError(f"{f.name} {words}, got {value!r}")
        if self.duration_s * self.fps > 2 ** 16:  # caps a clip's frames
            raise ConfigError(f"duration_s * fps = {self.duration_s * self.fps} > 2^16 frames")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if self.tempo_max < self.tempo_min:
            raise ConfigError(f"tempo_max ({self.tempo_max}) must be >= tempo_min ({self.tempo_min})")

    def to_text(self, labeled: bool = False) -> str:
        label = lambda f: ("  # set by this run" if getattr(self, f.name) != f.default else
                           f"  # {'reference' if f.metadata['reference'] else 'desk'} default")
        return "".join(f"{f.name} = {getattr(self, f.name)!r}{label(f) if labeled else ''}\n"
                       for f in fields(self))


_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
MODEL_KEYS = tuple(f.name for f in fields(RunConfig) if f.metadata["model"])


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
