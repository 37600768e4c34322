"""Temporal alignment of frame-rate rhythm features onto the latent timeline.

The T-frame rhythm embedding is split into T_m contiguous segments; a
learnable query per segment pools its frames by scaled-dot-product
attention, so each output row is a convex combination of its segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError
from .pose import write_matrix
from .rhythm import RhythmEmbedding
from .tensor import Tensor


@dataclass
class ContextQueries:
    """T_m x D learnable pooling queries."""

    data: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, count: int, dim: int) -> "ContextQueries":
        a = 1.0 / math.sqrt(dim)
        return cls(data=Tensor(rng.uniform(-a, a, size=(count, dim)), requires_grad=True))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("queries", self.data)]


@dataclass
class AlignedRhythm:
    """T_m x D rhythm features on the latent timeline."""

    data: np.ndarray
    segment_spans: list[tuple[int, int]]
    fps_latent: float


def segment_spans(total: int, count: int) -> list[tuple[int, int]]:
    """Contiguous partition of [0, total) into `count` spans; when the split
    is uneven the first (total mod count) spans get the extra frame."""
    if not 1 <= count <= total:
        raise ConfigError(f"cannot split {total} frames into {count} segments")
    base, extra = divmod(total, count)
    spans, start = [], 0
    for i in range(count):
        end = start + base + (1 if i < extra else 0)
        spans.append((start, end))
        start = end
    return spans


def attention_pool(segment, query) -> Tensor:
    """Pool an (n, D) segment with a (D,) query: softmax of the scaled dot
    products weighs the rows. Differentiable w.r.t. both operands."""
    seg = segment if isinstance(segment, Tensor) else Tensor(segment)
    q = query if isinstance(query, Tensor) else Tensor(query)
    n, dim = seg.shape
    qcol = tz.reshape(q, (dim, 1))
    scores = tz.mul(tz.matmul(seg, qcol), 1.0 / math.sqrt(dim))  # (n, 1)
    weights = tz.softmax(scores, axis=0)
    return tz.matmul(tz.transpose(weights), seg)  # (1, D)


def align_tensor(r: Tensor, queries: ContextQueries) -> Tensor:
    """Differentiable alignment of a (T, D) embedding to (T_m, D)."""
    T, D = r.shape
    if queries.dim != D:
        raise ConfigError(f"query dim {queries.dim} != rhythm dim {D}")
    if queries.count > T:
        raise ConfigError(f"{queries.count} queries exceed {T} rhythm frames")
    rows = []
    for i, (a, b) in enumerate(segment_spans(T, queries.count)):
        rows.append(attention_pool(r[a:b, :], queries.data[i, :]))
    return tz.concat(rows, axis=0)


def align(r: RhythmEmbedding, queries: ContextQueries) -> AlignedRhythm:
    out = align_tensor(Tensor(r.data), queries)
    spans = segment_spans(r.length, queries.count)
    fps_latent = r.fps * queries.count / r.length
    return AlignedRhythm(data=out.data.copy(), segment_spans=spans, fps_latent=fps_latent)


# text export: header "T_m D fps_latent" then rows


def save_aligned(a: AlignedRhythm, path) -> None:
    write_matrix(path, (*a.data.shape, float(a.fps_latent)), a.data)
