"""Temporal alignment of frame-rate rhythm features onto the latent timeline.

Segment i of the T-frame rhythm embedding starts at frame floor(i*T/T_m), on the
linear map that `pose.map_to_latent` rounds; a learnable query per segment pools
its frames into a convex combination of them by one-head cross-attention, one
`tz.attention` node for all segments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError
from .rhythm import RhythmEmbedding
from .tensor import Tensor


@dataclass
class ContextQueries:
    """T_m x D learnable pooling queries."""

    data: Tensor

    @staticmethod
    def layout(count: int, dim: int) -> tz.Layout:
        return [("queries", (count, dim), dim)]

    @classmethod
    def init(cls, rng: np.random.Generator, count: int, dim: int) -> "ContextQueries":
        return cls(tz.parameters(cls.layout(count, dim), np.empty(count * dim), rng)["queries"])

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def segment_spans(total: int, count: int) -> list[tuple[int, int]]:
    """Contiguous partition of [0, total) into `count` spans, span i starting
    at floor(i*total/count): less than one frame behind the linear map that
    `pose.map_to_latent` rounds, with lengths that differ by at most one."""
    if not 1 <= count <= total:
        raise ConfigError(f"cannot split {total} frames into {count} segments")
    cuts = [i * total // count for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def segment_slots(total: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) frame indices of each segment, n the longest segment, and
    the mask of the slots that hold one; a slot past its segment's end
    indexes the segment's last frame."""
    spans = np.array(segment_spans(total, count))
    slots = spans[:, :1] + np.arange((spans[:, 1] - spans[:, 0]).max())
    inside = slots < spans[:, 1:]
    return np.minimum(slots, spans[:, 1:] - 1), inside


def _pool(r: Tensor, queries: Tensor) -> Tensor:
    """Row i: query i's one-head attention over the frames of segment i,
    the band's slots past the segment's end masked to -inf."""
    count, dim = queries.shape
    slots, inside = segment_slots(r.shape[0], count)
    band = r[slots]  # (count, n, D)
    mask = np.where(inside, 0.0, -np.inf)[:, None, None, :]
    out = tz.attention(tz.reshape(queries, (count, 1, dim)), band, band, 1, mask)
    return tz.reshape(out, (count, dim))


def attention_pool(segment, query) -> Tensor:
    """Pool an (n, D) segment with a (D,) query into a (1, D) row: softmax
    of the scaled dot products weighs the rows. Differentiable w.r.t. both
    operands."""
    seg, q = tz.as_tensor(segment), tz.as_tensor(query)
    return _pool(seg, tz.reshape(q, (1, seg.shape[1])))


def align_tensor(r: Tensor, queries: ContextQueries) -> Tensor:
    """Differentiable alignment of a (T, D) embedding to (T_m, D): each
    query pools its own segment, all in one segment-masked attention."""
    T, D = r.shape
    if queries.dim != D:
        raise ConfigError(f"query dim {queries.dim} != rhythm dim {D}")
    if queries.count > T:
        raise ConfigError(f"{queries.count} queries exceed {T} rhythm frames")
    return _pool(r, queries.data)


def mean_pool_align(r: Tensor, latent_len: int) -> Tensor:
    """Plain segment-mean downsampling (alignment-module ablation): zero
    queries weigh the frames of a segment alike, its sum over its length."""
    return _pool(r, Tensor(np.zeros((latent_len, r.shape[1]))))


def align(r: RhythmEmbedding, queries: ContextQueries, mode: str = "attn") -> RhythmEmbedding:
    """Pool `r` onto the queries' timeline, at the latent frame rate, by
    attention (`mode` 'attn') or by segment means ('meanpool'), as a model
    of that align_mode conditions."""
    x = Tensor(r.data)
    out = align_tensor(x, queries) if mode == "attn" else mean_pool_align(x, queries.count)
    return RhythmEmbedding(data=out.data, fps=r.fps * queries.count / len(r.data))
