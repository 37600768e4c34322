"""Reference computations the benchmark checks the program's outputs against.

Each is written from the behaviour the program documents, not from its
code, so a failed check points at the program rather than at the oracle.
Hand-worked cases live in test_oracles.py.
"""
from __future__ import annotations


def latent_peaks(channel, rel_threshold: float = 0.5) -> list[int]:
    """Beat indices of one latent channel.

    A peak is a sample that reaches rel_threshold times the channel's
    maximum, rises strictly from its left neighbour and does not fall
    below its right neighbour; the first and last samples need only the
    one neighbour they have. A channel that is nowhere positive has none.
    """
    c = [float(v) for v in channel]
    top = max(c + [0.0])
    if top <= 0.0:
        return []
    floor = rel_threshold * top
    padded = [float("-inf")] + c + [float("-inf")]
    return [i for i, v in enumerate(c)
            if v >= floor and v > padded[i] and v >= padded[i + 2]]


def map_beats(beat_frames, timeline_len: int, latent_len: int) -> list[int]:
    """Beat frames moved onto a latent timeline of latent_len steps.

    Each frame goes to the nearest latent index, halves rounding up, in
    exact integer arithmetic; indices past the end clamp to the last step,
    and beats that land on the same index count once.
    """
    out: list[int] = []
    for f in beat_frames:
        i = min((2 * f * latent_len + timeline_len) // (2 * timeline_len), latent_len - 1)
        if i not in out:
            out.append(i)
    return out


def greedy_match(generated, truth, window: float) -> int:
    """Number of one-to-one pairs matched in time order within +-window.

    Walk the generated beats in order. Truth beats more than `window`
    before the current generated beat can match nothing later, so drop
    them; then the generated beat takes the first remaining truth beat if
    that one lies within `window`.
    """
    rest = list(truth)
    matched = 0
    for g in generated:
        while rest and rest[0] < g - window:
            rest.pop(0)
        if rest and abs(rest[0] - g) <= window:
            rest.pop(0)
            matched += 1
    return matched


def segment_spans(total: int, count: int) -> list[tuple[int, int]]:
    """Split [0, total) into `count` contiguous spans whose lengths differ
    by at most one, the longer spans first."""
    base, extra = divmod(total, count)
    cuts = [i * base + min(i, extra) for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))
