"""Spans around calls into the program's layers, recorded from outside it.

`traced(tracer)` swaps the module attributes the program looks its layers
up by for wrappers that open a span per call, and puts every attribute
back on exit. Nothing under src/ knows about spans. Spans stay in memory
and are written out once, at the end of a run.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from dancebeat import align, checkpoint, clicktrack, flowgen, metrics, pose, rhythm

# (owner, attribute, span name): each place a layer is looked up at call
# time. flowgen imports some rhythm/align/tensor names directly, so those
# are wrapped in flowgen's namespace as well as in their own module.
TARGETS = [
    (pose, "load_pose_sequence", "pose.load_pose_sequence"),
    (pose, "load_beat_grid", "pose.load_beat_grid"),
    (pose, "map_to_latent", "pose.map_to_latent"),
    (rhythm, "clip_features", "rhythm.clip_features"),
    (flowgen, "clip_features", "rhythm.clip_features"),
    (rhythm, "rhythm_core_tensor", "rhythm.rhythm_core_tensor"),
    (flowgen, "rhythm_core_tensor", "rhythm.rhythm_core_tensor"),
    (rhythm, "save_rhythm", "rhythm.save_rhythm"),
    (rhythm, "load_rhythm", "rhythm.load_rhythm"),
    (align, "align_tensor", "align.align_tensor"),
    (flowgen, "align_tensor", "align.align_tensor"),
    (flowgen, "cfm_loss", "flowgen.cfm_loss"),
    (flowgen, "velocity", "flowgen.velocity"),
    (flowgen, "cfg_velocity", "flowgen.cfg_velocity"),
    (flowgen, "euler_sample", "flowgen.euler_sample"),
    (flowgen, "backward", "tensor.backward"),
    (flowgen.Adam, "step", "flowgen.Adam.step"),
    (checkpoint, "save_model", "checkpoint.save_model"),
    (checkpoint, "load_model", "checkpoint.load_model"),
    (clicktrack, "render_clicks", "clicktrack.render_clicks"),
    (clicktrack, "write_wav", "clicktrack.write_wav"),
    (metrics, "detect_latent_beats", "metrics.detect_latent_beats"),
    (metrics, "beat_scores", "metrics.beat_scores"),
]


class Span:
    __slots__ = ("id", "op", "parent", "name", "start", "end", "tape_start", "tape_end", "units")

    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. A disabled tracer opens none and costs one branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._tapes: list = []  # tapes the program has entered, innermost last

    def _tape_len(self):
        return len(self._tapes[-1]) if self._tapes else None

    def begin(self, name: str, units: int = 1) -> Span | None:
        if not self.enabled:
            return None
        s = Span()
        s.id = len(self.spans)
        s.parent = self._open[-1].id if self._open else None
        s.op = self._open[0].id if self._open else s.id
        s.name, s.units = name, units
        s.tape_start, s.tape_end = self._tape_len(), None
        s.end = None
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        return s

    def finish(self, s: Span | None) -> None:
        if s is None:
            return
        s.end = time.perf_counter()
        s.tape_end = self._tape_len()
        self._open.pop()

    def wrap(self, fn, name: str):
        def traced_call(*args, **kwargs):
            s = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(s)

        return traced_call

    def _child_time(self) -> dict[int, float]:
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration()
        return child_time

    def dump(self, path) -> None:
        child_time = self._child_time()
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "op": s.op, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "self": s.duration() - child_time[s.id],
                    "tape_start": s.tape_start, "tape_end": s.tape_end,
                }) + "\n")

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total ms, self ms) per span name, largest self time first."""
        child_time = self._child_time()
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            r = rows[s.name]
            r[0] += 1
            r[1] += 1e3 * s.duration()
            r[2] += 1e3 * (s.duration() - child_time[s.id])
        return sorted(((n, c, t, st) for n, (c, t, st) in rows.items()),
                      key=lambda row: -row[3])


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block; also count the
    nodes of each tape the program enters, via `len(Tape)`."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
    saved.append((flowgen, "Tape", flowgen.Tape))
    base_tape = flowgen.Tape

    class CountedTape(base_tape):
        def __enter__(self):
            tracer._tapes.append(self)
            return super().__enter__()

        def __exit__(self, *exc):
            tracer._tapes.pop()
            return super().__exit__(*exc)

    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name))
        flowgen.Tape = CountedTape
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans: name -> (value, unit)."""
    spans = tracer.spans
    op_name = {s.id: s.name for s in spans if s.op == s.id}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    def ms(name, op=None):
        return 1e3 * med([s.duration() for s in by_name[name]
                          if op is None or op_name[s.op] == op])

    def nodes(name):
        # nodes a layer adds to the training clip-step's tape
        return med([s.tape_end - s.tape_start for s in by_name[name]
                    if op_name[s.op] == "train" and s.tape_start is not None])

    def train_or_any_ms(name):
        # the training clip-step's call where training makes one; otherwise
        # (cond_only skips rhythm and alignment in training) the call that
        # extract/align make in the inspect path
        return ms(name, "train") if nodes(name) else ms(name)

    def per_op_sum_ms(names, op, per):
        totals = defaultdict(float)
        counts = defaultdict(int)
        for name in names:
            for s in by_name[name]:
                if op_name[s.op] == op:
                    totals[s.op] += s.duration()
                    if name == per:
                        counts[s.op] += 1
        return 1e3 * med([totals[o] / counts[o] for o in totals if counts[o]])

    synth = [s.duration() / s.units for s in spans if s.name == "synth"]
    return {
        "pose.synth_ms": (1e3 * med(synth), "ms"),
        "pose.load_pose_ms": (ms("pose.load_pose_sequence"), "ms"),
        "rhythm.clip_features_ms": (ms("rhythm.clip_features"), "ms"),
        "rhythm.core_fwd_ms": (train_or_any_ms("rhythm.rhythm_core_tensor"), "ms"),
        "rhythm.core_tape_nodes": (nodes("rhythm.rhythm_core_tensor"), "nodes"),
        "rhythm.codec_ms": (ms("rhythm.save_rhythm") + ms("rhythm.load_rhythm"), "ms"),
        "align.fwd_ms": (train_or_any_ms("align.align_tensor"), "ms"),
        "align.tape_nodes": (nodes("align.align_tensor"), "nodes"),
        "flowgen.velocity_fwd_ms": (ms("flowgen.velocity", "train"), "ms"),
        "flowgen.velocity_tape_nodes": (nodes("flowgen.velocity"), "nodes"),
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
        "flowgen.adam_step_ms": (ms("flowgen.Adam.step"), "ms"),
        "flowgen.euler_step_ms": (ms("flowgen.euler_sample") / steps, "ms"),
        "tape_nodes_per_clip_step": (
            med([s.tape_start for s in by_name["tensor.backward"]]), "nodes"),
        "checkpoint.save_ms": (ms("checkpoint.save_model"), "ms"),
        "checkpoint.load_ms": (ms("checkpoint.load_model"), "ms"),
        "clicktrack.wav_ms": (per_op_sum_ms(
            ["clicktrack.render_clicks", "clicktrack.write_wav"], "generate",
            "clicktrack.write_wav"), "ms"),
        "metrics.score_clip_ms": (per_op_sum_ms(
            ["pose.load_beat_grid", "pose.map_to_latent", "metrics.detect_latent_beats",
             "metrics.beat_scores"], "evaluate", "metrics.beat_scores"), "ms"),
    }
