import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dancebeat import checkpoint, cli, flowgen, pose, rhythm
from dancebeat.config import MODEL_KEYS, RunConfig, load_config
from dancebeat.errors import ConfigError, NumericalError, ParseError

from conftest import ORACLE_MODEL_KEYS, ORACLE_REFERENCE, config_oracle, matrix_text, relerr

# -0.0, ± the smallest subnormal, the largest subnormal, the smallest normal,
# ± the largest float, and both sides of repr's switches to exponent notation
EDGE_VALUES = np.array([[-0.0, 0.0, 5e-324, -5e-324],
                        [2.225073858507201e-308, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308],
                        [1e16, 9999999999999998.0, -1e16, 1.0000000000000002e16],
                        [1e-05, 0.0001, 9.999999999999999e-05, -1e-05]])


class TestPoseSequence:
    @pytest.mark.parametrize("coords", [1, 4])
    def test_coords_other_than_2_or_3_rejected(self, coords):
        with pytest.raises(ConfigError, match=f"C={coords}"):
            pose.PoseSequence(data=np.zeros((4, 2, coords)), fps=30)

    @pytest.mark.parametrize("data, fps, message", [
        (np.zeros((4, 2)), 30, "pose data must be 3-D and nonempty, got shape (4, 2)"),
        (np.zeros((4, 0, 2)), 30, "pose data must be 3-D and nonempty, got shape (4, 0, 2)"),
        (np.where(np.arange(8).reshape(4, 1, 2) == 5, np.nan, 0.0), 30,
         "pose data contains non-finite values"),
        (np.zeros((4, 2, 2)), 0, "pose data fps must be finite and positive, got 0"),
        (np.zeros((4, 2, 2)), -1, "pose data fps must be finite and positive, got -1"),
        (np.zeros((4, 2, 2)), np.inf, "pose data fps must be finite and positive, got inf"),
        (np.zeros((1, 2, 2)), 30, "invalid pose shape T=1 J=2 C=2"),
    ], ids=["2-D", "J=0", "nan", "fps=0", "fps=-1", "fps=inf", "T=1"])
    def test_refusal_message(self, data, fps, message):
        with pytest.raises(ConfigError) as e:
            pose.PoseSequence(data=data, fps=fps)
        assert str(e.value) == message


class TestMotionDiff:
    def test_constant_pose(self):
        p = pose.PoseSequence(data=np.ones((5, 3, 2)), fps=30)
        m = pose.motion_diff(p)
        assert np.array_equal(m.diffs, np.zeros((4, 3, 2)))
        assert np.array_equal(m.magnitude, np.zeros((4, 3)))

    def test_345_triangle(self):
        data = np.zeros((4, 1, 2))
        for t in range(4):
            data[t, 0] = [0.03 * t, 0.04 * t]
        m = pose.motion_diff(pose.PoseSequence(data=data, fps=30))
        assert relerr(m.magnitude, np.full((3, 1), 0.05)) < 1e-12

    def test_vs_direct_subtraction(self, rng):
        data = rng.uniform(0, 1, size=(4, 3, 2))
        m = pose.motion_diff(pose.PoseSequence(data=data, fps=30))
        brute = np.array([[data[t + 1, j] - data[t, j] for j in range(3)] for t in range(3)])
        assert np.array_equal(m.diffs, brute)
        assert relerr(m.magnitude, np.linalg.norm(brute, axis=2)) < 1e-12


class TestSynthDance:
    def test_beat_count_and_spacing(self):
        _, grid = pose.synth_dance(120, 5, 30, joints=4, noise_std=0, seed=0)
        assert len(grid.beat_frames) == 10
        assert all(b - a == 15 for a, b in zip(grid.beat_frames, grid.beat_frames[1:]))

    def test_deterministic(self):
        p1, g1 = pose.synth_dance(97, 4, 30, joints=6, noise_std=0.01, seed=42)
        p2, g2 = pose.synth_dance(97, 4, 30, joints=6, noise_std=0.01, seed=42)
        assert np.array_equal(p1.data, p2.data)
        assert g1.beat_frames == g2.beat_frames

    def test_noise_free_minima_at_beats(self):
        p, grid = pose.synth_dance(120, 5, 30, joints=4, noise_std=0, seed=3)
        mag = pose.motion_diff(p).magnitude[:, :2].sum(axis=1)
        assert set(pose.local_minima(mag)) == set(grid.beat_frames)

    def test_bad_tempo(self):
        with pytest.raises(ConfigError):
            pose.synth_dance(0, 5, 30, joints=4)


class TestSynthLatent:
    def _grid(self, frames, length):
        return pose.BeatGrid(beat_frames=frames, timeline_len=length, fps=30)

    def test_single_beat_at_zero(self):
        z = pose.synth_latent(self._grid([0], 4), 4, 1, seed=0)
        assert np.argmax(z.data[:, 0]) == 0
        assert z.data[0, 0] == pytest.approx(1.0)

    def test_empty_beats(self):
        z = pose.synth_latent(self._grid([], 10), 8, 3, seed=0)
        assert np.array_equal(z.data[:, 0], np.zeros(8))

    def test_rescaling(self):
        z = pose.synth_latent(self._grid([15, 30], 150), 50, 2, seed=0)
        peaks = [i for i in range(50)
                 if z.data[i, 0] == pytest.approx(1.0)]
        assert peaks == [5, 10]

    def test_monotone_mapping(self, rng):
        frames = sorted(rng.choice(200, size=12, replace=False).tolist())
        grid = self._grid(frames, 200)
        idx = pose.map_to_latent(grid, 50)
        assert idx == sorted(set(idx))

    def test_deterministic(self):
        g = self._grid([3, 9], 20)
        a = pose.synth_latent(g, 10, 4, seed=7)
        b = pose.synth_latent(g, 10, 4, seed=7)
        assert np.array_equal(a.data, b.data)


class TestPoseFiles:
    def test_round_trip(self, tmp_path, rng):
        p = pose.PoseSequence(data=rng.uniform(0, 1, (3, 2, 2)), fps=30)
        path = tmp_path / "p.pose"
        pose.save_pose_sequence(p, path)
        q = pose.load_pose_sequence(path)
        assert np.array_equal(p.data, q.data)
        assert q.fps == 30

    def test_smallest_valid(self, tmp_path):
        path = tmp_path / "p.pose"
        path.write_text("2 2 2 30.0\n0 0 1 1\n0.5 0.5 1 1\n")
        q = pose.load_pose_sequence(path)
        assert q.data.shape == (2, 2, 2)

    def test_ragged_frame(self, tmp_path):
        path = tmp_path / "p.pose"
        path.write_text("2 2 2 30.0\n0 0 1 1\n0.5 0.5 1\n")
        with pytest.raises(ParseError, match="frame 1"):
            pose.load_pose_sequence(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "p.pose"
        path.write_text("2 1 2 30.0\n0 0\nNaN 0\n")
        with pytest.raises(ParseError):
            pose.load_pose_sequence(path)

    def test_too_few_frames(self, tmp_path):
        path = tmp_path / "p.pose"
        path.write_text("1 1 2 30.0\n0 0\n")
        with pytest.raises(ParseError):
            pose.load_pose_sequence(path)


class TestConditioning:
    def test_round_trip(self, tmp_path, rng):
        c = pose.synth_conditioning(10, 8, seed=1)
        path = tmp_path / "c.cond"
        pose.save_conditioning(c, path)
        assert np.array_equal(pose.load_conditioning(path).data, c.data)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "c.cond"
        rows = ["1 " * 8] * 9 + ["1 " * 7]
        path.write_text("10 8\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            pose.load_conditioning(path)

    def test_synth_deterministic(self):
        assert np.array_equal(pose.synth_conditioning(5, 3, 9).data,
                              pose.synth_conditioning(5, 3, 9).data)


class TestBeatGridFiles:
    def test_round_trip(self, tmp_path):
        g = pose.BeatGrid(beat_frames=[2, 7, 11], timeline_len=20, fps=30)
        path = tmp_path / "g.beats"
        pose.save_beat_grid(g, path)
        h = pose.load_beat_grid(path)
        assert h.beat_frames == g.beat_frames
        assert h.timeline_len == 20

    @pytest.mark.parametrize("text, line", [("0 30.0\n\n", 1), ("10 -30.0\n1 2\n", 1),
                                            ("10 30.0\n1 1\n", 2), ("10 30.0\n10\n", 2)])
    def test_refused_value_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "g.beats"
        path.write_text(text)
        with pytest.raises(ParseError) as e:
            pose.load_beat_grid(path)
        assert str(e.value).startswith(f"{path}: line {line}: "), e.value

    def test_invariants(self):
        with pytest.raises(ConfigError):
            pose.BeatGrid(beat_frames=[5, 5], timeline_len=10, fps=30)
        with pytest.raises(ConfigError):
            pose.BeatGrid(beat_frames=[10], timeline_len=10, fps=30)


class TestLatentFiles:
    def test_round_trip(self, tmp_path, rng):
        z = pose.MusicLatent(data=rng.standard_normal((6, 3)))
        path = tmp_path / "z.latent"
        pose.save_latent(z, path)
        assert np.array_equal(pose.load_latent(path).data, z.data)


class TestMatrixCodec:
    def test_rows_checked_before_header_sizes(self, tmp_path):
        # J*C of 3e11 would need terabytes if sized before the rows are read
        path = tmp_path / "p.pose"
        path.write_text("2 100000000000 3 30.0\n0 0\n0 0\n")
        with pytest.raises(ParseError, match="frame 0"):
            pose.load_pose_sequence(path)

    @pytest.mark.parametrize("text", ["", "3 2\n1 2\n3 4\n", "2 2\n1 2\n", "0 2\n",
                                      "2 -2\n\n\n", "2 2 2\n1 2\n3 4\n", "2 2\n1 2\n3 inf\n"])
    def test_malformed_latent(self, tmp_path, text):
        path = tmp_path / "z.latent"
        path.write_text(text)
        with pytest.raises(ParseError):
            pose.load_latent(path)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "c.cond"
        path.write_bytes(b"2 1\n0.5\n\xc3(\n")
        with pytest.raises(ParseError, match="line 3"):
            pose.load_conditioning(path)

    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(rows=EDGE_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_finite_matrix_round_trips_bit_exact(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "round_trip.rhythm"
        rhythm.save_rhythm(rhythm.RhythmEmbedding(data=rows, fps=29.97), path)
        assert path.read_text(encoding="utf-8") == matrix_text((*rows.shape, 29.97), rows)
        got = rhythm.load_rhythm(path)
        assert got.fps == 29.97
        assert got.data.dtype == np.float64 and got.data.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, bad):
        path = tmp_path / "z.latent"
        z = pose.MusicLatent(data=np.zeros((5, 3)))
        z.data[2, 1], z.data[4, 0] = bad, bad  # after the type's own check
        with pytest.raises(NumericalError) as e:
            pose.save_latent(z, path)
        assert str(e.value) == f"{path}: row 2: non-finite value, not written"
        assert not path.exists()

    # the first faulty row is reported; within a row its count comes first,
    # then its values, then their finiteness
    @pytest.mark.parametrize("text, fault", [
        ("4 2\n1 2\n1 nan\n3 4\n5\n", "line 3: row 1: non-finite value"),
        ("4 2\n1 2\n1 x\n3 4\n5\n", "line 3: row 1: could not convert string to float: 'x'"),
        ("4 2\n1 2\ninf 1\n1 x\n5 6\n", "line 3: row 1: non-finite value"),
        ("4 2\n-inf 2\n1 2\n3 4\n5 6 7\n", "line 2: row 0: non-finite value"),
        ("3 2\n1 2\nnan x\n1\n", "line 3: row 1: could not convert string to float: 'x'"),
        ("3 2\n1 2\nnan 1 x\n", "line 3: row 1: expected 2 values, found 3"),
        ("3 2\n1 2\n1 nan\n", "line 3: row 1: non-finite value"),
        ("3 2\n1 2\n3 4\n", "line 3: expected 3 rows, file has 2"),
        ("1 2\n1 2\n3 4\n", "line 3: expected 1 rows, file has 2"),
    ])
    def test_first_faulty_row_wins(self, tmp_path, text, fault):
        path = tmp_path / "c.cond"
        path.write_text(text)
        with pytest.raises(ParseError) as e:
            pose.load_conditioning(path)
        assert str(e.value) == f"{path}: {fault}"

    # each matrix kind, one valid object of it and its file's loader
    KINDS = [
        (pose.PoseSequence, lambda: pose.PoseSequence(data=np.zeros((3, 2, 2)), fps=30),
         pose.load_pose_sequence),
        (pose.ConditioningFeatures, lambda: pose.ConditioningFeatures(data=np.zeros((4, 3))),
         pose.load_conditioning),
        (pose.MusicLatent, lambda: pose.MusicLatent(data=np.zeros((5, 2))), pose.load_latent),
        (rhythm.RhythmEmbedding, lambda: rhythm.RhythmEmbedding(data=np.zeros((6, 4)), fps=7.5),
         rhythm.load_rhythm),
    ]
    KIND_IDS = ["pose", "cond", "latent", "rhythm"]

    @pytest.mark.parametrize("kind, make, load", KINDS, ids=KIND_IDS)
    def test_header_has_a_field_per_axis_then_fps(self, tmp_path, kind, make, load):
        m, path = make(), tmp_path / "m.matrix"
        pose.save(m, path)
        head = path.read_text().splitlines()[0].split()
        fps = [repr(float(m.fps))] if hasattr(m, "fps") else []
        assert len(kind.header.split()) == m.data.ndim + len(fps)
        assert head == [*map(str, m.data.shape), *fps]
        assert type(load(path)) is kind

    @pytest.mark.parametrize("kind, make, load", KINDS, ids=KIND_IDS)
    def test_header_with_a_field_too_many_is_refused(self, tmp_path, kind, make, load):
        path = tmp_path / "m.matrix"
        pose.save(make(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0].rstrip("\n") + " 1\n" + "".join(lines[1:]))
        with pytest.raises(ParseError) as e:
            load(path)
        assert str(e.value) == f"{path}: line 1: header must be {kind.header!r}"

    def test_bytes_unchanged_by_round_trip(self, tmp_path, rng):
        path = tmp_path / "p.pose"
        pose.save_pose_sequence(pose.PoseSequence(data=rng.uniform(0, 1, (3, 2, 2)), fps=30),
                                path)
        text = path.read_text()
        pose.save_pose_sequence(pose.load_pose_sequence(path), path)
        assert path.read_text() == text and text.startswith("3 2 2 30.0\n")


def matrices(shape):
    """float64 arrays of `shape`s; half the draws may hold NaN or ±inf."""
    return (arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
            | arrays(np.float64, shape, elements=st.floats()))


# each strategy `valid | anything` draws half from a type's valid range, half from anywhere
ANY_SIZE = st.integers(0, 4)
MATRICES = matrices(st.tuples(ANY_SIZE, ANY_SIZE))
# 5e-324 up to the largest float; or any float, NaN, ±inf, 0 and negatives included
FPS = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.floats()
ROUND_TRIP = settings(max_examples=60, deadline=None)
# run config values: mostly valid, then any of the field's type
CONFIG_FIELDS = {
    "fps": st.floats(1.0, 60.0) | st.floats(),
    "learning_rate": st.floats(1e-6, 1.0) | st.floats(),
    "cond_drop_prob": st.floats(0.0, 1.0, exclude_max=True) | st.floats(),
    "latent_len": st.integers(1, 300) | st.integers(-2, 0),
    "hidden": st.sampled_from([8, 16, 64]) | st.integers(-1, 64),
    "heads": st.sampled_from([1, 2, 4, 8]) | st.integers(-1, 8),
    "seed": st.integers(0, 2 ** 64) | st.integers(-2, -1),
    "rhythm_mode": st.sampled_from(["learned", "mean", "binary", "none"]) | st.text(),
}


class TestEveryFileKindRoundTrips:
    """Whatever a file's type accepts saves and loads back equal, arrays bit
    for bit; whatever it refuses is a ConfigError before any file exists."""

    def round_trip(self, path, make, save, load):
        """(made, loaded), or None when the type refused the value."""
        files = (path, path.with_suffix(".manifest"), path.with_suffix(".bin"))
        for f in files:
            f.unlink(missing_ok=True)
        try:
            made = make()
        except ConfigError:
            event("refused")
            assert not any(f.exists() for f in files)
            return None
        event("accepted")
        save(made, path)
        return made, load(path)

    @given(data=matrices(st.tuples(st.integers(2, 4), st.integers(1, 3), st.sampled_from([2, 3]))
                         | st.tuples(ANY_SIZE, ANY_SIZE, ANY_SIZE)), fps=FPS)
    @example(data=np.zeros((2, 1, 2)), fps=np.inf)
    @example(data=np.zeros((2, 1, 2)), fps=5e-324)
    @ROUND_TRIP
    def test_pose(self, tmp_path_factory, data, fps):
        got = self.round_trip(tmp_path_factory.getbasetemp() / "kind.pose",
                              lambda: pose.PoseSequence(data, fps),
                              pose.save_pose_sequence, pose.load_pose_sequence)
        if got:
            made, loaded = got
            assert loaded.data.tobytes() == made.data.tobytes() and loaded.fps == made.fps

    @pytest.mark.parametrize("kind, save, load", [
        (pose.ConditioningFeatures, pose.save_conditioning, pose.load_conditioning),
        (pose.MusicLatent, pose.save_latent, pose.load_latent)], ids=["cond", "latent"])
    @given(data=MATRICES)
    @example(data=np.zeros((0, 3)))
    @ROUND_TRIP
    def test_cond_and_latent(self, tmp_path_factory, kind, save, load, data):
        got = self.round_trip(tmp_path_factory.getbasetemp() / "kind.matrix",
                              lambda: kind(data), save, load)
        if got:
            made, loaded = got
            assert loaded.data.shape == made.data.shape
            assert loaded.data.tobytes() == made.data.tobytes()

    @given(data=MATRICES, fps=FPS)
    @example(data=np.zeros((2, 3)), fps=-30.0)
    @ROUND_TRIP
    def test_rhythm(self, tmp_path_factory, data, fps):
        got = self.round_trip(tmp_path_factory.getbasetemp() / "kind.rhythm",
                              lambda: rhythm.RhythmEmbedding(data, fps),
                              rhythm.save_rhythm, rhythm.load_rhythm)
        if got:
            made, loaded = got
            assert loaded.data.shape == made.data.shape
            assert loaded.data.tobytes() == made.data.tobytes() and loaded.fps == made.fps

    @given(frames=(st.lists(st.integers(0, 39), max_size=6, unique=True).map(sorted)
                   | st.lists(st.integers(-2, 41), max_size=6)),
           timeline_len=st.integers(40, 2 ** 53) | st.integers(-2, 2 ** 53 + 1),
           fps=FPS)
    @ROUND_TRIP
    def test_beats(self, tmp_path_factory, frames, timeline_len, fps):
        got = self.round_trip(tmp_path_factory.getbasetemp() / "kind.beats",
                              lambda: pose.BeatGrid(frames, timeline_len, fps),
                              pose.save_beat_grid, pose.load_beat_grid)
        if got:
            made, loaded = got
            assert loaded == made

    @given(fields=st.fixed_dictionaries({}, optional=CONFIG_FIELDS))
    @ROUND_TRIP
    def test_config(self, tmp_path_factory, fields):
        base = tmp_path_factory.getbasetemp()
        save = lambda cfg, path: path.write_text(cfg.to_text(), encoding="utf-8")
        got = self.round_trip(base / "kind.cfg", lambda: RunConfig(**fields), save, load_config)
        if got:
            made, loaded = got
            assert loaded == made
            # a run log and --print-config's labeled text load as config files too
            cli._write_runlog(made, SimpleNamespace(command="train", out=str(base / "kind")))
            (base / "labeled.cfg").write_text(made.to_text(labeled=True), encoding="utf-8")
            assert load_config(base / "kind.log") == load_config(base / "labeled.cfg") == made

    @given(fields=st.fixed_dictionaries({
        "blocks": st.integers(1, 2) | st.integers(-1, 2),
        "hidden": st.sampled_from([4, 6, 8]), "heads": st.integers(1, 3),
        "latent_len": st.integers(1, 6) | st.integers(-1, 6),
        "latent_dim": st.integers(1, 3), "cond_dim": st.integers(1, 3),
        "base_period": st.floats(2.0, 5.0) | st.floats(0.0, 5.0), "seed": st.integers(0, 100),
        "rhythm_mode": st.sampled_from(["learned", "mean", "binary", "none"]),
        "align_mode": st.sampled_from(["attn", "meanpool"]),
    }))
    @ROUND_TRIP
    def test_checkpoint(self, tmp_path_factory, fields):
        small = dict(scales=2, bins=4, rhythm_dim=6, hidden_w=4, hidden_a=4)
        got = self.round_trip(tmp_path_factory.getbasetemp() / "kind_model",
                              lambda: flowgen.init_model(RunConfig(**small, **fields)),
                              checkpoint.save_model, checkpoint.load_model)
        if got:
            made, loaded = got
            assert loaded.config == made.config
            assert loaded.flat.tobytes() == made.flat.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: pose.PoseSequence(np.zeros((3, 2, 2)), fps=np.inf),
        lambda: pose.MusicLatent(np.zeros((0, 3))),
        lambda: rhythm.RhythmEmbedding(np.zeros((4, 3)), fps=0),
    ], ids=["pose-fps-inf", "latent-0-rows", "rhythm-fps-0"])
    def test_refused_by_the_type(self, make):
        with pytest.raises(ConfigError):
            make()


def _any_value(f: dataclasses.Field):
    """Values for run config field `f`: test_config's where it has them, and
    for an int field also values that are not integers."""
    if f.type == "str":
        modes = st.sampled_from(["learned", "mean", "binary", "none", "attn", "meanpool"])
        return CONFIG_FIELDS.get(f.name, modes | st.text())
    if f.type == "float":
        return CONFIG_FIELDS.get(f.name, st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e300]) | st.floats())
    return (CONFIG_FIELDS.get(f.name, st.integers(-2, 70))
            | st.sampled_from([math.nan, math.inf, -math.inf, 0.5]))


CONFIG_VALUES = {f.name: _any_value(f) for f in dataclasses.fields(RunConfig)}


class TestRunConfigRules:
    """Each field's own rule accepts what the name-list rules accepted."""

    @given(fields=st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=5, unique=True)
           .flatmap(lambda names: st.fixed_dictionaries({n: CONFIG_VALUES[n] for n in names})))
    @settings(max_examples=500, deadline=None)
    def test_accepts_what_the_oracle_accepts(self, fields):
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        try:
            config_oracle(SimpleNamespace(**{**defaults, **fields}))
            oracle = True
        except ConfigError:
            oracle = False
        try:
            RunConfig(**fields)
            ours = True
        except ConfigError:
            ours = False
        event(f"oracle {'accepts' if oracle else 'refuses'}")
        if any(type(defaults[n]) is int and not isinstance(v, int) for n, v in fields.items()):
            assert not ours  # an int field refuses what is not an integer
        else:
            assert ours == oracle

    @pytest.mark.parametrize("fields, message", [
        (dict(latent_dim=math.nan), "latent_dim must be an integer, got nan"),
        (dict(blocks=2.5), "blocks must be an integer, got 2.5"),
        (dict(steps=2.5), "steps must be an integer, got 2.5"),
    ], ids=["latent_dim-nan", "blocks-2.5", "steps-2.5"])
    def test_int_field_refuses_what_is_not_an_integer(self, fields, message):
        with pytest.raises(ConfigError) as e:
            RunConfig(**fields)
        assert str(e.value) == message

    def test_model_keys_and_reference_labels_are_the_oracles(self):
        assert sorted(MODEL_KEYS) == sorted(ORACLE_MODEL_KEYS)
        labeled = RunConfig().to_text(labeled=True).splitlines()
        assert {line.split(" = ")[0] for line in labeled
                if line.endswith("# reference default")} == ORACLE_REFERENCE
