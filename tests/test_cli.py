import ctypes
import platform
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dancebeat import align, checkpoint, cli, flowgen, metrics, pose, rhythm
from dancebeat.cli import main
from dancebeat.config import RunConfig, load_config
from dancebeat.tensor import Tensor

from conftest import read_wav_header, write_blob

TINY_CFG = """\
scales = 2
base_period = 2.0
bins = 4
rhythm_dim = 6
hidden_w = 4
hidden_a = 4
joints = 4
duration_s = 2.0
cond_len = 4
cond_dim = 3
latent_len = 10
latent_dim = 3
blocks = 1
hidden = 8
heads = 2
batch_size = 2
epochs = 2
learning_rate = 0.001
steps = 4
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def run(*argv):
    return main(list(argv))


def runlog(out: Path) -> Path:
    """The run log a command with `--out out` writes."""
    return out.with_name(out.name + ".log")


class TestSynth:
    def test_writes_expected_files(self, tmp_path, cfg_file):
        out = tmp_path / "data"
        assert run("--config", cfg_file, "synth", "--out", str(out), "--n-clips", "3") == 0
        for i in range(3):
            for ext in ("pose", "beats", "latent", "cond"):
                assert (out / f"clip_{i:03d}.{ext}").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "run.log").exists()

    def test_manifest_tempi_in_range(self, tmp_path, cfg_file):
        out = tmp_path / "data"
        run("--config", cfg_file, "synth", "--out", str(out), "--n-clips", "5")
        for line in (out / "manifest.txt").read_text().splitlines():
            tempo = float(line.split("tempo=")[1].split()[0])
            assert 60.0 <= tempo <= 180.0

    def test_byte_determinism(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--config", cfg_file, "--seed", "4", "synth", "--out", str(a), "--n-clips", "2")
        run("--config", cfg_file, "--seed", "4", "synth", "--out", str(b), "--n-clips", "2")
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_seed_changes_output(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--config", cfg_file, "--seed", "1", "synth", "--out", str(a), "--n-clips", "1")
        run("--config", cfg_file, "--seed", "2", "synth", "--out", str(b), "--n-clips", "1")
        assert (a / "clip_000.pose").read_bytes() != (b / "clip_000.pose").read_bytes()

    def test_refuses_nonempty_without_force(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "data"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run("--config", cfg_file, "synth", "--out", str(out)) == 1
        assert "--force" in capsys.readouterr().err
        assert run("--config", cfg_file, "--force", "synth", "--out", str(out),
                   "--n-clips", "1") == 0


class TestExtractAlign:
    def test_extract_format(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1")
        out = tmp_path / "clip.rhythm"
        assert run("--config", cfg_file, "extract", "--pose",
                   str(data / "clip_000.pose"), "--out", str(out)) == 0
        header = out.read_text().splitlines()[0].split()
        assert header[:2] == ["60", "6"]  # duration_s*fps frames, rhythm_dim cols

    def test_align_output_length(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1")
        r = tmp_path / "clip.rhythm"
        run("--config", cfg_file, "extract", "--pose", str(data / "clip_000.pose"),
            "--out", str(r))
        out = tmp_path / "clip.arhythm"
        assert run("--config", cfg_file, "align", "--rhythm", str(r),
                   "--out", str(out)) == 0
        header = out.read_text().splitlines()[0].split()
        assert header[:2] == ["10", "6"]  # latent_len rows

    def test_extract_and_align_on_one_stem_keep_both_logs(self, tmp_path, cfg_file):
        data, r, a = tmp_path / "data", tmp_path / "clip.rhythm", tmp_path / "clip.arhythm"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1") == 0
        assert run("--config", cfg_file, "extract", "--pose", str(data / "clip_000.pose"),
                   "--out", str(r)) == 0
        assert run("--config", cfg_file, "align", "--rhythm", str(r), "--out", str(a)) == 0
        assert sorted(p.name for p in tmp_path.glob("*.log")) == [
            "clip.arhythm.log", "clip.rhythm.log"]
        assert runlog(r).read_text().splitlines()[0] == "# command = extract"
        assert runlog(a).read_text().splitlines()[0] == "# command = align"

    def test_uncheckpointed_pipeline_is_one_untrained_model(self, tmp_path, cfg_file):
        data, r, a = tmp_path / "data", tmp_path / "clip.rhythm", tmp_path / "clip.arhythm"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1") == 0
        assert run("--config", cfg_file, "extract", "--pose", str(data / "clip_000.pose"),
                   "--out", str(r)) == 0
        assert run("--config", cfg_file, "align", "--rhythm", str(r), "--out", str(a)) == 0
        m = flowgen.init_model(load_config(cfg_file))
        p = pose.load_pose_sequence(data / "clip_000.pose")
        want = align.align(rhythm.extract_rhythm(p, m.bank, m.rhythm_net), m.queries)
        assert np.array_equal(rhythm.load_rhythm(a).data, want.data)


class TestRunLogs:
    def test_each_out_command_writes_one_log_and_evaluate_none(self, tmp_path, cfg_file):
        data, ckpt, r = tmp_path / "data", tmp_path / "model", tmp_path / "clip.rhythm"
        pose_file, text = str(data / "clip_000.pose"), load_config(cfg_file).to_text()
        steps = [
            (["synth", "--out", str(data), "--n-clips", "2"], data / "run.log"),
            (["train", "--data", str(data), "--out", str(ckpt)], runlog(ckpt)),
            (["generate", "--ckpt", str(ckpt), "--pose", pose_file, "--out",
              str(tmp_path / "gen.latent"), "--wav", str(tmp_path / "gen.wav")],
             runlog(tmp_path / "gen.latent")),
            (["extract", "--pose", pose_file, "--out", str(r)], runlog(r)),
            (["align", "--rhythm", str(r), "--out", str(tmp_path / "a"), "--ckpt", str(ckpt)],
             runlog(tmp_path / "a")),
            (["evaluate", "--data", str(data), "--ckpt", str(ckpt),
              "--report", str(tmp_path / "rep.txt")], None),
        ]
        for argv, log in steps:
            before = set(tmp_path.rglob("*.log"))
            assert run("--config", cfg_file, *argv) == 0
            assert set(tmp_path.rglob("*.log")) - before == ({log} if log else set())
            if log:
                assert log.read_text() == f"# command = {argv[0]}\n{text}"


class TestTrainGenerateEvaluate:
    @pytest.fixture
    def trained(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "2")
        ckpt = tmp_path / "model"
        assert run("--config", cfg_file, "train", "--data", str(data),
                   "--out", str(ckpt)) == 0
        return data, ckpt

    def test_generate_deterministic_and_wav(self, tmp_path, cfg_file, trained):
        data, ckpt = trained
        outs = []
        for name in ("g1.latent", "g2.latent"):
            out = tmp_path / name
            assert run("--config", cfg_file, "generate", "--ckpt", str(ckpt),
                       "--pose", str(data / "clip_000.pose"),
                       "--cond", str(data / "clip_000.cond"),
                       "--out", str(out), "--wav", str(out.with_suffix(".wav"))) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        h = read_wav_header(outs[0].with_suffix(".wav"))
        assert h["channels"] == 1 and h["sample_rate"] == 44100
        z = pose.load_latent(outs[0])
        assert z.data.shape == (10, 3)
        assert np.all(np.isfinite(z.data))

    def test_evaluate_ground_truth_self_match(self, tmp_path, cfg_file, trained, capsys):
        data, _ = trained
        # scoring the ground-truth latents against themselves is a perfect match
        assert run("--config", cfg_file, "evaluate", "--data", str(data),
                   "--generated", str(data),
                   "--report", str(tmp_path / "rep.txt")) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert "BCS=100.00" in summary and "F1=100.00" in summary
        assert "CSD=0.00" in summary and "HSD=0.00" in summary
        assert (tmp_path / "rep.txt").exists()
        assert (tmp_path / "rep.tsv").exists()

    def test_evaluate_from_checkpoint_runs(self, tmp_path, cfg_file, trained, capsys):
        data, ckpt = trained
        assert run("--config", cfg_file, "evaluate",
                   "--data", str(data), "--ckpt", str(ckpt)) == 0
        assert "F1=" in capsys.readouterr().out

    def test_evaluate_needs_source(self, tmp_path, cfg_file, trained, capsys):
        data, _ = trained
        assert run("--config", cfg_file, "evaluate", "--data", str(data)) == 1
        assert "error:" in capsys.readouterr().err

    def test_outs_with_suffixes_keep_both_checkpoints(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "2") == 0
        for seed, out in (("8", "model.v1"), ("9", "model.v2")):
            assert run("--config", cfg_file, "--seed", seed, "train", "--data", str(data),
                       "--out", str(tmp_path / out)) == 0
        assert sorted(p.name for p in tmp_path.glob("model.*") if p.suffix != ".log") == [
            "model.v1.bin", "model.v1.manifest", "model.v2.bin", "model.v2.manifest"]
        assert "seed = 8" in (tmp_path / "model.v1.manifest").read_text().splitlines()

    def test_train_reports_wall_and_cpu_time(self, tmp_path, cfg_file, trained, capsys):
        data, _ = trained
        rc, err = run_err(capsys, "--config", cfg_file, "train", "--data", str(data),
                          "--out", str(tmp_path / "again"))
        assert rc == 0 and len(err) == 1, err
        assert re.fullmatch(r"wall time \d+\.\ds, cpu \d+\.\ds", err[0]), err


class TestTopLevel:
    def test_print_config(self, capsys):
        assert run("--print-config") == 0
        out = capsys.readouterr().out
        assert "seed = 0" in out and "# reference default" in out
        assert len(out.splitlines()) == 36

    def test_bad_config_file(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nope = 1\n")
        assert run("--config", str(p), "--print-config") == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["window_frames = 3.0", "smooth_sigma = 2.0",
                                      "min_separation = 4"])
    def test_removed_config_keys(self, tmp_path, capsys, line):
        p = tmp_path / "old.cfg"
        p.write_text(line + "\n")
        rc, err = run_err(capsys, "--config", str(p), "--print-config")
        assert rc == 1 and len(err) == 1 and "unknown config key" in err[0], err

    def test_key_set_twice_names_both_lines(self, tmp_path, capsys):
        p = tmp_path / "twice.cfg"
        p.write_text("epochs=3\n# a comment\nseed = 1\nepochs = 3\n")
        out = tmp_path / "data"
        rc, err = run_err(capsys, "--config", str(p), "synth", "--out", str(out))
        assert rc == 1 and err == [f"error: {p}: line 4: epochs is set again; line 1 set it first"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["fps = 0.0\n", "hidden = 10\nheads = 4\n"])
    def test_config_refused_as_a_whole_names_its_file(self, tmp_path, capsys, text):
        # every line parses; RunConfig refuses the values together
        p = tmp_path / "run.cfg"
        p.write_text(text)
        out = tmp_path / "data"
        rc, err = run_err(capsys, "--config", str(p), "synth", "--out", str(out))
        assert rc == 1 and len(err) == 1 and err[0].startswith(f"error: {p}: "), err
        assert not out.exists()

    def test_print_config_labels_what_the_run_sets(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("fps = 60.0\n")
        assert run("--config", str(p), "--seed", "3", "--print-config") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "fps = 60.0  # set by this run" in lines
        assert "seed = 3  # set by this run" in lines
        assert "epochs = 100  # reference default" in lines
        assert "joints = 17  # desk default" in lines
        assert sum("# set by this run" in ln for ln in lines) == 2

    def test_missing_pose_file(self, tmp_path, capsys):
        assert run("extract", "--pose", str(tmp_path / "nope.pose"),
                   "--out", str(tmp_path / "o.rhythm")) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert run() == 2
        assert "usage:" in capsys.readouterr().out


class TestOutOfMemory:
    @pytest.mark.parametrize("owner, stage, command", [
        (pose, "synth_conditioning", ("synth", "--n-clips", "1")),
        (flowgen, "init_model", ("extract", "--pose", "clip_000.pose")),
    ])
    def test_allocation_failure_is_one_error_line(self, tmp_path, cfg_file, capsys,
                                                 monkeypatch, owner, stage, command):
        # a config can validate and still ask for more memory than there is
        # (cond_len = 100000000: 5.96 GiB per clip); fake the failure, never allocate
        data = tmp_path / "data"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1") == 0

        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.96 GiB for an array with shape "
                              "(100000000, 8) and data type float64")

        monkeypatch.setattr(owner, stage, too_big)
        argv = [str(data / a) if a.endswith(".pose") else a for a in command]
        rc, err = run_err(capsys, "--config", cfg_file, *argv, "--out", str(tmp_path / "o"))
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith("error: Unable to allocate 5.96 GiB"), err


def _openblas_fn(name, argtypes, restype):
    """A function of numpy's bundled OpenBLAS; skips where numpy bundles none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS")
    fn = getattr(ctypes.CDLL(str(libs[0])), name)
    fn.argtypes, fn.restype = argtypes, restype
    return fn


class TestBlasThreads:
    def test_commands_run_openblas_on_one_thread(self, tmp_path, cfg_file):
        get_threads = _openblas_fn("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
        set_threads = _openblas_fn("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
        set_threads(2)  # numpy's default on a two-CPU machine, whatever ran before
        cli._blas_one_thread.cache_clear()
        assert run("--config", cfg_file, "synth", "--out", str(tmp_path / "d"),
                   "--n-clips", "1") == 0
        assert get_threads() == 1

    @pytest.mark.parametrize("files", [[], ["libscipy_openblas64_-0.so"]])
    def test_without_the_library_commands_still_run(self, tmp_path, cfg_file, capsys,
                                                    monkeypatch, files):
        libs = tmp_path / "libs"
        libs.mkdir()
        for name in files:
            (libs / name).write_bytes(b"not a shared library")
        monkeypatch.setattr(cli, "_NUMPY_LIBS", libs)
        cli._blas_one_thread.cache_clear()
        try:
            cli._blas_one_thread()
            rc, err = run_err(capsys, "--config", cfg_file, "synth",
                              "--out", str(tmp_path / "d"), "--n-clips", "1")
        finally:
            cli._blas_one_thread.cache_clear()  # later commands pin the real library
        assert rc == 0 and err == [], err


class TestMallocThresholds:
    def test_main_sets_them_once_per_process(self, tmp_path, cfg_file, monkeypatch):
        calls, real_cdll = [], ctypes.CDLL
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **kw: (
            libc if name is None else real_cdll(name, *a, **kw)))
        cli._fixed_malloc_thresholds.cache_clear()
        try:
            for i in range(2):
                assert run("--config", cfg_file, "synth", "--out", str(tmp_path / f"d{i}"),
                           "--n-clips", "1") == 0
        finally:
            cli._fixed_malloc_thresholds.cache_clear()  # later commands set the real ones
        assert calls == [(-3, 4 << 20), (-1, 16 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("loader", ["no mallopt", "no library"])
    def test_without_mallopt_commands_still_run(self, tmp_path, cfg_file, capsys,
                                                monkeypatch, loader):
        real_cdll = ctypes.CDLL

        def cdll(name, *a, **kw):
            if name is not None:
                return real_cdll(name, *a, **kw)
            if loader == "no library":
                raise OSError("no libc")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._fixed_malloc_thresholds.cache_clear()
        try:
            assert cli._fixed_malloc_thresholds() is None
            rc, err = run_err(capsys, "--config", cfg_file, "synth",
                              "--out", str(tmp_path / "d"), "--n-clips", "1")
        finally:
            cli._fixed_malloc_thresholds.cache_clear()
        assert rc == 0 and err == [], err

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
    def test_warm_long_clip_train_steps_barely_fault(self, tmp_path, monkeypatch):
        import resource

        # the benchmark's long_clip shape: 20 s clips on a 200-step latent; 4 clips
        # make one batch, so each of the 4 epochs ends in one Adam step
        (tmp_path / "long.cfg").write_text("duration_s = 20.0\nlatent_len = 200\nepochs = 4\n")
        assert run("--config", str(tmp_path / "long.cfg"), "synth",
                   "--out", str(tmp_path / "d"), "--n-clips", "4") == 0
        cfg, dataset = load_config(tmp_path / "long.cfg"), cli._load_dataset(tmp_path / "d")
        flowgen.train(dataset, cfg)
        faults, step = [], flowgen.Adam.step
        monkeypatch.setattr(flowgen.Adam, "step", lambda opt, g: (
            step(opt, g), faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)))
        flowgen.train(dataset, cfg)
        # Counted from the warm call's first step, which may regrow a heap that
        # glibc trimmed when the last call returned. Each later step reuses what
        # the one before it freed: 8,000-11,000 faults over the three steps under
        # glibc's own sliding thresholds, 0-200 with the fixed ones.
        assert len(faults) == 4 and faults[-1] - faults[0] < 1000, faults


def run_err(capsys, *argv):
    """(exit status, stderr lines) of one CLI call."""
    capsys.readouterr()
    rc = run(*argv)
    return rc, capsys.readouterr().err.splitlines()


class TestMalformedInputs:
    @pytest.fixture
    def data(self, tmp_path, cfg_file):
        d = tmp_path / "data"
        assert run("--config", cfg_file, "synth", "--out", str(d), "--n-clips", "1") == 0
        return d

    def assert_one_error(self, rc, err):
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_latent_header(self, tmp_path, cfg_file, data, capsys):
        (data / "clip_000.latent").write_text("50 x\n")
        self.assert_one_error(*run_err(capsys, "--config", cfg_file, "evaluate",
                                       "--data", str(data), "--generated", str(data)))

    def test_beats_line(self, tmp_path, cfg_file, data, capsys):
        (data / "clip_000.beats").write_text("60 30.0\n3 x 9\n")
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate",
                          "--data", str(data), "--generated", str(data))
        self.assert_one_error(rc, err)
        assert "line 2" in err[0]

    @pytest.mark.parametrize("damage", ["header", "cut"])
    def test_rhythm_file(self, tmp_path, cfg_file, data, capsys, damage):
        r = tmp_path / "clip.rhythm"
        assert run("--config", cfg_file, "extract", "--pose", str(data / "clip_000.pose"),
                   "--out", str(r)) == 0
        lines = r.read_text().splitlines()
        if damage == "header":
            lines[0] = "150 64 x"
        else:
            lines = lines[:10]
        r.write_text("\n".join(lines) + "\n")
        self.assert_one_error(*run_err(capsys, "--config", cfg_file, "align",
                                       "--rhythm", str(r), "--out", str(tmp_path / "a")))

    @pytest.mark.parametrize("align_mode", ["attn", "meanpool"])
    @pytest.mark.parametrize("ckpt", [False, True])
    def test_rhythm_width(self, tmp_path, data, capsys, align_mode, ckpt):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(TINY_CFG + f"align_mode = {align_mode!r}\n")
        model = tmp_path / "model"
        if ckpt:
            assert run("--config", str(cfg), "train", "--data", str(data),
                       "--out", str(model)) == 0
        r = tmp_path / "clip.rhythm"
        rhythm.save_rhythm(rhythm.RhythmEmbedding(data=np.ones((60, 5)), fps=30.0), r)
        rc, err = run_err(capsys, "--config", str(cfg), "align", "--rhythm", str(r),
                          "--out", str(tmp_path / "a"), *(["--ckpt", str(model)] if ckpt else []))
        self.assert_one_error(rc, err)
        assert "5 columns but rhythm_dim is 6" in err[0]
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("align_mode", ["attn", "meanpool"])
    def test_rhythm_shorter_than_latent_len(self, tmp_path, capsys, align_mode):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(TINY_CFG + f"align_mode = {align_mode!r}\n")  # latent_len = 10
        r = tmp_path / "clip.rhythm"
        rhythm.save_rhythm(rhythm.RhythmEmbedding(data=np.ones((9, 6)), fps=30.0), r)
        rc, err = run_err(capsys, "--config", str(cfg), "align", "--rhythm", str(r),
                          "--out", str(tmp_path / "a.arhythm"))
        self.assert_one_error(rc, err)
        assert f"{r} has 9 frames, fewer than latent_len = 10" in err[0], err
        assert not (tmp_path / "a.arhythm").exists() and not runlog(tmp_path / "a.arhythm").exists()

    @pytest.mark.parametrize("fps", ["0", "-30", "inf", "nan"])
    def test_beats_fps(self, tmp_path, cfg_file, data, capsys, fps):
        beats = data / "clip_000.beats"
        beats.write_text(f"10 {fps}\n2 5\n")
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate",
                          "--data", str(data), "--generated", str(data))
        self.assert_one_error(rc, err)
        assert str(beats) in err[0] and "fps must be finite and positive" in err[0], err

    @pytest.mark.parametrize("text, line", [("10 30.0\n1 2\n3 4\n", 3), ("10 30.0\n1 2\n\n", 3),
                                            ("10 30.0\n", 2)],
                             ids=["third-line", "blank-third-line", "no-frames-line"])
    def test_beats_two_lines(self, tmp_path, cfg_file, data, capsys, text, line):
        beats, report = data / "clip_000.beats", tmp_path / "report.txt"
        beats.write_text(text)
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate", "--data", str(data),
                          "--generated", str(data), "--report", str(report))
        self.assert_one_error(rc, err)
        assert f"{beats}: line {line}: expected 2 lines" in err[0], err
        assert not report.exists()

    def test_generated_latent_rows(self, tmp_path, cfg_file, data, capsys):
        z, report = data / "clip_000.latent", tmp_path / "report.txt"
        pose.save_latent(pose.MusicLatent(np.zeros((8, 3))), z)  # latent_len is 10
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate", "--data", str(data),
                          "--generated", str(data), "--report", str(report))
        self.assert_one_error(rc, err)
        assert f"{z} has 8 rows but latent_len is 10" in err[0], err
        assert not report.exists()

    # header values the matrix header rule lets through and the pose type refuses
    @pytest.mark.parametrize("fps, coords", [("0.0", 2), ("-30.0", 2), ("30.0", 4)],
                             ids=["fps-0", "fps-minus-30", "C-4"])
    def test_pose_header_value(self, tmp_path, cfg_file, data, capsys, fps, coords):
        p, out = data / "clip_000.pose", tmp_path / "clip.rhythm"
        lines = p.read_text().splitlines()
        T, J, C, _ = lines[0].split()
        lines[0] = f"{T} {int(J) * int(C) // coords} {coords} {fps}"  # the same row width
        p.write_text("\n".join(lines) + "\n")
        rc, err = run_err(capsys, "--config", cfg_file, "extract", "--pose", str(p),
                          "--out", str(out))
        self.assert_one_error(rc, err)
        assert err[0].startswith(f"error: {p}: line 1: "), err
        assert not out.exists() and not runlog(out).exists()

    @pytest.mark.parametrize("fps", ["0.0", "-30.0"])
    def test_rhythm_fps(self, tmp_path, cfg_file, data, capsys, fps):
        r, out = tmp_path / "clip.rhythm", tmp_path / "a"
        assert run("--config", cfg_file, "extract", "--pose", str(data / "clip_000.pose"),
                   "--out", str(r)) == 0
        lines = r.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:2] + [fps])
        r.write_text("\n".join(lines) + "\n")
        rc, err = run_err(capsys, "--config", cfg_file, "align", "--rhythm", str(r),
                          "--out", str(out))
        self.assert_one_error(rc, err)
        assert f"{r}: line 1: rhythm embedding fps must be finite and positive" in err[0], err
        assert not out.exists() and not runlog(out).exists()

    @pytest.mark.parametrize("length", ["9" * 401, str(2 ** 53 + 1), "0"],
                             ids=["401-digits", "2**53+1", "0"])
    def test_beats_timeline_length(self, tmp_path, cfg_file, data, capsys, length):
        # a length a float cannot hold exactly is refused as the file is read
        beats = data / "clip_000.beats"
        beats.write_text(f"{length} 30.0\n2 5\n")
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate",
                          "--data", str(data), "--generated", str(data))
        self.assert_one_error(rc, err)
        assert str(beats) in err[0] and "timeline length must be 1 to 2**53" in err[0], err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_synth_needs_a_clip(self, tmp_path, cfg_file, capsys, n):
        out = tmp_path / "empty"
        rc, err = run_err(capsys, "--config", cfg_file, "synth", "--out", str(out),
                          "--n-clips", n)
        self.assert_one_error(rc, err)
        assert "--n-clips" in err[0] and not out.exists()

    @pytest.mark.parametrize("fps", ["1e-20", "1e-308", "1e9"])
    def test_wav_window_a_wav_cannot_hold(self, tmp_path, cfg_file, data, capsys, fps):
        ckpt, wav = tmp_path / "model", tmp_path / "g.wav"
        assert run("--config", cfg_file, "train", "--data", str(data), "--out", str(ckpt)) == 0
        p = data / "clip_000.pose"
        lines = p.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:3] + [fps])
        p.write_text("\n".join(lines) + "\n")
        rc, err = run_err(capsys, "--config", cfg_file, "generate", "--ckpt", str(ckpt),
                          "--pose", str(p), "--out", str(tmp_path / "g.latent"),
                          "--wav", str(wav))
        self.assert_one_error(rc, err)
        # 60 frames at these rates last 6e21 s, overflow to inf, or round to 0 samples
        assert f"click track of {60 / float(fps)} s" in err[0], err
        assert not wav.exists() and not (tmp_path / "g.latent").exists()

    def test_format_3_checkpoint(self, tmp_path, cfg_file, data, capsys):
        ckpt = tmp_path / "model"
        checkpoint.save_model(flowgen.init_model(load_config(cfg_file)), ckpt)
        m = ckpt.with_suffix(".manifest")
        m.write_text(m.read_text().replace(checkpoint.MAGIC, "dancebeat-checkpoint 3", 1))
        rc, err = run_err(capsys, "--config", cfg_file, "generate", "--ckpt", str(ckpt),
                          "--pose", str(data / "clip_000.pose"), "--out", str(tmp_path / "z"))
        self.assert_one_error(rc, err)
        assert err == [f"error: {m}: line 1: expected 'dancebeat-checkpoint 4', "
                       f"found 'dancebeat-checkpoint 3'"]

    @pytest.mark.parametrize("edit", ["reorder", "comment", "annotate"])
    def test_config_line_not_as_to_text_writes_it(self, tmp_path, cfg_file, data, capsys, edit):
        # each edit leaves a config file that loads, but not the manifest's one spelling
        ckpt = tmp_path / "model"
        checkpoint.save_model(flowgen.init_model(load_config(cfg_file)), ckpt)
        m = ckpt.with_suffix(".manifest")
        lines = m.read_text().splitlines()
        k = lines.index("epochs = 2")
        if edit == "reorder":
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        else:
            lines[k] = "# epochs = 2" if edit == "comment" else "epochs = 2  # a note"
        m.write_text("\n".join(lines) + "\n")
        rc, err = run_err(capsys, "--config", cfg_file, "generate", "--ckpt", str(ckpt),
                          "--pose", str(data / "clip_000.pose"), "--out", str(tmp_path / "z"))
        self.assert_one_error(rc, err)
        want = "epochs = 100" if edit == "comment" else "epochs = 2"  # 100: the default
        assert err == [f"error: {m}: line {k + 1}: expected {want!r}, found {lines[k]!r}"]

    def test_invalid_utf8(self, tmp_path, cfg_file, data, capsys):
        p = data / "clip_000.pose"
        raw = p.read_bytes()
        p.write_bytes(raw[:30] + b"\xff" + raw[31:])
        rc, err = run_err(capsys, "--config", cfg_file, "extract", "--pose", str(p),
                          "--out", str(tmp_path / "r"))
        self.assert_one_error(rc, err)
        assert "UTF-8" in err[0]


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("command", ["extract", "align", "generate", "evaluate"])
    def test_refused_before_any_output(self, tmp_path, cfg_file, capsys, command):
        data, ckpt, out = tmp_path / "data", tmp_path / "model", tmp_path / "out"
        pose_file, r = data / "clip_000.pose", tmp_path / "clip.rhythm"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "1") == 0
        assert run("--config", cfg_file, "extract", "--pose", str(pose_file), "--out", str(r)) == 0
        checkpoint.save_model(flowgen.init_model(load_config(cfg_file)), ckpt)
        flat = np.frombuffer(ckpt.with_suffix(".bin").read_bytes(), "<f8").copy()
        flat[::7] = np.nan  # with a true digest
        write_blob(ckpt, flat)
        argv = {"extract": ("--pose", pose_file, "--out", out),
                "align": ("--rhythm", r, "--out", out),
                "generate": ("--pose", pose_file, "--cond", data / "clip_000.cond",
                             "--out", out, "--wav", out.with_suffix(".wav")),
                "evaluate": ("--data", data, "--report", out)}[command]
        rc, err = run_err(capsys, "--config", cfg_file, command, "--ckpt", str(ckpt),
                          *map(str, argv))
        assert rc == 1 and len(err) == 1, err
        assert err[0] == (f"error: {ckpt.with_suffix('.bin')}: "
                          "tensor vf.time_w1 holds a non-finite value"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clip.rhythm", "clip.rhythm.log", "data", "model.bin", "model.manifest", "tiny.cfg"]


class TestCheckpointConflicts:
    @pytest.mark.parametrize("align_mode", ["attn", "meanpool"])
    def test_latent_len_mismatch(self, tmp_path, capsys, align_mode):
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(TINY_CFG.replace("latent_len = 10", "latent_len = 50")
                             + f"align_mode = {align_mode!r}\n")
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(TINY_CFG.replace("latent_len = 10", "latent_len = 40")
                           + f"align_mode = {align_mode!r}\n")
        data, ckpt = tmp_path / "data", tmp_path / "model"
        assert run("--config", str(train_cfg), "synth", "--out", str(data), "--n-clips", "1") == 0
        assert run("--config", str(train_cfg), "train", "--data", str(data),
                   "--out", str(ckpt)) == 0
        out = tmp_path / "gen.latent"
        rc, err = run_err(capsys, "--config", str(run_cfg), "generate", "--ckpt", str(ckpt),
                          "--pose", str(data / "clip_000.pose"), "--out", str(out))
        assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
        assert "latent_len = 40" in err[0] and "latent_len = 50" in err[0]
        assert not out.exists()
        for argv in (("evaluate", "--data", str(data), "--ckpt", str(ckpt)),
                     ("extract", "--ckpt", str(ckpt), "--pose", str(data / "clip_000.pose"),
                      "--out", str(tmp_path / "r"))):
            rc, err = run_err(capsys, "--config", str(run_cfg), *argv)
            assert rc == 1 and "latent_len = 40" in err[0]


class TestPoseFrameRate:
    def test_wav_clicks_follow_the_pose_frame_rate(self, tmp_path, capsys):
        # a 60 fps pose under a config that says 30 fps: 300 frames span 5 s
        cfg = tmp_path / "fps60.cfg"
        cfg.write_text("fps = 60.0\nepochs = 1\n")
        data, ckpt = tmp_path / "data", tmp_path / "model"
        assert run("--config", str(cfg), "synth", "--out", str(data), "--n-clips", "2") == 0
        assert run("--config", str(cfg), "train", "--data", str(data), "--out", str(ckpt)) == 0
        latent_len = 50
        for seed in (1, 2, 3):
            out = tmp_path / f"gen{seed}.latent"
            rc, err = run_err(capsys, "--seed", str(seed), "generate", "--ckpt", str(ckpt),
                              "--pose", str(data / "clip_000.pose"),
                              "--cond", str(data / "clip_000.cond"),
                              "--out", str(out), "--wav", str(out.with_suffix(".wav")))
            assert rc == 0, err
            raw = out.with_suffix(".wav").read_bytes()
            assert read_wav_header(out.with_suffix(".wav"))["sample_rate"] == 44100
            q = np.frombuffer(raw, dtype="<i2", offset=44)
            assert q.size == 5 * 44100
            nz = np.flatnonzero(q)
            onsets = nz[np.diff(nz, prepend=-101) > 100]
            beats = metrics.detect_latent_beats(pose.load_latent(out)).beat_frames
            want = [i / (latent_len / 5.0) * 44100 for i in beats]
            assert len(onsets) == len(want) > 0
            # a click is a sine burst from phase 0: its first nonzero sample follows the beat's
            assert all(abs(a - b) <= 2 for a, b in zip(onsets, want)), (onsets, want)


class TestAlignMode:
    def test_meanpool_checkpoint_aligns_by_segment_means(self, tmp_path):
        cfg = tmp_path / "mp.cfg"
        cfg.write_text(TINY_CFG + "align_mode = 'meanpool'\n")
        data, ckpt = tmp_path / "data", tmp_path / "model"
        r_path, a_path = tmp_path / "clip.rhythm", tmp_path / "clip.arhythm"
        assert run("--config", str(cfg), "synth", "--out", str(data), "--n-clips", "2") == 0
        assert run("--config", str(cfg), "train", "--data", str(data), "--out", str(ckpt)) == 0
        assert run("--config", str(cfg), "extract", "--ckpt", str(ckpt),
                   "--pose", str(data / "clip_000.pose"), "--out", str(r_path)) == 0
        assert run("--config", str(cfg), "align", "--ckpt", str(ckpt),
                   "--rhythm", str(r_path), "--out", str(a_path)) == 0
        r = rhythm.load_rhythm(r_path)
        want = flowgen.mean_pool_align(Tensor(r.data), 10).data
        assert np.array_equal(rhythm.load_rhythm(a_path).data, want)


class TestRhythmMode:
    @pytest.mark.parametrize("mode", ["learned", "mean", "binary"])
    def test_extract_then_align_give_what_the_model_conditions_on(self, tmp_path, mode):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(TINY_CFG + f"rhythm_mode = {mode!r}\n")
        data, ckpt = tmp_path / "data", tmp_path / "model"
        r_path, a_path = tmp_path / "clip.rhythm", tmp_path / "clip.arhythm"
        assert run("--config", str(cfg), "synth", "--out", str(data), "--n-clips", "2") == 0
        assert run("--config", str(cfg), "train", "--data", str(data), "--out", str(ckpt)) == 0
        assert run("--config", str(cfg), "extract", "--ckpt", str(ckpt),
                   "--pose", str(data / "clip_000.pose"), "--out", str(r_path)) == 0
        assert run("--config", str(cfg), "align", "--ckpt", str(ckpt),
                   "--rhythm", str(r_path), "--out", str(a_path)) == 0
        model = checkpoint.load_model(ckpt)
        p = pose.load_pose_sequence(data / "clip_000.pose")
        want = flowgen.rhythm_condition_tensor(flowgen.rhythm_input(p, model), model).data
        assert np.array_equal(rhythm.load_rhythm(a_path).data, want)


class TestConfigValues:
    @pytest.mark.parametrize("line, needle", [
        ("fps = nan", "fps must be finite"),
        ("duration_s = inf", "duration_s must be finite"),
        ("duration_s = 1e300", "> 2^16 frames"),
        ("duration_s = 2185.0", "> 2^16 frames"),
        ("learning_rate = nan", "learning_rate must be finite"),
        ("adam_beta2 = 1.0", "adam_beta2 must be in [0, 1)"),
        ("noise_std = -0.1", "noise_std must be >= 0"),
        ("rel_threshold = 1.5", "rel_threshold must be in [0, 1]"),
        ("base_period = 1.5", "base_period must be >= 2"),
    ])
    def test_bad_float_is_one_error_line(self, tmp_path, capsys, line, needle):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc, err = run_err(capsys, "--config", str(cfg), "synth", "--out", str(tmp_path / "d"),
                          "--n-clips", "1")
        assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), err
        assert needle in err[0]
        assert not (tmp_path / "d").exists()

    def test_longest_clip_still_accepted(self):
        RunConfig(duration_s=2184.0, fps=30.0)  # 65520 frames


class TestParseErrorsNameTheFile:
    def test_bad_generated_latent(self, tmp_path, cfg_file, capsys):
        data = tmp_path / "data"
        assert run("--config", cfg_file, "synth", "--out", str(data), "--n-clips", "2") == 0
        bad = data / "clip_001.latent"
        bad.write_text("10 x\n")
        rc, err = run_err(capsys, "--config", cfg_file, "evaluate",
                          "--data", str(data), "--generated", str(data))
        assert rc == 1 and len(err) == 1, err
        assert err[0].startswith(f"error: {bad}: line 1: bad header: "), err


class TestManifest:
    """A manifest names each clip once, as a plain file name in `--data`."""

    @pytest.mark.parametrize("names, fault", [
        (["clip_000", "clip_001", "clip_000"], "line 3: clip 'clip_000': line 1 named it first"),
        (["clip_000", "../other/clip_001"],
         "line 2: clip '../other/clip_001': it is not a file name"),
    ], ids=["twice", "path"])
    def test_refused_before_training(self, tmp_path, cfg_file, capsys, names, fault):
        data, other, ckpt = tmp_path / "data", tmp_path / "other", tmp_path / "model"
        for d in (data, other):  # every named clip's files exist
            assert run("--config", cfg_file, "synth", "--out", str(d), "--n-clips", "2") == 0
        manifest = data / "manifest.txt"
        manifest.write_text("".join(f"{n} tempo=120.0\n" for n in names))
        rc, err = run_err(capsys, "--config", cfg_file, "train", "--data", str(data),
                          "--out", str(ckpt))
        assert rc == 1 and err == [f"error: {manifest}: {fault}"], err
        assert list(tmp_path.glob("model*")) == []
