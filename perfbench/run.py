"""Benchmark of dancebeat's train, generate, inspect and evaluate commands.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Run from the repository root. One process per run: it imports the program
from ./src, synthesizes the workload's train and eval directories from
--seed, then repeats rounds of train -> generate -> inspect -> evaluate,
each command called in-process through `dancebeat.cli.main`, until
--seconds have passed. Every output of every round is checked (checks.py).
The last line of stdout is one JSON object; the lines before it give
machine facts, a host-speed calibration, per-kind operation counts and the
tails of every timing. --trace 1 is a separate run that alternates
untraced and traced rounds and reports per-layer figures from the traced
ones (tracing.py). See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.cfg"))

# Input make-up, the same in every workload (epochs is in the .cfg files).
TRAIN_CLIPS = 4
EVAL_CLIPS = 2
EVAL_SEED_OFFSET = 1_000_003  # the eval directory's synth seed is --seed + this
SETUP_REPS = 5  # setup_s takes the median import and synth times over these
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, dancebeat.cli; print(time.perf_counter() - t)")
OP_KINDS = ("synth", "train", "generate", "inspect", "evaluate", "check")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class OpFailed(Exception):
    pass


def machine_facts() -> dict:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    loaded = set()
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as f:
            loaded = {Path(line.split()[-1]).name for line in f
                      if "blas" in line.lower() or "mkl" in line.lower()}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_loaded": sorted(loaded),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def calibrate(reps: int = 5, iters: int = 300) -> float:
    """Rate of a fixed loop of small numpy ops and Python arithmetic that
    shares no code with the program, in thousands of iterations per second.
    A shift here between runs is the host, not the program."""
    a = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)  # too small for BLAS threads
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(iters):
            b = np.tanh(0.01 * (a @ a)) + np.sort(a, axis=1)
            acc += float(b[i % 16].sum()) + sum(k * 0.5 for k in range(32))
        rates.append(iters / (time.perf_counter() - t0) / 1e3)
    return statistics.median(rates)


def tail(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"p50={statistics.median(values):.4g} n={n}"
    if n >= 40:
        for p in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n * (1 - p / 100) >= 10:
                return text + f" p{p:g}={np.percentile(values, p):.4g}"
    return text + " (too few samples for a tail)"


class Bench:
    """One run's program calls, operation counts, timing samples and checks."""

    def __init__(self, cfg_file: Path, cfg, seed: int, work: Path, tracer, cli_main):
        self.cfg_file, self.cfg, self.seed = cfg_file, cfg, seed
        self.data = work / "data"
        self.tracer, self.cli_main = tracer, cli_main
        self.ops = {k: [0, 0] for k in OP_KINDS}
        self.wall = defaultdict(float)
        self.cpu = defaultdict(float)
        # seconds per timed operation, untraced rounds only: wall and process CPU
        self.samples = {"wall": defaultdict(list), "cpu": defaultdict(list)}
        self.first_bytes: dict[str, bytes] = {}
        self.round_wall = 0.0
        self.train_dir = self.data / "train"
        self.eval_dir = self.data / "eval"
        self.clip_ids = [f"clip_{i:03d}" for i in range(EVAL_CLIPS)]

    # -- calling the program ------------------------------------------------

    def cli(self, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        argv = ["--config", str(self.cfg_file), *map(str, argv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli_main(argv)
        if rc != 0:
            raise OpFailed(f"dancebeat {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def op(self, kind: str, fn, units: int = 1):
        """Run one operation; returns (result, wall seconds, CPU seconds)."""
        self.ops[kind][0] += 1
        span = self.tracer.begin(kind, units)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        except Exception:
            self.ops[kind][1] += 1
            raise
        finally:
            self.tracer.finish(span)
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if not self.tracer.enabled:
            self.wall[kind] += dt
            self.cpu[kind] += dc
        return result, dt, dc

    def timed(self, kind: str, fn):
        """An operation whose times are samples of `kind` (untraced rounds only)."""
        result, dt, dc = self.op(kind, fn)
        if not self.tracer.enabled:
            self.samples["wall"][kind].append(dt)
            self.samples["cpu"][kind].append(dc)
        self.round_wall += dt
        return result

    def check(self, fn) -> None:
        self.op("check", fn)

    def same_as_first(self, *paths: Path) -> None:
        """Each file is byte-identical to the first one seen under its name."""
        for p in paths:
            key = f"{p.parent.name}/{p.name}"
            b = p.read_bytes()
            ref = self.first_bytes.setdefault(key, b)
            checks.require(b == ref, f"{key} differs from the first one written")

    # -- phases ---------------------------------------------------------------

    def import_times(self) -> list[float]:
        """What importing numpy and the program costs a fresh interpreter."""
        return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                     capture_output=True, text=True, check=True,
                                     timeout=120).stdout)
                for _ in range(SETUP_REPS)]

    def setup(self) -> list[float]:
        """Synthesize both directories SETUP_REPS times and check them;
        returns the wall time of each repetition."""
        times = []
        for rep in range(SETUP_REPS):
            d = self.data / f"setup{rep}"
            t0 = time.perf_counter()
            self.op("synth", lambda: self.cli("--seed", self.seed, "synth", "--out", d / "train",
                                              "--n-clips", TRAIN_CLIPS), units=TRAIN_CLIPS)
            self.op("synth", lambda: self.cli("--seed", self.seed + EVAL_SEED_OFFSET, "synth",
                                              "--out", d / "eval", "--n-clips", EVAL_CLIPS),
                    units=EVAL_CLIPS)
            times.append(time.perf_counter() - t0)
        for rep in range(SETUP_REPS):
            for sub in ("train", "eval"):
                d = self.data / f"setup{rep}" / sub
                self.check(lambda: self.same_as_first(*sorted(d.iterdir())))
        for sub in ("train", "eval"):
            (self.data / "setup0" / sub).rename(self.data / sub)
        for rep in range(SETUP_REPS):
            shutil.rmtree(self.data / f"setup{rep}")
        self.first_bytes.clear()
        for d, n in ((self.train_dir, TRAIN_CLIPS), (self.eval_dir, EVAL_CLIPS)):
            self.check(lambda: self.truth_scores(d, n))
        return times

    def truth_scores(self, d: Path, n: int) -> None:
        """The synthetic truth latents, scored as if generated, hit every beat."""
        report = self.data / f"truth_{d.name}.txt"
        self.cli("evaluate", "--data", d, "--generated", d, "--report", report)
        rows = checks.generated_report(
            report, d, d, [f"clip_{i:03d}" for i in range(n)], self.cfg.latent_len,
            self.cfg.rel_threshold, self.cfg.window_latent)
        checks.truth_latents(rows, d, self.cfg.latent_len, self.cfg.rel_threshold)

    def round(self) -> float:
        """One round of timed operations, then its checks; returns the
        round's timed wall seconds."""
        c, cfg, data = checks, self.cfg, self.data
        model, gen, insp, rep = data / "model", data / "gen", data / "insp", data / "rep"
        for d in (gen, insp, rep):
            d.mkdir(exist_ok=True)
        self.round_wall = 0.0

        out = self.timed("train", lambda: self.cli("train", "--data", self.train_dir,
                                                   "--out", model))
        for cid in self.clip_ids:
            src = self.eval_dir / cid
            self.timed("generate", lambda: self.cli(
                "generate", "--ckpt", model, "--pose", f"{src}.pose", "--cond", f"{src}.cond",
                "--out", gen / f"{cid}.latent", "--wav", gen / f"{cid}.wav"))
        for cid in self.clip_ids:
            src = self.eval_dir / cid
            self.timed("inspect", lambda: (
                self.cli("extract", "--ckpt", model, "--pose", f"{src}.pose",
                         "--out", insp / f"{cid}.rhythm"),
                self.cli("align", "--ckpt", model, "--rhythm", insp / f"{cid}.rhythm",
                         "--out", insp / f"{cid}.arhythm")))
        self.timed("evaluate", lambda: self.cli(
            "evaluate", "--data", self.eval_dir, "--ckpt", model, "--report", rep / "ckpt.txt"))

        self.check(lambda: c.train_output(out))
        self.check(lambda: self.same_as_first(model.with_suffix(".manifest"),
                                              model.with_suffix(".bin")))
        for cid in self.clip_ids:
            pose_path = self.eval_dir / f"{cid}.pose"
            self.check(lambda: (
                c.wav_file(gen / f"{cid}.wav",
                           c.latent_file(gen / f"{cid}.latent", cfg.latent_len, cfg.latent_dim),
                           pose_path, cfg.rel_threshold),
                self.same_as_first(gen / f"{cid}.latent", gen / f"{cid}.wav")))
            self.check(lambda: (
                c.inspect_files(insp / f"{cid}.rhythm", insp / f"{cid}.arhythm", pose_path,
                                cfg.latent_len),
                self.same_as_first(insp / f"{cid}.rhythm", insp / f"{cid}.arhythm")))
        self.check(lambda: (
            c.ckpt_report(rep / "ckpt.txt", self.eval_dir, self.clip_ids, cfg.latent_len),
            self.same_as_first(rep / "ckpt.tsv")))
        self.check(lambda: (
            self.cli("evaluate", "--data", self.eval_dir, "--generated", gen,
                     "--report", rep / "gen.txt"),
            c.generated_report(rep / "gen.txt", self.eval_dir, gen, self.clip_ids,
                               cfg.latent_len, cfg.rel_threshold, cfg.window_latent)))
        return self.round_wall


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")  # numpy's generators refuse negative seeds
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dancebeat" / "cli.py").is_file():
        print(f"error: the program's source is not at {SRC / 'dancebeat'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dancebeat
    from dancebeat.cli import main as cli_main
    from dancebeat.config import load_config

    import tracing

    if Path(dancebeat.__file__).resolve().parent != (SRC / "dancebeat").resolve():
        print(f"error: imported dancebeat from {dancebeat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (work / "data").mkdir(parents=True)
    cfg_file = HERE / "workloads" / f"{args.workload}.cfg"
    tracer = tracing.Tracer(enabled=bool(args.trace))  # on during setup: pose.synth_ms
    bench = Bench(cfg_file, load_config(cfg_file), args.seed, work, tracer, cli_main)
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts}
    error = None
    round_walls = {False: [], True: []}
    try:
        import_times = bench.import_times()
        setup_times = bench.setup()
        tracer.enabled = False
        record["calibration_start_kiter_per_s"] = calibrate()
        # whole rounds (whole untraced+traced pairs with --trace 1), started
        # only while the last one would still fit in --seconds
        t_end = time.perf_counter() + args.seconds
        n = 0
        while True:
            t_round = time.perf_counter()
            traced_round = bool(args.trace) and n % 2 == 1
            tracer.enabled = traced_round
            with tracing.traced(tracer) if traced_round else contextlib.nullcontext():
                round_walls[traced_round].append(bench.round())
            tracer.enabled = False
            n += 1
            now = time.perf_counter()
            if (not args.trace or n % 2 == 0) and now + (1 + args.trace) * (now - t_round) > t_end:
                break
        record["calibration_end_kiter_per_s"] = calibrate()
    except Exception as e:  # every failure is reported, then the run exits 1
        error = f"{type(e).__name__}: {e}"
    finally:
        tracer.enabled = False
        shutil.rmtree(work / "data", ignore_errors=True)

    attempted = sum(a for a, _ in bench.ops.values())
    failed = sum(f for _, f in bench.ops.values())
    print("operations (attempted/failed): " + ", ".join(
        f"{k} {a}/{f}" for k, (a, f) in bench.ops.items()))
    if error is not None:
        print(f"FAILED: {error}")
        print(f"FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    print(f"calibration: {record['calibration_start_kiter_per_s']:.4g} kiter/s at start, "
          f"{record['calibration_end_kiter_per_s']:.4g} at end")
    print("cpu s per wall s: " + ", ".join(
        f"{k} {bench.cpu[k] / bench.wall[k]:.2f}" for k in OP_KINDS if bench.wall[k] > 0))
    print(f"rounds: {len(round_walls[False])} untraced, {len(round_walls[True])} traced")
    for clock, by_kind in bench.samples.items():
        for kind, seconds in by_kind.items():
            print(f"timing {kind} {clock} (s): {tail(seconds)}")

    s = bench.samples
    if args.trace:
        med_on = statistics.median(round_walls[True])
        med_off = statistics.median(round_walls[False])
        print(f"tracing overhead: {1e3 * (med_on - med_off):.1f} ms per round "
              f"({100 * (med_on / med_off - 1):.1f}% of {1e3 * med_off:.0f} ms), "
              f"{len(tracer.spans)} spans")
        for name, calls, total, self_ms in tracer.self_time_table()[:20]:
            print(f"span {name:<28} calls {calls:>6} total {total:>10.1f} ms "
                  f"self {self_ms:>10.1f} ms")
        tracer.dump(work / "spans.jsonl")
        layers = tracing.layer_metrics(tracer, bench.cfg.steps)
        layers["flowgen.train_cpu_per_wall"] = (bench.cpu["train"] / bench.wall["train"],
                                                "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["tracing_overhead_s"] = med_on - med_off
    else:
        # gated timings are CPU-time means over the run: see README.md,
        # "Why CPU time, and why means"
        cpu = s["cpu"]
        clip_steps = TRAIN_CLIPS * bench.cfg.epochs
        metrics = {
            "setup_s": {"value": statistics.median(import_times) + statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "train_clip_steps_per_cpu_s": {
                "value": clip_steps * len(cpu["train"]) / sum(cpu["train"]),
                "unit": "clip-steps/cpu-s"},
            "generate_cpu_ms_mean": {"value": 1e3 * statistics.fmean(cpu["generate"]),
                                     "unit": "ms"},
            "inspect_cpu_ms_mean": {"value": 1e3 * statistics.fmean(cpu["inspect"]), "unit": "ms"},
            "evaluate_clips_per_cpu_s": {
                "value": EVAL_CLIPS * len(cpu["evaluate"]) / sum(cpu["evaluate"]),
                "unit": "clips/cpu-s"},
        }
        wall = s["wall"]
        print(f"wall-time means (reference): train "
              f"{clip_steps * len(wall['train']) / sum(wall['train']):.4g} clip-steps/s, "
              f"generate {1e3 * statistics.fmean(wall['generate']):.4g} ms, "
              f"inspect {1e3 * statistics.fmean(wall['inspect']):.4g} ms, "
              f"evaluate {EVAL_CLIPS * len(wall['evaluate']) / sum(wall['evaluate']):.4g} clips/s")
        record["setup"] = {"import_s": import_times, "synth_s": setup_times}
    record.update(ops=bench.ops, samples=s, metrics=metrics,
                  round_walls={"untraced": round_walls[False], "traced": round_walls[True]})
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
