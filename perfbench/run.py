"""drsim benchmark: the pipeline stages driven through `drsim.cli.main`.

    python3 perfbench/run.py --workload gam_accept --seed 1 --seconds 30 --trace 0

One process acts as one closed-loop client: each stage call starts only
after the previous one returned. There is no thread pool, and BLAS keeps its
default thread count. The workload seed goes into the config's `seed`, so
drsim sees only the inputs it generates itself.

With `--trace 0` a run imports drsim, runs the workload's set-up stages
SETUP_REPEATS times (each in a fresh run directory), then repeats the
measured stages with `--force` while another pass fits into `--seconds`
(at least one pass). It reports the end-to-end metrics.

With `--trace 1` it runs the set-up once and the measured stages twice,
untraced and then traced, with drsim's functions wrapped from outside
(see tracing.py). It reports the per-layer metrics and checks that both
passes wrote byte-identical outputs.

Every run checks the outputs; the last line of stdout is the result JSON.
BENCHMARK.json at the repository root lists the workloads and metrics with
their bounds; README.md here gives the workload rationale and which layer
metric should move which end-to-end metric.
"""

import argparse
import contextlib
import ctypes
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
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 2
STAGES = ("synth", "ingest", "cluster", "train", "generate", "evaluate", "scenario")
# patience >= max_epochs turns early stopping off, so every restart trains the
# same number of epochs whatever the seed
FIXED_EPOCHS_CVAE = {"restarts": 2, "max_epochs": 2000, "patience": 2000}
ACCEPTANCE_HOUSEHOLDS = {"morning_saver": 13, "evening_cutter": 13, "flatline": 12,
                         "storage_heavy": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    households: dict
    std_households: int
    setup: tuple
    measured: tuple
    generator: str = "gam"         # trained, sampled, scored and used for scenarios
    cvae: dict = field(default_factory=dict)
    n_days: int = 120
    train_fraction: float = 0.75
    k: int = 4
    nmf_rank: int = 5
    n_samples: int = 200
    scenarios: tuple = ("normal", "low_morning", "high_evening")

    def config(self, seed, out):
        """Run configuration as JSON text, which YAML parses unchanged."""
        return json.dumps({
            "seed": seed,
            "out": str(out),
            "synth": {"n_days": self.n_days, "households": self.households,
                      "std_households": self.std_households},
            "ingest": {"train_fraction": self.train_fraction},
            "cluster": {"k": self.k, "nmf_rank": self.nmf_rank},
            "train": {"generators": [self.generator], "cvae": self.cvae},
            "evaluate": {"n_samples": self.n_samples},
            "scenario": {"generator": self.generator,
                         "scenarios": list(self.scenarios), "n_samples": self.n_samples},
        }, indent=1)


WORKLOADS = {
    w.name: w for w in (
        Workload("gam_accept", ACCEPTANCE_HOUSEHOLDS, 5,
                 setup=("synth",), measured=STAGES[1:]),
        Workload("cvae_accept", ACCEPTANCE_HOUSEHOLDS, 5,
                 setup=STAGES[:3], measured=STAGES[3:],
                 generator="cvae", cvae=FIXED_EPOCHS_CVAE),
        Workload("wide_cluster",
                 {"morning_saver": 50, "evening_cutter": 50, "flatline": 50,
                  "storage_heavy": 50}, 0,
                 setup=("synth",), measured=("ingest", "cluster")),
    )
}

# per-layer metric -> span names whose durations it sums
SPAN_TOTALS = {
    "pipeline.write_samples_csv_s": ("pipeline.write_samples_csv",),
    "synthdata.generate_population_s": ("synthdata.generate_population",),
    "synthdata.write_csv_s": ("synthdata.write_consumption_csv",
                              "synthdata.write_temperature_csv",
                              "synthdata.write_ground_truth_csv"),
    "dataio.read_consumption_csv_s": ("dataio.read_consumption_csv",),
    "dataio.prepare_dataset_s": ("dataio.prepare_dataset",),
    "dataio.load_prepared_s": ("dataio.load_prepared",),
    "splines.penalized_lstsq_s": ("splines.penalized_lstsq",),
    "splines.design_s": ("splines.CubicSplineBasis.design",),
    "causality.fit_entity_s": ("causality.fit_entity",),
    "causality.tariff_profile_s": ("causality.tariff_profile",),
    "clustering.nmf_s": ("clustering.nmf_factorize",),
    "clustering.kmedoids_s": ("clustering.kmedoids",),
    "clustering.score_variants_s": ("clustering.score_variants",),
    "gamgen.fit_s": ("gamgen.fit_gam_generator",),
    "gamgen.sample_s": ("gamgen.GamGenerator.sample",),
    "gamgen.mean_profile_s": ("gamgen.GamGenerator.mean_profile",),
    "gamgen.load_s": ("gamgen.load_generator",),
    "gamgen.save_s": ("gamgen.save_generator",),
    "neuralgen.train_cvae_s": ("neuralgen.train_cvae",),
    "neuralgen.adam_step_s": ("neuralgen.adam_step",),
    "neuralgen.loss_and_grads_s": ("neuralgen.cvae_loss_and_grads",),
    "neuralgen.generate_s": ("neuralgen.generate",),
    "metrics.evaluate_generators_s": ("metrics.evaluate_generators",),
    "metrics.variogram_score_s": ("metrics.variogram_score",),
    "metrics.energy_score_s": ("metrics.energy_score",),
    "metrics.write_report_s": ("metrics.write_report_csv",),
}
SELF_TIMES = {
    "causality.fit_entity_self_s": "causality.fit_entity",
    "gamgen.fit_self_s": "gamgen.fit_gam_generator",
}
CALLS = {
    "dataio.load_prepared_calls": "dataio.load_prepared",
    "splines.penalized_lstsq_calls": "splines.penalized_lstsq",
    "splines.design_calls": "splines.CubicSplineBasis.design",
    "causality.fit_entity_calls": "causality.fit_entity",
    "clustering.kmedoids_calls": "clustering.kmedoids",
    "gamgen.sample_calls": "gamgen.GamGenerator.sample",
    "gamgen.load_calls": "gamgen.load_generator",
    "neuralgen.restarts": "neuralgen._train_once",
    "neuralgen.adam_steps": "neuralgen.adam_step",
    "neuralgen.generate_calls": "neuralgen.generate",
    "metrics.variogram_calls": "metrics.variogram_score",
}
# frequent calls: per-call p50 and the highest of p99.9/p99/p90/p50 that
# leaves at least ten samples above it (0 when fewer than 20 calls)
TAILS = {
    "splines.design": "splines.CubicSplineBasis.design",
    "splines.penalized_lstsq": "splines.penalized_lstsq",
    "causality.fit_entity": "causality.fit_entity",
    "gamgen.sample": "gamgen.GamGenerator.sample",
    "neuralgen.adam_step": "neuralgen.adam_step",
    "neuralgen.loss_and_grads": "neuralgen.cvae_loss_and_grads",
    "metrics.variogram_score": "metrics.variogram_score",
}
COUNTED = ("dataio.rows_read", "dataio.bytes_read", "splines.ridge_fallbacks",
           "clustering.nmf_iterations", "neuralgen.restarts_failed", "pipeline.bytes_written")


def percentile(ordered, p):
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def layer_metrics(tracer):
    durations, self_s = tracing.summarize(tracer.spans)
    out = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = (sum(durations.get(f"pipeline.{stage}", [])), "s")
    for metric, names in SPAN_TOTALS.items():
        out[metric] = (sum(sum(durations.get(n, [])) for n in names), "s")
    for metric, name in SELF_TIMES.items():
        out[metric] = (self_s.get(name, 0.0), "s")
    for metric, name in CALLS.items():
        out[metric] = (len(durations.get(name, [])), "count")
    for metric in COUNTED:
        out[metric] = (tracer.counts.get(metric, 0), "bytes" if "bytes" in metric else "count")
    for prefix, name in TAILS.items():
        ordered = sorted(durations.get(name, []))
        p = tail_percentile(len(ordered))
        out[f"{prefix}_p50_ms"] = (percentile(ordered, 50) * 1e3 if ordered else 0.0, "ms")
        out[f"{prefix}_tail_ms"] = (percentile(ordered, p) * 1e3 if p else 0.0, "ms")
    restarts = durations.get("neuralgen._train_once", [])
    out["neuralgen.s_per_restart"] = (sum(restarts) / len(restarts) if restarts else 0.0, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def environment(args):
    """Machine, library and BLAS-thread facts recorded with every result."""
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = []
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        blas.append(entry)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


class Runner:
    """Runs one workload's stages in a run directory and checks their outputs."""

    def __init__(self, cli, workload, seed, log):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.log = log
        self.stage_times = []      # (stage, seconds) for every call, in order

    def stage(self, out, stage, force, tracer=None):
        """One `drsim <stage>` call; returns the paths it reports as written."""
        argv = [stage, "--config", str(out / "config.yaml")]
        if force:
            argv.append("--force")
        if stage in STAGES[3:]:
            argv += ["--generator", self.workload.generator]
        stdout = io.StringIO()
        span = tracer.span(f"pipeline.{stage}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = self.cli.main(argv)
        self.stage_times.append((stage, time.perf_counter() - start))
        self.log.check(code == 0, f"drsim {stage} exited {code}")
        written = [Path(line) for line in stdout.getvalue().splitlines()
                   if line and not line.endswith("(use --force)")]
        if tracer:
            tracer.counts["pipeline.bytes_written"] += sum(
                p.stat().st_size for p in written if p.is_file())
        return written

    def stages(self, out, stages, force, tracer=None):
        """Run `stages` in order; returns (wall seconds, paths written)."""
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.yaml").write_text(self.workload.config(self.seed, out))
        written = []
        start = time.perf_counter()
        for stage in stages:
            written += self.stage(out, stage, force, tracer)
        elapsed = time.perf_counter() - start
        labels = checks.cluster_labels(out) if (out / "assignments.csv").exists() else []
        checks.check_outputs(self.log, out, self.workload, stages, labels)
        return elapsed, written


def untraced(runner, work, seconds, import_s):
    """End-to-end metrics: repeated set-up, then measured passes."""
    w = runner.workload
    setups = [runner.stages(work / f"setup{i}", w.setup, force=False)[0]
              for i in range(SETUP_REPEATS)]
    out = work / "setup0"
    passes = []
    while not passes or sum(passes) + max(passes) <= seconds:
        passes.append(runner.stages(out, w.measured, force=True)[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": (statistics.median(passes), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cluster_ari": (checks.cluster_ari(out), "ratio"),
    }
    print(json.dumps({"passes_s": passes, "setups_s": setups, "import_s": import_s,
                      "stages_s": runner.stage_times}))
    return metrics


def traced(runner, work):
    """Per-layer metrics from a traced pass, checked against an untraced one."""
    w = runner.workload
    out = work / "traced"
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        tracer.run_id = "setup"
        runner.stages(out, w.setup, force=False, tracer=tracer)
    plain_s, written = runner.stages(out, w.measured, force=True)
    before = checks.digests(written)
    with tracing.patched(tracer):
        tracer.run_id = "measured"
        traced_s, written = runner.stages(out, w.measured, force=True, tracer=tracer)
    after = checks.digests(written)
    reports = sorted(n for n in before if n.startswith("report_cluster"))
    runner.log.check(
        before == after and (reports or "evaluate" not in w.measured),
        f"traced outputs differ from untraced: "
        f"{sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))}")
    metrics = layer_metrics(tracer)
    labels = checks.cluster_labels(out)
    energy, variogram = (checks.report_means(out, labels) if "evaluate" in w.measured
                         else (0.0, 0.0))
    metrics["metrics.energy_mean"] = (energy, "score")
    metrics["metrics.variogram_mean"] = (variogram, "score")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    tracing.write_spans(tracer.spans, WORK / f"spans-{w.name}-{runner.seed}.csv.gz")
    print(json.dumps({"untraced_s": plain_s, "traced_s": traced_s,
                      "spans": len(tracer.spans), "outputs_compared": len(before)}))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drsim" / "cli.py").is_file():
        print(f"drsim sources not found under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from drsim import cli
    import_s = time.perf_counter() - start

    print(json.dumps({"environment": environment(args)}))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    log = checks.CheckLog()
    runner = Runner(cli, workload, args.seed, log)
    metrics = {}
    try:
        if args.trace:
            metrics = traced(runner, work)
        else:
            metrics = untraced(runner, work, args.seconds, import_s)
    except Exception:  # a crash inside drsim or the checks fails the run, with its traceback
        log.check(False, traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in log.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
