import csv
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import drsim
from drsim import causality, cli, clustering, metrics, neuralgen, parallel, pipeline, synthdata
from drsim.dataio import HALF_HOURS


CONFIG = """\
seed: 21
out: {out}
synth:
  n_days: 40
  households: {{morning_saver: 3, flatline: 3}}
  std_households: 1
cluster:
  k: 2
  nmf_rank: 3
train:
  generators: [gam]
evaluate:
  n_samples: 20
scenario:
  generator: gam
  n_samples: 16
"""

CVAE_CONFIG = CONFIG.replace(
    "  generators: [gam]\n",
    "  generators: [gam, cvae]\n  cvae: {{restarts: 1, max_epochs: 20}}\n",
)


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG.format(out=tmp_path / "run"))
    return tmp_path, cfg


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete pipeline shared by the read-only assertions."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "cfg.yaml"
    cfg.write_text(CONFIG.format(out=tmp / "run"))
    for stage in ("synth", "ingest", "cluster", "train", "generate", "evaluate", "scenario"):
        assert run_cli(stage, "--config", str(cfg)) == 0
    return tmp, cfg


@pytest.fixture(scope="module")
def cvae_run(tmp_path_factory):
    """Both generators, the CVAE kept tiny, with scenarios from the CVAE."""
    tmp = tmp_path_factory.mktemp("cli_cvae")
    cfg = tmp / "cfg.yaml"
    cfg.write_text(CVAE_CONFIG.format(out=tmp / "run"))
    for stage in ("synth", "ingest", "cluster", "train", "generate", "evaluate"):
        assert run_cli(stage, "--config", str(cfg)) == 0
    assert run_cli("scenario", "--config", str(cfg), "--generator", "cvae") == 0
    return tmp, cfg


def read_samples(path):
    """samples_*.csv as {day: (n, 48) ensemble}, checking header and row order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["day", "sample", "h", "kwh"]
        rows = np.array([[float(v) for v in row] for row in reader])
    ensembles = {}
    for day in dict.fromkeys(rows[:, 0].astype(int)):
        block = rows[rows[:, 0] == day]
        n = len(block) // HALF_HOURS
        assert np.array_equal(block[:, 1], np.repeat(np.arange(n), HALF_HOURS))
        assert np.array_equal(block[:, 2], np.tile(np.arange(1, HALF_HOURS + 1), n))
        ensembles[int(day)] = block[:, 3].reshape(n, HALF_HOURS)
    return ensembles


def assert_samples_are_scored(run, generator, n_samples):
    """The ensembles on disk reproduce the report's scores exactly."""
    ds, clusters = pipeline._cluster_inputs(pipeline.RunPaths(run))
    test_days = [int(t) for t in ds.partition.test]
    for label, bundle in clusters.items():
        ensembles = read_samples(run / f"samples_{generator}_cluster{label}.csv")
        assert list(ensembles) == test_days
        report = metrics.read_report_csv(run / f"report_cluster{label}.csv")
        rows = [r for r in report.rows if r.generator == generator]
        assert [r.day for r in rows] == test_days
        for row in rows:
            ensemble = ensembles[row.day]
            assert ensemble.shape == (n_samples, HALF_HOURS)
            y = bundle["series"][row.day]
            assert metrics.energy_score(ensemble, y) == row.energy
            assert metrics.rmse(ensemble, y) == row.rmse


class TestStages:
    def test_outputs_exist(self, full_run):
        tmp, _ = full_run
        run = tmp / "run"
        for name in (
            "consumption.csv", "temperature.csv", "ground_truth.csv",
            "prepared.npz", "profiles.csv", "assignments.csv", "cluster_scores.json",
        ):
            assert (run / name).exists(), name
        assert list(run.glob("gam_cluster*.npz"))
        assert list(run.glob("report_cluster*.csv"))
        assert list(run.glob("summary_cluster*.csv"))
        assert list(run.glob("scenario_*_gam_cluster*.csv"))

    def test_report_header_and_days(self, full_run):
        tmp, _ = full_run
        report_path = sorted((tmp / "run").glob("report_cluster*.csv"))[0]
        lines = report_path.read_text().splitlines()
        assert lines[0] == "day,generator,rmse,energy,variogram_p05"
        report = metrics.read_report_csv(report_path)
        days = sorted({row.day for row in report.rows})
        assert len(days) == 10  # 25% of 40 days held out
        assert report.generator_names() == ["gam"]

    def test_cluster_scores_structure(self, full_run):
        tmp, _ = full_run
        scores = json.loads((tmp / "run" / "cluster_scores.json").read_text())
        ch = scores["calinski_harabasz"]
        assert set(ch) == {"nmf_kmedoids", "random", "classical_features"}
        for variants in ch.values():
            assert set(variants) == {"raw", "normalized", "special"}
        assert scores["nmf_error_last"] <= scores["nmf_error_first"]
        assert len(scores["medoids"]) == 2

    def test_generate_writes_scored_ensembles(self, full_run):
        tmp, _ = full_run
        run = tmp / "run"
        paths = sorted(run.glob("samples_gam_cluster*.csv"))
        assert len(paths) == 2
        for path in paths:
            with open(path) as fh:
                assert fh.readline().strip() == "day,sample,h,kwh"
                assert sum(1 for _ in fh) == 10 * 20 * HALF_HOURS
        assert_samples_are_scored(run, "gam", 20)

    def test_partial_scenario_rerun_writes_the_full_runs_bytes(self, full_run, tmp_path, capsys):
        tmp, cfg = full_run
        run = tmp_path / "run"
        shutil.copytree(tmp / "run", run)
        full = {p.name: p.read_bytes() for p in run.iterdir()}
        # low_morning is the second scenario, so its seed is not its place among the stale
        rewritten = [run / "scenario_low_morning_gam_cluster1_mean.csv",
                     run / "scenario_low_morning_gam_cluster1.csv"]
        for path in rewritten:
            path.unlink()
        kept = {p: p.stat().st_mtime_ns for p in run.iterdir()}
        capsys.readouterr()
        assert run_cli("scenario", "--config", str(cfg), "--out", str(run)) == 0
        assert capsys.readouterr().out.splitlines() == [str(p) for p in rewritten]
        assert {p: p.stat().st_mtime_ns for p in kept} == kept
        assert {p.name: p.read_bytes() for p in run.iterdir()} == full

    def test_cached_stage_skips(self, full_run, capsys):
        _, cfg = full_run
        assert run_cli("ingest", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "nothing to do" in out

    def test_synth_refuses_overwrite(self, full_run, capsys):
        _, cfg = full_run
        assert run_cli("synth", "--config", str(cfg)) == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["type"] == "PipelineError"
        assert "--force" in payload["error"]

    def test_failed_stage_keeps_its_traceback(self, workdir, capsys):
        tmp, cfg = workdir
        run = tmp / "run"
        assert run_cli("synth", "--config", str(cfg)) == 0
        lines = (run / "consumption.csv").read_text().splitlines(keepends=True)
        hid, ts, kwh, tariff, group = lines[11].rstrip("\r\n").split(",")
        lines[11] = f"{hid},{ts},-{kwh},{tariff},{group}\r\n"
        (run / "consumption.csv").write_text("".join(lines), newline="")
        capsys.readouterr()
        assert run_cli("ingest", "--config", str(cfg)) == 2
        out, err = capsys.readouterr()
        message = f"line 12: negative kwh {-float(kwh)!r}"
        assert out == ""
        assert err == json.dumps({"error": message, "type": "DataValidationError"}) + "\n"
        log = (run / "error.log").read_text()
        assert log.startswith("Traceback (most recent call last):\n")
        assert log.endswith(f"drsim.dataio.DataValidationError: {message}\n")
        assert not list(run.glob(".*.tmp")) and not (run / "prepared.npz").exists()
        # a stage that succeeds removes it
        assert run_cli("synth", "--config", str(cfg), "--force") == 0
        assert not (run / "error.log").exists()

    def test_force_regenerates(self, workdir, capsys):
        tmp, cfg = workdir
        assert run_cli("synth", "--config", str(cfg)) == 0
        first = (tmp / "run" / "consumption.csv").read_bytes()
        assert run_cli("synth", "--config", str(cfg), "--force") == 0
        assert (tmp / "run" / "consumption.csv").read_bytes() == first

    def test_seed_override_changes_data(self, workdir):
        tmp, cfg = workdir
        assert run_cli("synth", "--config", str(cfg)) == 0
        baseline = (tmp / "run" / "consumption.csv").read_bytes()
        assert run_cli("synth", "--config", str(cfg), "--seed", "99", "--force") == 0
        assert (tmp / "run" / "consumption.csv").read_bytes() != baseline


class TestCvae:
    def test_train_writes_models_and_logs(self, cvae_run):
        tmp, _ = cvae_run
        for label in (0, 1):
            assert (tmp / "run" / f"cvae_cluster{label}.npz").exists()
            log = json.loads((tmp / "run" / f"cvae_cluster{label}_restarts.json").read_text())
            assert len(log["restart_mses"]) == 1
            assert log["epochs"] <= 20
            assert np.isfinite(log["test_mse"])

    def test_restart_log_records_epochs_and_selection(self, cvae_run):
        tmp, _ = cvae_run
        for label in (0, 1):
            log = json.loads((tmp / "run" / f"cvae_cluster{label}_restarts.json").read_text())
            assert log["restart_epochs"] == [log["epochs"]]
            assert log["selected_on"] == "test"

    def test_report_scores_both_generators(self, cvae_run):
        tmp, _ = cvae_run
        for path in sorted((tmp / "run").glob("report_cluster*.csv")):
            assert metrics.read_report_csv(path).generator_names() == ["gam", "cvae"]

    def test_generate_writes_scored_ensembles(self, cvae_run):
        tmp, _ = cvae_run
        assert_samples_are_scored(tmp / "run", "cvae", 20)

    def test_scenario_uses_cvae(self, cvae_run):
        tmp, _ = cvae_run
        run = tmp / "run"
        assert not list(run.glob("scenario_*_gam_*"))
        for label in (0, 1):
            for scen in ("normal", "low_morning", "high_evening"):
                stem = run / f"scenario_{scen}_cvae_cluster{label}"
                mean = stem.with_name(stem.name + "_mean.csv").read_text().splitlines()
                assert mean[0] == "h,kwh" and len(mean) == 1 + HALF_HOURS
                ensemble = read_samples(stem.with_suffix(".csv"))
                assert len(ensemble) == 1
                assert next(iter(ensemble.values())).shape == (16, HALF_HOURS)


class TestEnsembleSeeds:
    def test_generators_share_day_seeds_and_files_hold_the_scored(
            self, cvae_run, tmp_path, monkeypatch):
        tmp, cfg = cvae_run
        run = tmp_path / "run"
        shutil.copytree(tmp / "run", run)
        drawn, scored = [], []
        ensembles, evaluate = pipeline._ensembles, metrics.evaluate_generators

        def spy_ensembles(*args):
            name, label, seeds = args[0], args[2], args[7]
            drawn.append((name, label, list(seeds)))
            return ensembles(*args)

        def spy_evaluate(observations, generators, **kwargs):
            scored.append(generators)
            return evaluate(observations, generators, **kwargs)

        monkeypatch.setattr(pipeline, "_ensembles", spy_ensembles)
        monkeypatch.setattr(metrics, "evaluate_generators", spy_evaluate)
        for stage in ("generate", "evaluate"):
            assert run_at(1, stage, "--config", str(cfg), "--out", str(run), "--force") == 0

        ds, _ = pipeline._cluster_inputs(pipeline.RunPaths(run))
        n_days = len(ds.partition.test)
        seeds = {
            label: [int(np.random.SeedSequence(
                (pipeline.derive_seed(21, pipeline.SEED_EVALUATE, label), pos)
            ).generate_state(1)[0]) for pos in range(n_days)]
            for label in (0, 1)
        }
        # generate, then evaluate: cluster by cluster, gam before cvae, the same seeds
        assert drawn == [(name, label, seeds[label])
                         for label in (0, 1) for name in ("gam", "cvae")] * 2
        assert len(scored) == 2
        for label, generators in enumerate(scored):
            assert list(generators) == ["gam", "cvae"]
            for name, days in generators.items():
                on_disk = read_samples(run / f"samples_{name}_cluster{label}.csv")
                assert np.array_equal(np.stack(list(on_disk.values())), days)


def cvae_workdir(tmp_path, cvae):
    """Synth, ingest and cluster done on the two-cluster config, CVAE set to cvae."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG.replace(
        "  generators: [gam]\n", f"  generators: [gam, cvae]\n  cvae: {{{{{cvae}}}}}\n"
    ).format(out=tmp_path / "run"))
    for stage in ("synth", "ingest", "cluster"):
        assert run_cli(stage, "--config", str(cfg)) == 0
    return tmp_path / "run", cfg


class TestCvaeStacks:
    def test_retraining_one_cluster_rewrites_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        run, cfg = cvae_workdir(tmp_path, "restarts: 2, max_epochs: 30, patience: 3")
        # first run: both clusters' restarts in one stack
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert run_cli("train", "--config", str(cfg), "--generator", "cvae") == 0
        first = {p.name: p.read_bytes() for p in run.glob("cvae_cluster*")}
        assert len(first) == 4
        epochs = [json.loads(first[f"cvae_cluster{k}_restarts.json"])["restart_epochs"]
                  for k in (0, 1)]
        assert len({e for pair in epochs for e in pair}) > 1  # stacks shrink mid-training

        # rerun: cluster 1 alone, one restart per stack where the CPUs allow it
        monkeypatch.undo()
        retrained = [run / "cvae_cluster1.npz", run / "cvae_cluster1_restarts.json"]
        for path in retrained:
            path.unlink()
        kept = {p: p.stat().st_mtime_ns for p in run.glob("cvae_cluster0*")}
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg), "--generator", "cvae") == 0
        assert capsys.readouterr().out.splitlines() == [str(p) for p in retrained]
        assert {p: p.stat().st_mtime_ns for p in run.glob("cvae_cluster0*")} == kept
        assert {p.name: p.read_bytes() for p in run.glob("cvae_cluster*")} == first

    def test_cluster_whose_restarts_all_fail_names_itself(self, tmp_path, monkeypatch, capsys):
        run, cfg = cvae_workdir(tmp_path, "restarts: 2, max_epochs: 5")
        doomed = pipeline.derive_seed(21, pipeline.SEED_CVAE, 1)
        train_stack = neuralgen._train_stack

        def cluster1_fails(jobs):
            return [(None, None, np.inf, r[3], "non-finite training loss")
                    if job[4].seed == doomed else r
                    for job, r in zip(jobs, train_stack(jobs))]

        monkeypatch.setattr(neuralgen, "_train_stack", cluster1_fails)
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "cluster 1: every restart failed: non-finite training loss",
            "type": "TrainingError",
        }
        # earlier labels are saved, and cluster 1's GAM comes before its CVAE
        assert (run / "cvae_cluster0.npz").exists() and (run / "gam_cluster1.npz").exists()
        assert not list(run.glob("cvae_cluster1*"))

        monkeypatch.undo()
        assert run_cli("train", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run / "cvae_cluster1.npz"), str(run / "cvae_cluster1_restarts.json"),
        ]


def run_at(cpus, *argv):
    """One CLI call with the usable CPUs forced to cpus."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "usable_cpus", lambda: cpus)
        return run_cli(*argv)


class TestCpuCount:
    """The per-cluster stages write the same bytes and print the same paths on any CPU count."""

    def test_one_and_two_cpus_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        base, cfg = cvae_workdir(tmp_path, "restarts: 2, max_epochs: 20")
        commands = [("train",), ("generate",), ("evaluate",), ("scenario",),
                    ("scenario", "--generator", "cvae")]
        pid_log = tmp_path / "pids.txt"
        write = pipeline.write_samples_csv

        def logged(ensembles, day_labels, path):
            with open(pid_log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            write(ensembles, day_labels, path)

        monkeypatch.setattr(pipeline, "write_samples_csv", logged)
        runs = {}
        for cpus in (1, 2):
            run = tmp_path / f"cpus{cpus}"
            shutil.copytree(base, run)
            pid_log.unlink(missing_ok=True)
            capsys.readouterr()
            printed = []
            for command in commands:
                assert run_at(cpus, *command, "--config", str(cfg), "--out", str(run)) == 0
                printed.append(capsys.readouterr().out.replace(str(run), "<run>").splitlines())
            pids = set(pid_log.read_text().split())
            if cpus == 1 or "fork" not in multiprocessing.get_all_start_methods():
                assert pids == {str(os.getpid())}
            else:
                assert str(os.getpid()) not in pids
            runs[cpus] = {p.name: p.read_bytes() for p in sorted(run.iterdir())}, printed
        (files, printed), (files2, printed2) = runs[1], runs[2]
        assert files2.keys() == files.keys()
        for name, data in files.items():
            assert files2[name] == data, name
        assert printed2 == printed
        assert [len(lines) for lines in printed] == [10, 4, 4, 12, 12]

    def test_missing_model_gives_one_error_on_any_cpu_count(self, workdir, capsys):
        tmp, cfg = workdir
        for stage in ("synth", "ingest", "cluster", "train"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        (tmp / "run" / "gam_cluster1.npz").unlink()
        capsys.readouterr()
        errors = []
        for cpus in (1, 2):
            assert run_at(cpus, "generate", "--config", str(cfg), "--generator", "gam",
                          "--force") == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert json.loads(errors[0]) == {
            "error": f"missing {tmp / 'run' / 'gam_cluster1.npz'}; "
                     "run train --generator gam first",
            "type": "PipelineError",
        }

    @pytest.mark.parametrize("stage", ["train", "generate", "evaluate", "scenario"])
    def test_rerun_with_every_output_present_maps_no_clusters(
            self, full_run, monkeypatch, capsys, stage):
        _, cfg = full_run
        calls = []
        map_forked = parallel.map_forked

        def spy(fn, items):
            calls.append(list(items))
            return map_forked(fn, items)

        monkeypatch.setattr(parallel, "map_forked", spy)
        capsys.readouterr()
        assert run_cli(stage, "--config", str(cfg)) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert calls == [[]]


class TestValidation:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("seed: 1\nturbo: true\n")
        assert run_cli("synth", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert "turbo" in payload["error"]

    def test_unknown_archetype_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("synth:\n  households: {night_owl: 3}\n")
        assert run_cli("synth", "--config", str(cfg)) == 2
        assert "night_owl" in json.loads(capsys.readouterr().err.strip())["error"]

    @pytest.mark.parametrize("n_samples", [0, 1, 21])
    def test_bad_ensemble_size_rejected(self, tmp_path, capsys, n_samples):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"evaluate:\n  n_samples: {n_samples}\n")
        assert run_cli("synth", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ConfigError"
        assert "n_samples" in payload["error"]

    @pytest.mark.parametrize("text, named", [
        pytest.param("cluster: 4\n", "cluster section", id="number-section"),
        pytest.param("train: [gam]\n", "train section", id="list-section"),
        pytest.param("train:\n  cvae: 3\n", "train.cvae section", id="number-cvae"),
        pytest.param("train:\n  cvae: {turbo: 1}\n", "turbo", id="unknown-cvae-key"),
        pytest.param("seed: abc\n", "seed", id="text-seed"),
        pytest.param("seed: 1.5\n", "seed", id="fractional-seed"),
        pytest.param("seed: true\n", "seed", id="boolean-seed"),
        pytest.param("seed: -1\n", "seed", id="negative-seed"),
        pytest.param("out: 3\n", "out", id="number-out"),
        pytest.param("out: [a, b]\n", "out", id="list-out"),
        pytest.param("scenario:\n  n_samples: 0\n", "scenario.n_samples", id="zero-scenario-samples"),
        pytest.param("scenario:\n  n_samples: -2\n", "scenario.n_samples",
                     id="negative-scenario-samples"),
        pytest.param("scenario:\n  scenarios: [normal, low_noon]\n", "scenario.scenarios",
                     id="unknown-scenario"),
        pytest.param("evaluate:\n  variogram_p: 0\n", "variogram_p", id="variogram-order"),
        pytest.param('evaluate:\n  n_samples: "20"\n', "evaluate.n_samples",
                     id="text-evaluate-samples"),
        pytest.param("evaluate:\n  n_samples: 2.0\n", "evaluate.n_samples",
                     id="fractional-evaluate-samples"),
        pytest.param("train:\n  cvae: {seed: 5}\n", "train.cvae.seed", id="cvae-seed"),
        pytest.param("train:\n  generators: [gam, gam]\n", "train.generators",
                     id="repeated-generator"),
        pytest.param("train: {generators: []}\n", "train.generators", id="no-generator"),
        pytest.param("cluster: {k: '2'}\n", "cluster.k", id="text-k"),
        pytest.param("cluster: {k: 0}\n", "cluster.k", id="zero-k"),
        pytest.param("cluster: {k: true}\n", "cluster.k", id="boolean-k"),
        pytest.param("cluster: {k: 2.0}\n", "cluster.k", id="fractional-k"),
        pytest.param("cluster: {nmf_rank: 0}\n", "cluster.nmf_rank", id="zero-nmf-rank"),
        pytest.param("cluster: {nmf_rank: -3}\n", "cluster.nmf_rank", id="negative-nmf-rank"),
        pytest.param("cluster: {nmf_rank: true}\n", "cluster.nmf_rank", id="boolean-nmf-rank"),
        pytest.param("scenario:\n  scenarios: [normal, normal]\n", "scenario.scenarios",
                     id="repeated-scenario"),
    ])
    def test_bad_section_rejected(self, tmp_path, capsys, monkeypatch, text, named):
        monkeypatch.chdir(tmp_path)           # a config taken by mistake runs synth here
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert run_cli("synth", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ConfigError"
        assert named in payload["error"]

    def test_negative_seed_flag_rejected_like_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"seed: 3\nout: {tmp_path / 'run'}\n")
        assert run_cli("synth", "--config", str(cfg), "--seed", "-1") == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ConfigError"
        assert "seed" in payload["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    @pytest.mark.parametrize("text", [
        pytest.param("train:\n", id="train"),
        pytest.param("train: {cvae: }\n", id="cvae"),
        pytest.param("cluster:\n", id="cluster"),
        pytest.param("synth:\nscenario:\n", id="synth-and-scenario"),
        pytest.param("seed:\n", id="seed"),
        pytest.param("out:\n", id="out"),
        pytest.param("seed:\nout:\ncluster:\n", id="seed-out-and-section"),
    ])
    def test_empty_section_means_its_defaults(self, tmp_path, text):
        cfg, empty = tmp_path / "c.yaml", tmp_path / "empty.yaml"
        cfg.write_text(text)
        empty.write_text("")
        assert pipeline.load_config(cfg) == pipeline.load_config(empty)

    def test_generator_flag_only_on_generator_stages(self, workdir, capsys):
        _, cfg = workdir
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--config", str(cfg), "--generator", "cvae")
        assert exc.value.code == 2
        assert "--generator" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("synth", "--config", str(tmp_path / "nope.yaml")) == 2
        assert capsys.readouterr().err.strip()

    def test_stage_before_inputs_fails_cleanly(self, workdir, capsys):
        _, cfg = workdir
        assert run_cli("cluster", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"]

    def test_cluster_error_names_household_without_normal(self, workdir, capsys):
        tmp, cfg = workdir
        assert run_cli("synth", "--config", str(cfg)) == 0
        # tou004 sees Low instead of Normal at 00:00 on every day
        consumption = tmp / "run" / "consumption.csv"
        lines = consumption.read_text().splitlines(keepends=True)
        consumption.write_text("".join(
            line.replace(",NORMAL,", ",LOW,")
            if line.startswith("tou004,") and "T00:00," in line else line
            for line in lines
        ))
        assert run_cli("ingest", "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("cluster", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {
            "error": "tou004: Normal tariff never observed in half-hour 1",
            "type": "FitError",
        }

    @pytest.mark.parametrize("setting, bad, error", [
        pytest.param("  nmf_rank: 3\n", "  nmf_rank: 7\n", "rank 7 outside 1..6", id="nmf-rank"),
        pytest.param("  k: 2\n", "  k: 7\n", "k=7 outside 1..6", id="k"),
    ])
    def test_cluster_sizes_beyond_the_tou_households_fail_before_any_fit(
            self, workdir, monkeypatch, capsys, setting, bad, error):
        # the config has 6 TOU households
        tmp, cfg = workdir
        text = cfg.read_text()
        assert setting in text
        cfg.write_text(text.replace(setting, bad))
        for stage in ("synth", "ingest"):
            assert run_cli(stage, "--config", str(cfg)) == 0

        def fit_profiles(*args, **kwargs):
            raise AssertionError("profiles were fitted")

        monkeypatch.setattr(causality, "fit_profiles", fit_profiles)
        capsys.readouterr()
        assert run_cli("cluster", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": error, "type": "ClusteringError"}
        run = tmp / "run"
        assert not (run / "profiles.csv").exists()
        assert not [p for p in run.iterdir() if p.name.startswith(".")]

    def test_generator_flag_restricts_training(self, workdir):
        tmp, cfg = workdir
        for stage in ("synth", "ingest", "cluster"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        assert run_cli("train", "--config", str(cfg), "--generator", "gam") == 0
        assert list((tmp / "run").glob("gam_cluster*.npz"))
        assert not list((tmp / "run").glob("cvae_cluster*.npz"))


def stub_files(paths, label):
    return [paths.out / f"stub_cluster{label}.json"]


def stub_fit(config, paths, ds, clusters, stale):
    """A stub third generator: each cluster's mean training-day kWh per half-hour."""
    written = {}
    for label in stale:
        path, = written[label] = stub_files(paths, label)
        level = clusters[label]["series"][ds.partition.train].mean(axis=0)
        path.write_text(json.dumps(level.tolist()))
    return written


def stub_ensembles(paths, label, ds, days, tariffs, n_samples, seeds):
    level = np.array(json.loads(stub_files(paths, label)[0].read_text()))
    return np.stack([level + np.random.default_rng(s).normal(0.0, 0.05, (n_samples, HALF_HOURS))
                     for s in seeds])


class TestGeneratorTable:
    def test_a_stub_entry_runs_through_every_generator_stage(
            self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        run = tmp / "run"
        cfg.write_text(CONFIG.replace("[gam]", "[gam, stub]").format(out=run))
        monkeypatch.setitem(pipeline.GENERATORS, "stub", (stub_files, stub_fit, stub_ensembles))
        for stage in ("synth", "ingest", "cluster"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run / name) for label in (0, 1) for name in (
                f"gam_cluster{label}.npz", f"gam_cluster{label}_coefficients.csv",
                f"gam_cluster{label}_sigma.csv", f"stub_cluster{label}.json")
        ]
        for stage in ("generate", "evaluate"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        for label in (0, 1):
            report = metrics.read_report_csv(run / f"report_cluster{label}.csv")
            assert report.generator_names() == ["gam", "stub"]
        assert_samples_are_scored(run, "stub", 20)
        capsys.readouterr()
        assert run_cli("scenario", "--config", str(cfg), "--generator", "stub") == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run / f"scenario_{scen}_stub_cluster{label}{suffix}") for label in (0, 1)
            for scen in pipeline.SCENARIO_NAMES for suffix in ("_mean.csv", ".csv")
        ]

    def test_cvae_listed_first_keeps_train_order_and_config_report_order(
            self, tmp_path, capsys):
        run, cfg = cvae_workdir(tmp_path, "restarts: 1, max_epochs: 20")
        cfg.write_text(cfg.read_text().replace("[gam, cvae]", "[cvae, gam]"))
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run / name) for label in (0, 1) for name in (
                f"gam_cluster{label}.npz", f"gam_cluster{label}_coefficients.csv",
                f"gam_cluster{label}_sigma.csv",
                f"cvae_cluster{label}.npz", f"cvae_cluster{label}_restarts.json")
        ]
        assert run_cli("generate", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run / f"samples_{name}_cluster{label}.csv")
            for label in (0, 1) for name in ("cvae", "gam")
        ]
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        for label in (0, 1):
            report = metrics.read_report_csv(run / f"report_cluster{label}.csv")
            assert report.generator_names() == ["cvae", "gam"]

    def test_scenario_rejects_an_unknown_generator(self, workdir):
        _, cfg = workdir
        config = pipeline.load_config(cfg)
        with pytest.raises(pipeline.PipelineError, match="unknown generator 'gan'"):
            pipeline.stage_scenario(config, pipeline.RunPaths(config.out), generator="gan")


# 3 households per archetype and k = 4: the random baseline's uniform labels
# leave one cluster empty at this seed
UNSCORABLE_BASELINE_CONFIG = """\
seed: 7
out: {out}
synth:
  n_days: 40
  households: {{morning_saver: 3, evening_cutter: 3, flatline: 3, storage_heavy: 3}}
cluster:
  k: 4
train:
  generators: [gam]
"""


def test_unscorable_random_baseline_is_recorded_as_null(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(UNSCORABLE_BASELINE_CONFIG.format(out=tmp_path / "run"))
    for stage in ("synth", "ingest"):
        assert run_cli(stage, "--config", str(cfg)) == 0
    with pytest.warns(UserWarning) as record:
        assert run_cli("cluster", "--config", str(cfg)) == 0
    assert [str(w.message) for w in record if "baseline" in str(w.message)] == [
        "random baseline not scored: need at least 2 non-empty clusters"
    ]
    scores = json.loads((tmp_path / "run" / "cluster_scores.json").read_text())
    assert scores["calinski_harabasz"]["random"] is None
    for variant in ("nmf_kmedoids", "classical_features"):
        assert scores["calinski_harabasz"][variant]["raw"] > 0


class TestInterruptedWrites:
    def test_generate_dying_mid_write_leaves_no_samples(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        for stage in ("synth", "ingest", "cluster", "train"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        write = pipeline.write_samples_csv

        def dies_after_first_day(ensembles, day_labels, path):
            def first_day_then_fail():
                yield ensembles[0]
                raise OSError(28, "No space left on device")

            write(first_day_then_fail(), day_labels, path)

        monkeypatch.setattr(pipeline, "write_samples_csv", dies_after_first_day)
        capsys.readouterr()
        assert run_cli("generate", "--config", str(cfg)) == 2
        assert json.loads(capsys.readouterr().err.strip())["type"] == "OSError"
        run = tmp / "run"
        assert not list(run.glob("samples_*")) and not list(run.glob(".*"))

        monkeypatch.undo()
        assert run_cli("generate", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "nothing to do" not in out
        assert str(run / "samples_gam_cluster0.csv") in out.splitlines()
        for path in sorted(run.glob("samples_gam_cluster*.csv")):
            assert len(path.read_text().splitlines()) == 1 + 10 * 20 * HALF_HOURS

    def test_synth_dying_before_its_last_file_leaves_none(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir

        def no_space(pop, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(synthdata, "write_ground_truth_csv", no_space)
        assert run_cli("synth", "--config", str(cfg)) == 2
        assert json.loads(capsys.readouterr().err.strip())["type"] == "OSError"
        run = tmp / "run"
        assert [p.name for p in run.iterdir()] == ["error.log"]   # the traceback only

        monkeypatch.undo()
        assert run_cli("synth", "--config", str(cfg)) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "consumption.csv", "ground_truth.csv", "temperature.csv",
        ]

    def test_cluster_failing_after_its_first_writes_leaves_none(
        self, workdir, monkeypatch, capsys
    ):
        tmp, cfg = workdir
        for stage in ("synth", "ingest"):
            assert run_cli(stage, "--config", str(cfg)) == 0

        def fails(*args, **kwargs):
            raise clustering.ClusteringError("scoring failed")

        # profiles.csv and assignments.csv are written before the scores
        monkeypatch.setattr(clustering, "score_variants", fails)
        capsys.readouterr()
        assert run_cli("cluster", "--config", str(cfg)) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "scoring failed"
        run = tmp / "run"
        assert not [p for p in run.iterdir() if p.name.startswith(".")]
        for name in ("profiles.csv", "assignments.csv", "cluster_scores.json"):
            assert not (run / name).exists(), name

        monkeypatch.undo()
        assert run_cli("train", "--config", str(cfg)) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == (
            f"missing {run / 'assignments.csv'}; run cluster first"
        )

    def test_train_on_empty_assignments_names_the_file(self, workdir, capsys):
        tmp, cfg = workdir
        for stage in ("synth", "ingest"):
            assert run_cli(stage, "--config", str(cfg)) == 0
        (tmp / "run" / "assignments.csv").write_text("")
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ClusteringError"
        assert "assignments.csv: empty file" in payload["error"]


def test_cli_process_loads_no_scipy(tmp_path):
    # scipy is a test and benchmark dependency only: no stage imports it
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"out: {tmp_path / 'run'}\nsynth:\n  n_days: 10\n  households: {{flatline: 2}}\n")
    code = (
        "import sys\n"
        "import drsim, drsim.cli\n"
        f"assert drsim.cli.main(['synth', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(drsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "consumption.csv").exists()


def test_samples_writer_matches_csv_writer_bytes(tmp_path):
    ensembles = [
        np.array([[0.0, 1e-05, 5e-324, 1e16, 0.1, -0.0] * 8,
                  [1 / 3, 2.5e-300, 123456789.125, 1e-7, 7.0, 0.30000000000000004] * 8]),
        np.full((3, HALF_HOURS), 0.1),
    ]
    path = tmp_path / "samples.csv"
    pipeline.write_samples_csv(ensembles, [5, 117], path)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "sample", "h", "kwh"])
        for day, ensemble in zip((5, 117), ensembles):
            for s, row in enumerate(ensemble.tolist()):
                for h, value in enumerate(row, start=1):
                    writer.writerow([day, s, h, value])
    written = path.read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 5 * HALF_HOURS
    for line in (b"5,0,2,1e-05", b"5,0,3,5e-324", b"5,0,4,1e+16", b"5,0,5,0.1"):
        assert line + b"\r\n" in written


class TestDeterminism:
    def test_rerun_is_bit_identical(self, tmp_path):
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            cfg = tmp_path / f"cfg_{tag}.yaml"
            cfg.write_text(CONFIG.format(out=out))
            for stage in ("synth", "ingest", "cluster", "train", "evaluate"):
                assert run_cli(stage, "--config", str(cfg)) == 0
            blob = b"".join(
                p.read_bytes() for p in sorted(out.glob("report_cluster*.csv"))
            )
            reports.append(blob)
        assert reports[0] == reports[1]


def test_seed_derivation_is_stable():
    a = pipeline.derive_seed(21, pipeline.SEED_EVALUATE, 0)
    b = pipeline.derive_seed(21, pipeline.SEED_EVALUATE, 0)
    c = pipeline.derive_seed(21, pipeline.SEED_EVALUATE, 1)
    d = pipeline.derive_seed(22, pipeline.SEED_EVALUATE, 0)
    assert a == b
    assert len({a, c, d}) == 3
    assert isinstance(a, int) and 0 <= a < 2**32
