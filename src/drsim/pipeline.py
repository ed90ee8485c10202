"""Stage orchestration on top of the library modules.

Each stage reads files written by earlier stages and writes its own outputs
under one run directory, so stages stay decoupled and reruns are
cache-by-file-presence (--force regenerates; synth refuses to overwrite
without it). RUN_FILES names every run file once, under the stage that writes
it and the stages that read it; the paths, the skip check (_fresh) and the
missing-input errors, which name the stage to run, all derive from it. Every
output goes through dataio.replacing (a temporary file renamed over the
target), so it appears whole or not at all: a stage that dies mid-write leaves
no file that a rerun would take as done. Synth and cluster rename their three
files only once all three are written, so a failed synth leaves no part of its
set for a plain rerun to refuse, and a failed cluster no assignments for train
to trust. A single config seed fans out into per-stage streams, which makes
every stage deterministic given the config.

Clusters are independent once clustered, so generate, evaluate and scenario
run one cluster per usable CPU on a fork pool (parallel.map_forked). Each
cluster's job writes its own files; the stage picks the stale clusters first
and lists what was written in cluster order, so the files and the printed
paths are the same whatever the CPU count. Train fits all stale clusters in
one call per generator: the GAM's in one process, sharing each slot's design.
Ingest and cluster spread their work over the same CPUs from inside the
library: ingest parses the consumption file's chunks on the pool and merges
them in file order (dataio.read_consumption_csv), and cluster fits the
profiles' 48 half-hours there (causality.fit_profiles), with the same bytes
and errors on any CPU count.

Each generator is one GENERATORS entry (its file templates, fit and
ensembles), so no stage branches on its name. Every ensemble comes from
_ensembles, one cluster's draws of given days under given tariffs with given
seeds: generate writes and evaluate scores the same test-day ensembles
(_test_ensembles), and scenario draws its scenarios at once.
"""

import datetime
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import (causality, clustering, dataio, floattext, gamgen, metrics, neuralgen, parallel,
               synthdata)
from .dataio import HALF_HOURS, LOW, NORMAL, HIGH, ConfigError

# stage codes for seed derivation; synthdata uses (seed, 1..3) internally
SEED_PARTITION = 12
SEED_NMF = 13
SEED_RANDOM_BASELINE = 15
SEED_CVAE = 20
SEED_EVALUATE = 30
SEED_SCENARIO = 32

SCENARIO_NAMES = ("normal", "low_morning", "high_evening")
CVAE_COUNTS = dict.fromkeys(("latent_dim", "batch_size", "max_epochs", "patience", "restarts"), 1)
CVAE_NUMBERS = {"eta": (lambda eta: eta >= 0, ">= 0"),
                "learning_rate": (lambda rate: rate > 0, "> 0")}


class PipelineError(RuntimeError):
    pass


def derive_seed(root, *codes):
    """Independent child seed for one stage (and optional sub-indices)."""
    return int(np.random.SeedSequence((int(root),) + tuple(int(c) for c in codes)).generate_state(1)[0])


@dataclass
class SynthSection:
    n_days: int = 120
    start_date: datetime.date = datetime.date(2024, 1, 1)
    households: dict = field(default_factory=lambda: {
        "morning_saver": 15, "evening_cutter": 15, "flatline": 10, "storage_heavy": 10,
    })
    std_households: int = 0
    special_fraction: float = 0.5
    window_shapes: tuple = synthdata.WINDOW_SHAPES


@dataclass
class IngestSection:
    consumption: str = None       # default: the synth outputs in the run dir
    temperature: str = None
    smoothing_a: float = 0.998
    train_fraction: float = 0.75


@dataclass
class ClusterSection:
    k: int = 4
    nmf_rank: int = 5


@dataclass
class TrainSection:
    generators: tuple = ("gam", "cvae")
    cvae: neuralgen.CvaeConfig = field(default_factory=neuralgen.CvaeConfig)


@dataclass
class EvaluateSection:
    n_samples: int = 200


@dataclass
class ScenarioSection:
    generator: str = "gam"
    scenarios: tuple = SCENARIO_NAMES
    n_samples: int = 200


@dataclass
class PipelineConfig:
    seed: int = 0
    out: str = "run"
    synth: SynthSection = field(default_factory=SynthSection)
    ingest: IngestSection = field(default_factory=IngestSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    train: TrainSection = field(default_factory=TrainSection)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    scenario: ScenarioSection = field(default_factory=ScenarioSection)


def _section(cls, raw, name, convert=None, counts=None, numbers=None):
    """cls from a config section's mapping; an empty section means its defaults.

    A key converted by tuple must hold a list (a string would split into
    characters); each key in counts must hold an integer of at least its value,
    and each key in numbers a number (not a boolean) that passes its test.
    """
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        raise ConfigError(f"{name} section must be a mapping, got {type(raw).__name__}")
    known = cls.__dataclass_fields__
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name} section: {sorted(unknown, key=str)}")
    values = dict(raw)
    for key, fn in (convert or {}).items():
        if key in values:
            if fn is tuple and not isinstance(values[key], list):
                raise ConfigError(f"{name}.{key} must be a list, got {values[key]!r}")
            try:
                values[key] = fn(values[key])
            except ValueError as exc:
                raise ConfigError(f"{name}.{key}={values[key]!r}: {exc}") from None
    section = cls(**values)
    for key, least in (counts or {}).items():
        _check_count(f"{name}.{key}", getattr(section, key), least)
    for key, (test, interval) in (numbers or {}).items():
        x = getattr(section, key)
        if type(x) not in (int, float) or not test(x):
            raise ConfigError(f"{name}.{key}={x!r} must be a number {interval}")
    return section


def _check_count(name, n, least=1):
    if type(n) is not int or n < least:
        kind = "positive" if least else "non-negative"
        raise ConfigError(f"{name}={n!r} must be a {kind} integer")


class _ConfigLoader(yaml.SafeLoader):
    """yaml's safe loader without its implicit timestamps: a date-shaped value
    stays text, so an impossible date fails in _section's converter, which
    names its key, not inside the parser."""


_ConfigLoader.yaml_implicit_resolvers = {
    first: [(tag, pattern) for tag, pattern in resolvers if tag != "tag:yaml.org,2002:timestamp"]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}


def load_config(path, seed=None, out=None):
    """Parse and validate the YAML run configuration; a seed or out given
    here replaces the file's before the checks."""
    with open(path) as fh:
        raw = yaml.load(fh, Loader=_ConfigLoader) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - {"seed", "out", "synth", "ingest", "cluster", "train",
                          "evaluate", "scenario"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown, key=str)}")

    # an empty value means its default, as an empty section does
    seed = raw.get("seed") if seed is None else seed
    out = raw.get("out") if out is None else out
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path, got {out!r}")
    config = PipelineConfig(seed=0 if seed is None else seed, out="run" if out is None else out)
    if "synth" in raw:
        config.synth = _section(
            SynthSection, raw["synth"], "synth",
            convert={"start_date": lambda v: datetime.date.fromisoformat(str(v)),
                     "window_shapes": tuple},
            counts={"n_days": 1, "std_households": 0},
            numbers={"special_fraction": (lambda f: 0 <= f <= 1, "in [0, 1]")},
        )
        try:                  # the schedule's own check, before synth makes the run directory
            synthdata.SchedulePolicy(window_shapes=config.synth.window_shapes)
        except synthdata.SynthError as exc:
            raise ConfigError(f"synth.window_shapes: {exc}") from None
        households = config.synth.households
        if not isinstance(households, dict):
            raise ConfigError(f"synth.households must be a mapping, got {households!r}")
        known = {a.name for a in synthdata.default_archetypes()}
        bad = sorted(set(households) - known, key=str)
        if bad:
            raise ConfigError(f"unknown archetype(s): {bad} (known: {sorted(known)})")
        for name, n in households.items():
            _check_count(f"synth.households.{name}", n, least=0)
    if "ingest" in raw:
        config.ingest = _section(IngestSection, raw["ingest"], "ingest", numbers={
            "smoothing_a": (lambda a: 0 <= a < 1, "in [0, 1)"),
            "train_fraction": (lambda f: 0 < f < 1, "in (0, 1)"),
        })
        for key in ("consumption", "temperature"):
            path = getattr(config.ingest, key)
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"ingest.{key} must be a path, got {path!r}")
    if "cluster" in raw:
        config.cluster = _section(ClusterSection, raw["cluster"], "cluster",
                                  counts={"k": 1, "nmf_rank": 1})
    if "train" in raw:
        config.train = _section(TrainSection, raw["train"], "train", convert={
            "generators": tuple,
            "cvae": lambda v: _section(neuralgen.CvaeConfig, v, "train.cvae",
                                       convert={"hidden": tuple}, counts=CVAE_COUNTS,
                                       numbers=CVAE_NUMBERS),
        })
        if not config.train.generators:
            raise ConfigError("train.generators lists no generator")
        bad = [g for g in config.train.generators if g not in tuple(GENERATORS)]
        if bad:
            raise ConfigError(f"unknown generator(s) in train.generators: {bad}")
        if len(set(config.train.generators)) < len(config.train.generators):
            raise ConfigError(f"train.generators repeats a name: {config.train.generators}")
        if "seed" in ((raw["train"] or {}).get("cvae") or {}):
            raise ConfigError("train.cvae.seed is not a setting: CVAE seeds derive from "
                              "the top-level seed")
        for n in config.train.cvae.hidden:
            _check_count("train.cvae.hidden", n)
    if "evaluate" in raw:
        config.evaluate = _section(EvaluateSection, raw["evaluate"], "evaluate")
        n = config.evaluate.n_samples
        if type(n) is not int or n < 2 or n % 2:
            raise ConfigError(f"evaluate.n_samples={n!r} must be an even integer, at least 2")
    if "scenario" in raw:
        config.scenario = _section(
            ScenarioSection, raw["scenario"], "scenario", convert={"scenarios": tuple},
            counts={"n_samples": 1},
        )
        if config.scenario.generator not in tuple(GENERATORS):
            raise ConfigError(f"scenario.generator={config.scenario.generator!r} is unknown")
        bad = [s for s in config.scenario.scenarios if s not in SCENARIO_NAMES]
        if bad:
            raise ConfigError(f"unknown scenario(s) in scenario.scenarios: {bad}")
        if not config.scenario.scenarios:
            raise ConfigError("scenario.scenarios lists no scenario")
        if len(set(config.scenario.scenarios)) < len(config.scenario.scenarios):
            raise ConfigError(f"scenario.scenarios repeats a name: {config.scenario.scenarios}")
    return config


# The run files, each named once. A stage's entry holds the names of the files it
# writes, then those of the earlier stages' files it reads; a per-cluster name is
# a template over label, generator and scenario. MODEL stands for a generator's
# files, the templates its GENERATORS entry holds: train writes them all, and a
# stage that draws ensembles reads the first, the model file.
MODEL = "<model>"
CONSUMPTION, TEMPERATURE, PREPARED, ASSIGNMENTS = (
    "consumption.csv", "temperature.csv", "prepared.npz", "assignments.csv")
RUN_FILES = {
    "synth": ((CONSUMPTION, TEMPERATURE, "ground_truth.csv"), ()),
    "ingest": ((PREPARED,), (CONSUMPTION, TEMPERATURE)),
    "cluster": (("profiles.csv", ASSIGNMENTS, "cluster_scores.json"), (PREPARED,)),
    "train": ((MODEL,), (PREPARED, ASSIGNMENTS)),
    "generate": (("samples_{generator}_cluster{label}.csv",), (PREPARED, ASSIGNMENTS, MODEL)),
    "evaluate": (("report_cluster{label}.csv", "summary_cluster{label}.csv"),
                 (PREPARED, ASSIGNMENTS, MODEL)),
    "scenario": (("scenario_{scenario}_{generator}_cluster{label}_mean.csv",
                  "scenario_{scenario}_{generator}_cluster{label}.csv"),
                 (PREPARED, ASSIGNMENTS, MODEL)),
}


def _paths(config, names, **fields):
    """The run directory's paths of names, templates filled in from fields."""
    return [Path(config.out) / template.format(**fields) for name in names
            for template in (GENERATORS[fields["generator"]][0] if name == MODEL else [name])]


def _outputs(config, stage, **fields):
    return _paths(config, RUN_FILES[stage][0], **fields)


def _fresh(config, force, stage, **fields):
    """True when all the stage's outputs for fields exist and --force was not
    given (skip them)."""
    return not force and all(p.exists() for p in _outputs(config, stage, **fields))


def _producer(name):
    return next(stage for stage, (writes, _) in RUN_FILES.items() if name in writes)


def _require(config, *names, **fields):
    """The paths of names, a generator's model file for MODEL; PipelineError,
    naming the first that is missing and the stage that writes it."""
    found = []
    for name in names:
        path = _paths(config, [name], **fields)[0]
        if not path.exists():
            hint = _producer(name)
            if name == MODEL:
                hint += f" --generator {fields['generator']}"
            raise PipelineError(f"missing {path}; run {hint} first")
        found.append(path)
    return found


def stage_synth(config, force=False):
    targets = _outputs(config, "synth")
    present = [p for p in targets if p.exists()]
    if present and not force:
        raise PipelineError(
            f"refusing to overwrite {present[0]} (rerun with --force)"
        )
    Path(config.out).mkdir(parents=True, exist_ok=True)
    s = config.synth
    archetypes = [a for a in synthdata.default_archetypes() if a.name in s.households]
    counts = [s.households[a.name] for a in archetypes]
    pop = synthdata.generate_population(
        archetypes,
        counts,
        s.n_days,
        seed=config.seed,
        start_date=s.start_date,
        std_count=s.std_households,
        policy=synthdata.SchedulePolicy(s.special_fraction, s.window_shapes),
    )
    with dataio.replacing_all(targets) as (consumption, temperature, ground_truth):
        synthdata.write_consumption_csv(pop, consumption)
        synthdata.write_temperature_csv(pop.weather, temperature)
        synthdata.write_ground_truth_csv(pop, ground_truth)
    return targets


def stage_ingest(config, force=False):
    if _fresh(config, force, "ingest"):
        return []
    targets = _outputs(config, "ingest")
    Path(config.out).mkdir(parents=True, exist_ok=True)
    names = RUN_FILES["ingest"][1]
    given = (config.ingest.consumption, config.ingest.temperature)
    consumption, temperature = sources = [g or p for g, p in zip(given, _paths(config, names))]
    for name, p in zip(names, sources):
        if not Path(p).exists():
            raise PipelineError(f"missing input {p}; run {_producer(name)} or point ingest at data")
    data = dataio.read_consumption_csv(consumption)
    temps = dataio.read_temperature_csv(temperature)
    dataset = dataio.prepare_dataset(
        data,
        temps,
        smoothing_a=config.ingest.smoothing_a,
        train_fraction=config.ingest.train_fraction,
        seed=derive_seed(config.seed, SEED_PARTITION),
    )
    dataio.save_prepared(dataset, targets[0])
    return targets


def _rows(array, rows):
    """array[rows] for increasing row indices rows; array itself, not a copy,
    when they are all of its rows."""
    return array if len(rows) == len(array) else array[rows]


def stage_cluster(config, force=False):
    if _fresh(config, force, "cluster"):
        return []
    targets = _outputs(config, "cluster")
    prepared, = _require(config, *RUN_FILES["cluster"][1])
    ds = dataio.load_prepared(prepared)
    tou = [i for i, g in enumerate(ds.groups) if g == "TOU"]
    if not tou:
        raise PipelineError("no time-of-use households to cluster")
    # the profile matrix has at most one row per TOU household, so sizes that
    # cannot fit fail here rather than after every profile fit
    clustering.check_rank(config.cluster.nmf_rank, (len(tou), 3 * HALF_HOURS))
    clustering.check_k(config.cluster.k, len(tou))

    kwh, tariff = _rows(ds.kwh, tou), _rows(ds.tariff, tou)
    with dataio.replacing_all(targets) as (profiles_csv, assignments_csv, scores_json):
        profiles = causality.fit_profiles([ds.household_ids[i] for i in tou], kwh, ds.tau, tariff)
        causality.export_profiles_csv(profiles, profiles_csv)

        pm = clustering.build_profile_matrix(profiles)
        factors = clustering.nmf_factorize(
            pm.matrix, r=config.cluster.nmf_rank, seed=derive_seed(config.seed, SEED_NMF)
        )
        k = config.cluster.k
        result = clustering.kmedoids(factors.w, k)
        clustering.export_assignments_csv(pm.household_ids, result, assignments_csv)

        kwh, tariff = _rows(kwh, pm.kept), _rows(tariff, pm.kept)
        # before the records, so that its season copies and the records do not coexist
        classical = clustering.classical_feature_clustering(
            clustering.classical_features(kwh, ds.dates), k
        )
        # the records do not depend on the labels: built once, scored three times
        records = clustering.record_variants(kwh, tariff, pm.household_ids)
        variants = clustering.score_variants(records, result.labels, k)
        random_result = clustering.random_clustering(
            len(pm.household_ids), k, seed=derive_seed(config.seed, SEED_RANDOM_BASELINE)
        )
        try:
            random_variants = asdict(clustering.score_variants(records, random_result.labels, k))
        except clustering.ClusteringError as exc:
            # uniform labels can leave a cluster empty; a reference must not end the stage
            warnings.warn(f"random baseline not scored: {exc}")
            random_variants = None
        scores = {
            "nmf_error_first": float(factors.errors[0]),
            "nmf_error_last": float(factors.errors[-1]),
            "nmf_converged": factors.converged,
            "medoids": [int(m) for m in result.medoids],
            "cost": result.cost,
            "calinski_harabasz": {
                "nmf_kmedoids": asdict(variants),
                "random": random_variants,
                "classical_features": asdict(
                    clustering.score_variants(records, classical.labels, k)),
            },
        }
        with dataio.replacing(scores_json) as fh:
            json.dump(scores, fh, indent=2, sort_keys=True)
    return targets


def _inputs(config, stage):
    """The stage's prepared dataset and assignments paths (_require)."""
    return _require(config, *(n for n in RUN_FILES[stage][1] if n != MODEL))


def _labels(config, stage):
    """The sorted cluster labels in assignments.csv: enough to tell which of
    the stage's outputs are stale before the dataset is loaded."""
    _, assignments = _inputs(config, stage)
    return sorted(set(clustering.read_assignments_csv(assignments)[1].tolist()))


def _cluster_inputs(config, stage):
    """Prepared dataset, cluster labels and per-cluster series/schedules: the
    stage's inputs but the model files, which _ensembles reads per cluster."""
    prepared, assignments = _inputs(config, stage)
    ds = dataio.load_prepared(prepared)
    ids, labels = clustering.read_assignments_csv(assignments)
    index = {hid: i for i, hid in enumerate(ds.household_ids)}
    unknown = [hid for hid in ids if hid not in index]
    if unknown:
        raise PipelineError(f"{assignments} names household {unknown[0]!r}, which "
                            f"{prepared} does not hold; rerun cluster")
    clusters = {}
    for label in sorted(set(int(l) for l in labels)):
        members = [index[hid] for hid, l in zip(ids, labels) if l == label]
        schedule = ds.tariff[members[0]]
        if any(not np.array_equal(ds.tariff[m], schedule) for m in members[1:]):
            warnings.warn(f"cluster {label}: tariff schedules differ; using the first member's")
        clusters[label] = {
            "series": ds.kwh[members].mean(axis=0),
            "schedule": schedule,
        }
    return ds, clusters


def _pick_generators(config, restrict):
    if restrict and restrict not in GENERATORS:
        raise PipelineError(f"unknown generator {restrict!r}")
    return [restrict] if restrict else list(config.train.generators)


def _map_written(fn, items):
    """fn(item) for each stale item on the fork pool; the paths written, in item order."""
    return [path for written in parallel.map_forked(fn, items) for path in written]


def _fit_gams(config, ds, clusters, files):
    """The clusters of files fitted in one call, as _fit_cvaes trains them."""
    if not files:
        return
    gens = gamgen.fit_gam_generators(
        [f"cluster{label}" for label in files],
        np.stack([clusters[label]["series"] for label in files]),
        ds.tau, ds.tau_bar_daily, ds.calendar,
        np.stack([clusters[label]["schedule"] for label in files]),
        ds.partition,
    )
    for (model, coefficients, sigma), gen in zip(files.values(), gens):
        gamgen.save_generator(gen, model)
        gamgen.export_coefficients_csv(gen, coefficients)
        gamgen.export_sigma_matrix_csv(gen, sigma)


def _gam_ensembles(path, ds, days, tariffs, n_samples, seeds):
    """The GAM computes the means of all D days in one pass; row i does not
    depend on the other days, so a subset of days gives the same bits."""
    gen = gamgen.load_generator(path)
    means = gen.mean_profiles(
        ds.tau[days], ds.tau_bar_daily[days], ds.calendar.kappa[days],
        ds.calendar.w[days], tariffs,
    )
    return np.stack([gen.draw(f, t, n_samples, s) for f, t, s in zip(means, tariffs, seeds)])


def _fit_cvaes(config, ds, clusters, files):
    """The clusters' restarts share stacks; a failed cluster stops the writes."""
    every_day = np.arange(ds.n_days)
    problems = [
        (clusters[label]["series"], ds.conditional_matrix(every_day, clusters[label]["schedule"]),
         replace(config.train.cvae, seed=derive_seed(config.seed, SEED_CVAE, label)))
        for label in files
    ]
    for (label, (path, log)), model in zip(files.items(),
                                           neuralgen.train_cvaes(problems, ds.partition)):
        if isinstance(model, neuralgen.TrainingError):
            raise neuralgen.TrainingError(f"cluster {label}: {model}")
        neuralgen.save_model(model, path)
        with dataio.replacing(log) as fh:
            json.dump(
                {
                    "restart_mses": model.restart_mses,
                    "restart_epochs": model.restart_epochs,
                    "best_restart": model.restart_index,
                    # the winner is picked on the days evaluate scores
                    "selected_on": "test",
                    "test_mse": model.test_mse,
                    "epochs": len(model.epoch_losses),
                },
                fh,
                indent=2,
            )


def _cvae_ensembles(path, ds, days, tariffs, n_samples, seeds):
    model = neuralgen.load_model(path)
    return np.stack([neuralgen.generate(model, x, n_samples, s)
                     for x, s in zip(ds.conditional_matrix(days, tariffs), seeds)])


# name -> (a cluster's file templates over label, model file first; fit(config, ds,
# clusters, {label: files}) writes the files it is given, run in table order;
# ensembles(model file, ds, days, tariffs, n_samples, seeds), as _ensembles)
GENERATORS = {
    "gam": (("gam_cluster{label}.npz", "gam_cluster{label}_coefficients.csv",
             "gam_cluster{label}_sigma.csv"), _fit_gams, _gam_ensembles),
    "cvae": (("cvae_cluster{label}.npz", "cvae_cluster{label}_restarts.json"),
             _fit_cvaes, _cvae_ensembles),
}


def stage_train(config, force=False, generator=None):
    names = _pick_generators(config, generator)
    labels = _labels(config, "train")
    written = {name: {label: _outputs(config, "train", generator=name, label=label)
                      for label in labels
                      if not _fresh(config, force, "train", generator=name, label=label)}
               for name in GENERATORS if name in names}
    if any(written.values()):
        ds, clusters = _cluster_inputs(config, "train")
        for name, files in written.items():
            GENERATORS[name][1](config, ds, clusters, files)
    return [path for label in labels for files in written.values()
            for path in files.get(label, [])]


def _ensembles(config, name, label, ds, days, tariffs, n_samples, seeds):
    """One cluster's ensembles (D, n_samples, 48) for days (D,) under tariffs
    (D, 48), day i drawn with seeds[i], from the model that train wrote."""
    model, = _require(config, MODEL, generator=name, label=label)
    return GENERATORS[name][2](model, ds, days, tariffs, n_samples, seeds)


def _test_ensembles(config, ds, name, label, schedule):
    """The test-day ensembles that generate writes and evaluate scores, under
    the cluster's own schedule. Every generator draws the day at position pos
    with the same seed, so their rows are directly comparable."""
    days = ds.partition.test
    root = derive_seed(config.seed, SEED_EVALUATE, label)
    return _ensembles(config, name, label, ds, days, schedule[days], config.evaluate.n_samples,
                      [derive_seed(root, pos) for pos in range(len(days))])


def _evaluate_cluster(config, ds, names, label, bundle):
    test_days = ds.partition.test
    report = metrics.evaluate_generators(
        bundle["series"][test_days],
        {name: _test_ensembles(config, ds, name, label, bundle["schedule"]) for name in names},
        day_labels=[int(t) for t in test_days],
    )
    report_csv, summary_csv = written = _outputs(config, "evaluate", label=label)
    metrics.write_report_csv(report, report_csv)
    metrics.write_summary_csv(report, summary_csv)
    return written


def stage_evaluate(config, force=False, generator=None):
    names = _pick_generators(config, generator)
    stale = [label for label in _labels(config, "evaluate")
             if not _fresh(config, force, "evaluate", label=label)]
    if not stale:
        return []
    ds, clusters = _cluster_inputs(config, "evaluate")
    return _map_written(
        lambda label: _evaluate_cluster(config, ds, names, label, clusters[label]), stale)


def write_samples_csv(ensembles, day_labels, path):
    """day,sample,h,kwh rows for (n, 48) ensembles, one per day label.

    Byte for byte what csv.writer writes, each kWh value as repr writes it
    (floattext.text). A day's lines are joined a block of members at a time,
    each line its prefix (a CRLF, then "<day>,<s>,<h>,") and its value's
    text, so every line end leads its line and one more closes the file.
    ValueError, naming path, if an ensemble is not (n, 48) or the day labels
    do not match the ensembles in number; dataio.replacing then leaves no
    file behind.
    """
    labels = [int(day) for day in day_labels]
    half_hours = floattext.strings([f"{h}," for h in range(1, HALF_HOURS + 1)])
    per_block = max(1, floattext.BLOCK // HALF_HOURS)
    with dataio.replacing(path, "wb") as fh:
        fh.write(b"day,sample,h,kwh")
        pos = -1
        for pos, ensemble in enumerate(ensembles):
            ensemble = np.asarray(ensemble)
            if pos == len(labels):
                raise ValueError(f"{path}: more ensembles than the {len(labels)} day labels")
            if ensemble.ndim != 2 or ensemble.shape[1] != HALF_HOURS:
                raise ValueError(
                    f"{path}: ensemble {pos} has shape {ensemble.shape}, not (n, {HALF_HOURS})")
            head = b"\r\n%d," % labels[pos]
            for first in range(0, len(ensemble), per_block):
                block = ensemble[first:first + per_block]
                samples = floattext.strings([f"{s}," for s in range(first, first + len(block))])
                values = floattext.text(block)
                fh.write(floattext.join([head, samples[:, None], half_hours, values], block.shape))
        if pos + 1 != len(labels):
            raise ValueError(f"{path}: {len(labels)} day labels for {pos + 1} ensembles")
        fh.write(b"\r\n")


def _generate_samples(config, ds, name, label, bundle):
    ensembles = _test_ensembles(config, ds, name, label, bundle["schedule"])
    written = _outputs(config, "generate", generator=name, label=label)
    write_samples_csv(ensembles, [int(t) for t in ds.partition.test], written[0])
    return written


def stage_generate(config, force=False, generator=None):
    """Write the test-day ensembles that stage_evaluate scores."""
    names = _pick_generators(config, generator)
    stale = [(name, label) for label in _labels(config, "generate") for name in names
             if not _fresh(config, force, "generate", generator=name, label=label)]
    if not stale:
        return []
    ds, clusters = _cluster_inputs(config, "generate")
    return _map_written(lambda job: _generate_samples(config, ds, *job, clusters[job[1]]), stale)


def scenario_tariffs(name):
    """Named counterfactual tariff vectors over the 48 half-hours."""
    tariffs = np.full(HALF_HOURS, NORMAL, dtype=np.int8)
    if name == "low_morning":
        first, last = synthdata.MORNING_LOW_WINDOW
        tariffs[first - 1 : last] = LOW
    elif name == "high_evening":
        first, last = synthdata.EVENING_HIGH_WINDOW
        tariffs[first - 1 : last] = HIGH
    elif name != "normal":
        raise PipelineError(f"unknown scenario {name!r}")
    return tariffs


def _write_scenarios(config, ds, name, label, stale):
    """One cluster's ensembles for the scenarios at indices stale, each seeded
    by its index, so a partial rerun writes the bytes of a full one."""
    scenarios = [config.scenario.scenarios[si] for si in stale]
    day = int(ds.partition.test[0])   # representative conditions
    ensembles = _ensembles(
        config, name, label, ds, np.full(len(stale), day),
        np.stack([scenario_tariffs(scen) for scen in scenarios]), config.scenario.n_samples,
        [derive_seed(config.seed, SEED_SCENARIO, label, si) for si in stale],
    )
    written = []
    for scen, ensemble in zip(scenarios, ensembles):
        mean_csv, samples_csv = files = _outputs(
            config, "scenario", scenario=scen, generator=name, label=label)
        dataio.write_csv(mean_csv, ["h", "kwh"], enumerate(ensemble.mean(axis=0).tolist(), start=1))
        write_samples_csv([ensemble], [day], samples_csv)
        written.extend(files)
    return written


def stage_scenario(config, force=False, generator=None):
    name, = _pick_generators(config, generator or config.scenario.generator)
    jobs = []
    for label in _labels(config, "scenario"):
        stale = [si for si, scen in enumerate(config.scenario.scenarios)
                 if not _fresh(config, force, "scenario", scenario=scen, generator=name,
                               label=label)]
        if stale:
            jobs.append((label, stale))
    if not jobs:
        return []
    ds, clusters = _cluster_inputs(config, "scenario")
    return _map_written(lambda job: _write_scenarios(config, ds, name, *job), jobs)


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "cluster": stage_cluster,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "scenario": stage_scenario,
}
