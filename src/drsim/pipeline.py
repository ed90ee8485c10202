"""Stage orchestration on top of the library modules.

Each stage reads files written by earlier stages and writes its own outputs
under one run directory, so stages stay decoupled and reruns are
cache-by-file-presence (--force regenerates; synth refuses to overwrite
without it). Every output goes through dataio.replacing (a temporary file
renamed over the target), so it appears whole or not at all: a stage that
dies mid-write leaves no file that a rerun would take as done. Synth and
cluster rename their three files only once all three are written, so a
failed synth leaves no part of its set for a plain rerun to refuse, and a
failed cluster no assignments for train to trust. A single config seed fans
out into per-stage streams, which makes every stage deterministic given the
config.

Clusters are independent once clustered, so the per-cluster stages (the GAM
fits of train, generate, evaluate, scenario) run one cluster per usable CPU
on a fork pool (parallel.map_forked). Each cluster's job writes its own
files; the stage picks the stale clusters first and lists what was written
in cluster order, so the files and the printed paths are the same whatever
the CPU count.

Each generator is one GENERATORS entry, so no stage branches on its name.
Every ensemble comes from _ensembles, one cluster's draws of given days under
given tariffs with given seeds: generate writes and evaluate scores the same
test-day ensembles (_test_ensembles), and scenario draws its scenarios at once.
"""

import datetime
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import causality, clustering, dataio, gamgen, metrics, neuralgen, parallel, synthdata
from .dataio import HALF_HOURS, LOW, NORMAL, HIGH, ConfigError

# stage codes for seed derivation; synthdata uses (seed, 1..3) internally
SEED_PARTITION = 12
SEED_NMF = 13
SEED_RANDOM_BASELINE = 15
SEED_CVAE = 20
SEED_EVALUATE = 30
SEED_SCENARIO = 32

SCENARIO_NAMES = ("normal", "low_morning", "high_evening")


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
    window_shapes: tuple = ("morning_low", "evening_high", "random")


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


def _section(cls, raw, name, convert=None):
    """cls from a config section's mapping; an empty section means its defaults."""
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        raise ConfigError(f"{name} section must be a mapping, got {type(raw).__name__}")
    known = cls.__dataclass_fields__
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name} section: {sorted(unknown)}")
    values = dict(raw)
    if convert:
        for key, fn in convert.items():
            if key in values:
                values[key] = fn(values[key])
    return cls(**values)


def load_config(path, seed=None, out=None):
    """Parse and validate the YAML run configuration; a seed or out given
    here replaces the file's before the checks."""
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - {"seed", "out", "synth", "ingest", "cluster", "train",
                          "evaluate", "scenario"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

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
            convert={
                "start_date": lambda v: datetime.date.fromisoformat(str(v)),
                "window_shapes": tuple,
            },
        )
        known = {a.name for a in synthdata.default_archetypes()}
        bad = set(config.synth.households) - known
        if bad:
            raise ConfigError(f"unknown archetype(s): {sorted(bad)} (known: {sorted(known)})")
    if "ingest" in raw:
        config.ingest = _section(IngestSection, raw["ingest"], "ingest")
    if "cluster" in raw:
        config.cluster = _section(ClusterSection, raw["cluster"], "cluster")
        for key in ("k", "nmf_rank"):
            n = getattr(config.cluster, key)
            if type(n) is not int or n < 1:
                raise ConfigError(f"cluster.{key}={n!r} must be a positive integer")
    if "train" in raw:
        config.train = _section(TrainSection, raw["train"], "train", convert={
            "generators": tuple,
            "cvae": lambda v: _section(neuralgen.CvaeConfig, v, "train.cvae",
                                       convert={"hidden": tuple}),
        })
        if not config.train.generators:
            raise ConfigError("train.generators lists no generator")
        bad = set(config.train.generators) - set(GENERATORS)
        if bad:
            raise ConfigError(f"unknown generator(s): {sorted(bad)}")
        if len(set(config.train.generators)) < len(config.train.generators):
            raise ConfigError(f"train.generators repeats a name: {config.train.generators}")
        if "seed" in ((raw["train"] or {}).get("cvae") or {}):
            raise ConfigError("train.cvae.seed is not a setting: CVAE seeds derive from "
                              "the top-level seed")
    if "evaluate" in raw:
        config.evaluate = _section(EvaluateSection, raw["evaluate"], "evaluate")
        n = config.evaluate.n_samples
        if type(n) is not int or n < 2 or n % 2:
            raise ConfigError(f"evaluate.n_samples={n!r} must be an even integer, at least 2")
    if "scenario" in raw:
        config.scenario = _section(
            ScenarioSection, raw["scenario"], "scenario", convert={"scenarios": tuple}
        )
        if config.scenario.generator not in GENERATORS:
            raise ConfigError(f"unknown scenario generator {config.scenario.generator!r}")
        bad = set(config.scenario.scenarios) - set(SCENARIO_NAMES)
        if bad:
            raise ConfigError(f"unknown scenario(s) in scenario.scenarios: {sorted(bad)}")
        if len(set(config.scenario.scenarios)) < len(config.scenario.scenarios):
            raise ConfigError(f"scenario.scenarios repeats a name: {config.scenario.scenarios}")
        n = config.scenario.n_samples
        if type(n) is not int or n < 1:
            raise ConfigError(f"scenario.n_samples={n!r} must be a positive integer")
    return config


@dataclass
class RunPaths:
    out: Path

    def __post_init__(self):
        self.out = Path(self.out)

    @property
    def consumption(self):
        return self.out / "consumption.csv"

    @property
    def temperature(self):
        return self.out / "temperature.csv"

    @property
    def ground_truth(self):
        return self.out / "ground_truth.csv"

    @property
    def prepared(self):
        return self.out / "prepared.npz"

    @property
    def profiles(self):
        return self.out / "profiles.csv"

    @property
    def assignments(self):
        return self.out / "assignments.csv"

    @property
    def cluster_scores(self):
        return self.out / "cluster_scores.json"

    def samples(self, generator, label):
        return self.out / f"samples_{generator}_cluster{label}.csv"

    def report(self, label):
        return self.out / f"report_cluster{label}.csv"

    def summary(self, label):
        return self.out / f"summary_cluster{label}.csv"

    def scenario_mean(self, name, generator, label):
        return self.out / f"scenario_{name}_{generator}_cluster{label}_mean.csv"

    def scenario_samples(self, name, generator, label):
        return self.out / f"scenario_{name}_{generator}_cluster{label}.csv"

    def scenario_files(self, name, generator, label):
        return [self.scenario_mean(name, generator, label),
                self.scenario_samples(name, generator, label)]


def _fresh(force, targets):
    """True when all targets exist and --force was not given (skip stage)."""
    return not force and all(p.exists() for p in targets)


def stage_synth(config, paths, force=False):
    targets = [paths.consumption, paths.temperature, paths.ground_truth]
    present = [p for p in targets if p.exists()]
    if present and not force:
        raise PipelineError(
            f"refusing to overwrite {present[0]} (rerun with --force)"
        )
    paths.out.mkdir(parents=True, exist_ok=True)
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


def stage_ingest(config, paths, force=False):
    targets = [paths.prepared]
    if _fresh(force, targets):
        return []
    paths.out.mkdir(parents=True, exist_ok=True)
    consumption = config.ingest.consumption or paths.consumption
    temperature = config.ingest.temperature or paths.temperature
    for p in (consumption, temperature):
        if not Path(p).exists():
            raise PipelineError(f"missing input {p}; run synth or point ingest at data")
    data = dataio.read_consumption_csv(consumption)
    temps = dataio.read_temperature_csv(temperature)
    dataset = dataio.prepare_dataset(
        data,
        temps,
        smoothing_a=config.ingest.smoothing_a,
        train_fraction=config.ingest.train_fraction,
        seed=derive_seed(config.seed, SEED_PARTITION),
    )
    dataio.save_prepared(dataset, paths.prepared)
    return targets


def _require(path, hint):
    if not Path(path).exists():
        raise PipelineError(f"missing {path}; run {hint} first")


def stage_cluster(config, paths, force=False):
    targets = [paths.profiles, paths.assignments, paths.cluster_scores]
    if _fresh(force, targets):
        return []
    _require(paths.prepared, "ingest")
    ds = dataio.load_prepared(paths.prepared)
    tou = [i for i, g in enumerate(ds.groups) if g == "TOU"]
    if not tou:
        raise PipelineError("no time-of-use households to cluster")
    # the profile matrix has at most one row per TOU household, so sizes that
    # cannot fit fail here rather than after every profile fit
    clustering.check_rank(config.cluster.nmf_rank, (len(tou), 3 * HALF_HOURS))
    clustering.check_k(config.cluster.k, len(tou))

    with dataio.replacing_all(targets) as (profiles_csv, assignments_csv, scores_json):
        profiles = causality.fit_profiles(
            [ds.household_ids[i] for i in tou], ds.kwh[tou], ds.tau, ds.tariff[tou]
        )
        causality.export_profiles_csv(profiles, profiles_csv)

        pm = clustering.build_profile_matrix(profiles)
        factors = clustering.nmf_factorize(
            pm.matrix, r=config.cluster.nmf_rank, seed=derive_seed(config.seed, SEED_NMF)
        )
        k = config.cluster.k
        result = clustering.kmedoids(factors.w, k)
        clustering.export_assignments_csv(pm.household_ids, result, assignments_csv)

        index = {hid: i for i, hid in enumerate(ds.household_ids)}
        rows = [index[hid] for hid in pm.household_ids]

        def score(labels):
            return clustering.score_variants(
                ds.kwh[rows], ds.tariff[rows], labels, pm.household_ids, k=k
            )

        variants = score(result.labels)
        random_result = clustering.random_clustering(
            len(pm.household_ids), k, seed=derive_seed(config.seed, SEED_RANDOM_BASELINE)
        )
        try:
            random_variants = _variant_dict(score(random_result.labels))
        except clustering.ClusteringError as exc:
            # uniform labels can leave a cluster empty; a reference must not end the stage
            warnings.warn(f"random baseline not scored: {exc}")
            random_variants = None
        classical = clustering.classical_feature_clustering(
            clustering.classical_features(ds.kwh[rows], ds.dates), k
        )
        scores = {
            "nmf_error_first": float(factors.errors[0]),
            "nmf_error_last": float(factors.errors[-1]),
            "nmf_converged": factors.converged,
            "medoids": [int(m) for m in result.medoids],
            "cost": result.cost,
            "calinski_harabasz": {
                "nmf_kmedoids": _variant_dict(variants),
                "random": random_variants,
                "classical_features": _variant_dict(score(classical.labels)),
            },
        }
        with dataio.replacing(scores_json) as fh:
            json.dump(scores, fh, indent=2, sort_keys=True)
    return targets


def _variant_dict(v):
    return {"raw": v.raw, "normalized": v.normalized, "special": v.special}


def _cluster_inputs(paths):
    """Prepared dataset, cluster labels and per-cluster series/schedules."""
    _require(paths.prepared, "ingest")
    _require(paths.assignments, "cluster")
    ds = dataio.load_prepared(paths.prepared)
    ids, labels = clustering.read_assignments_csv(paths.assignments)
    index = {hid: i for i, hid in enumerate(ds.household_ids)}
    clusters = {}
    for label in sorted(set(int(l) for l in labels)):
        members = [index[hid] for hid, l in zip(ids, labels) if l == label]
        schedule = ds.tariff[members[0]]
        for m in members[1:]:
            if not np.array_equal(ds.tariff[m], schedule):
                warnings.warn(
                    f"cluster {label}: tariff schedules differ; using the first member's"
                )
                break
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


def _gam_files(paths, label):
    return [paths.out / f"gam_cluster{label}{suffix}"
            for suffix in (".npz", "_coefficients.csv", "_sigma.csv")]


def _fit_gams(config, paths, ds, clusters, stale):
    def fit(label):
        model, coefficients, sigma = _gam_files(paths, label)
        gen = gamgen.fit_gam_generator(
            f"cluster{label}",
            clusters[label]["series"],
            ds.tau,
            ds.tau_bar_daily,
            ds.calendar,
            clusters[label]["schedule"],
            ds.partition,
        )
        gamgen.save_generator(gen, model)
        gamgen.export_coefficients_csv(gen, coefficients)
        gamgen.export_sigma_matrix_csv(gen, sigma)
        return [model, coefficients, sigma]

    return dict(zip(stale, parallel.map_forked(fit, stale)))


def _gam_ensembles(paths, label, ds, days, tariffs, n_samples, seeds):
    """The GAM computes the means of all D days in one pass; row i does not
    depend on the other days, so a subset of days gives the same bits."""
    gen = gamgen.load_generator(_gam_files(paths, label)[0])
    means = gen.mean_profiles(
        ds.tau[days], ds.tau_bar_daily[days], ds.calendar.kappa[days],
        ds.calendar.w[days], tariffs,
    )
    return np.stack([gen.draw(f, t, n_samples, s) for f, t, s in zip(means, tariffs, seeds)])


def _cvae_files(paths, label):
    return [paths.out / f"cvae_cluster{label}{suffix}" for suffix in (".npz", "_restarts.json")]


def _fit_cvaes(config, paths, ds, clusters, stale):
    """The stale clusters' restarts share stacks; a failed cluster stops the writes."""
    every_day = np.arange(ds.n_days)
    problems = [
        (clusters[label]["series"], ds.conditional_matrix(every_day, clusters[label]["schedule"]),
         replace(config.train.cvae, seed=derive_seed(config.seed, SEED_CVAE, label)))
        for label in stale
    ]
    written = {}
    for label, model in zip(stale, neuralgen.train_cvaes(problems, ds.partition)):
        if isinstance(model, neuralgen.TrainingError):
            raise neuralgen.TrainingError(f"cluster {label}: {model}")
        path, log = written[label] = _cvae_files(paths, label)
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
    return written


def _cvae_ensembles(paths, label, ds, days, tariffs, n_samples, seeds):
    model = neuralgen.load_model(_cvae_files(paths, label)[0])
    return np.stack([neuralgen.generate(model, x, n_samples, s)
                     for x, s in zip(ds.conditional_matrix(days, tariffs), seeds)])


# name -> (files(paths, label): a cluster's files, model first; fit(config, paths, ds,
# clusters, stale) -> {label: files written}, run in table order; ensembles, as _ensembles)
GENERATORS = {
    "gam": (_gam_files, _fit_gams, _gam_ensembles),
    "cvae": (_cvae_files, _fit_cvaes, _cvae_ensembles),
}


def stage_train(config, paths, force=False, generator=None):
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    written = [
        fit(config, paths, ds, clusters,
            [label for label in clusters if not _fresh(force, files(paths, label))])
        for name, (files, fit, _) in GENERATORS.items() if name in names
    ]
    return [path for label in clusters for fitted in written for path in fitted.get(label, [])]


def _ensembles(name, paths, label, ds, days, tariffs, n_samples, seeds):
    """One cluster's ensembles (D, n_samples, 48) for days (D,) under tariffs
    (D, 48), day i drawn with seeds[i], from the model that train wrote."""
    files, _, ensembles = GENERATORS[name]
    _require(files(paths, label)[0], f"train --generator {name}")
    return ensembles(paths, label, ds, days, tariffs, n_samples, seeds)


def _test_ensembles(config, paths, ds, name, label, schedule):
    """The test-day ensembles that generate writes and evaluate scores, under
    the cluster's own schedule. Every generator draws the day at position pos
    with the same seed, so their rows are directly comparable."""
    days = ds.partition.test
    root = derive_seed(config.seed, SEED_EVALUATE, label)
    return _ensembles(name, paths, label, ds, days, schedule[days], config.evaluate.n_samples,
                      [derive_seed(root, pos) for pos in range(len(days))])


def _evaluate_cluster(config, paths, ds, names, label, bundle):
    test_days = ds.partition.test
    report = metrics.evaluate_generators(
        bundle["series"][test_days],
        {name: _test_ensembles(config, paths, ds, name, label, bundle["schedule"])
         for name in names},
        day_labels=[int(t) for t in test_days],
    )
    metrics.write_report_csv(report, paths.report(label))
    metrics.write_summary_csv(report, paths.summary(label))
    return [paths.report(label), paths.summary(label)]


def stage_evaluate(config, paths, force=False, generator=None):
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    stale = [label for label in clusters
             if not _fresh(force, [paths.report(label), paths.summary(label)])]
    return _map_written(
        lambda label: _evaluate_cluster(config, paths, ds, names, label, clusters[label]), stale)


# one ensemble member's 48 lines: {0} day, {1} sample, then the kWh values by
# repr, byte for byte what csv.writer writes
_SAMPLE_LINES = "".join(f"{{0}},{{1}},{h},{{{h + 1}!r}}\r\n" for h in range(1, HALF_HOURS + 1))


def write_samples_csv(ensembles, day_labels, path):
    """day,sample,h,kwh rows for a list of (n, 48) ensembles."""
    with dataio.replacing(path) as fh:
        fh.write("day,sample,h,kwh\r\n")
        for day, ensemble in zip(map(int, day_labels), ensembles):
            fh.write("".join(
                _SAMPLE_LINES.format(day, s, *row)
                for s, row in enumerate(np.asarray(ensemble).tolist())
            ))


def _generate_samples(config, paths, ds, name, label, bundle):
    ensembles = _test_ensembles(config, paths, ds, name, label, bundle["schedule"])
    write_samples_csv(ensembles, [int(t) for t in ds.partition.test], paths.samples(name, label))
    return [paths.samples(name, label)]


def stage_generate(config, paths, force=False, generator=None):
    """Write the test-day ensembles that stage_evaluate scores."""
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    stale = [(name, label) for label in clusters for name in names
             if not _fresh(force, [paths.samples(name, label)])]
    return _map_written(
        lambda job: _generate_samples(config, paths, ds, *job, clusters[job[1]]), stale)


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


def _write_scenarios(config, paths, ds, name, label, stale):
    """One cluster's ensembles for the scenarios at indices stale, each seeded
    by its index, so a partial rerun writes the bytes of a full one."""
    scenarios = [config.scenario.scenarios[si] for si in stale]
    day = int(ds.partition.test[0])   # representative conditions
    ensembles = _ensembles(
        name, paths, label, ds, np.full(len(stale), day),
        np.stack([scenario_tariffs(scen) for scen in scenarios]), config.scenario.n_samples,
        [derive_seed(config.seed, SEED_SCENARIO, label, si) for si in stale],
    )
    written = []
    for scen, ensemble in zip(scenarios, ensembles):
        dataio.write_csv(paths.scenario_mean(scen, name, label), ["h", "kwh"],
                         enumerate(ensemble.mean(axis=0).tolist(), start=1))
        write_samples_csv([ensemble], [day], paths.scenario_samples(scen, name, label))
        written.extend(paths.scenario_files(scen, name, label))
    return written


def stage_scenario(config, paths, force=False, generator=None):
    name, = _pick_generators(config, generator or config.scenario.generator)
    ds, clusters = _cluster_inputs(paths)
    jobs = []
    for label in clusters:
        stale = [si for si, scen in enumerate(config.scenario.scenarios)
                 if not _fresh(force, paths.scenario_files(scen, name, label))]
        if stale:
            jobs.append((label, stale))
    return _map_written(lambda job: _write_scenarios(config, paths, ds, name, *job), jobs)


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "cluster": stage_cluster,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "scenario": stage_scenario,
}
