"""Stage orchestration on top of the library modules.

Each stage reads files written by earlier stages and writes its own outputs
under one run directory, so stages stay decoupled and reruns are
cache-by-file-presence (--force regenerates; synth refuses to overwrite
without it). Every output goes through dataio.replacing (a temporary file
renamed over the target), so it appears whole or not at all: a stage that
dies mid-write leaves no file that a rerun would take as done. Synth renames
its three files only once all three are written, so it never leaves a part
of its set for a plain rerun to refuse. A single config seed fans out into
per-stage streams, which makes every stage deterministic given the config.
"""

import datetime
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import causality, clustering, dataio, gamgen, metrics, neuralgen, synthdata
from .dataio import HALF_HOURS, LOW, NORMAL, HIGH, ConfigError

# stage codes for seed derivation; synthdata uses (seed, 1..3) internally
SEED_PARTITION = 12
SEED_NMF = 13
SEED_RANDOM_BASELINE = 15
SEED_CVAE = 20
SEED_EVALUATE = 30
SEED_SCENARIO = 32

GENERATOR_NAMES = ("cvae", "gam")


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
    variogram_p: float = 0.5


@dataclass
class ScenarioSection:
    generator: str = "gam"
    scenarios: tuple = ("normal", "low_morning", "high_evening")
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


def load_config(path):
    """Parse and validate the YAML run configuration."""
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - {"seed", "out", "synth", "ingest", "cluster", "train",
                          "evaluate", "scenario"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

    config = PipelineConfig(seed=int(raw.get("seed", 0)), out=str(raw.get("out", "run")))
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
    if "train" in raw:
        section = dict(raw["train"])
        cvae_raw = section.pop("cvae", {})
        config.train = _section(TrainSection, section, "train", convert={"generators": tuple})
        cvae_known = neuralgen.CvaeConfig.__dataclass_fields__
        bad = set(cvae_raw) - set(cvae_known)
        if bad:
            raise ConfigError(f"unknown key(s) in train.cvae: {sorted(bad)}")
        if "hidden" in cvae_raw:
            cvae_raw["hidden"] = tuple(cvae_raw["hidden"])
        config.train = replace(config.train, cvae=replace(neuralgen.CvaeConfig(), **cvae_raw))
        bad = set(config.train.generators) - set(GENERATOR_NAMES)
        if bad:
            raise ConfigError(f"unknown generator(s): {sorted(bad)}")
    if "evaluate" in raw:
        config.evaluate = _section(EvaluateSection, raw["evaluate"], "evaluate")
        n = config.evaluate.n_samples
        if n < 2 or n % 2:
            raise ConfigError(f"evaluate.n_samples={n!r} must be even and at least 2")
    if "scenario" in raw:
        config.scenario = _section(
            ScenarioSection, raw["scenario"], "scenario", convert={"scenarios": tuple}
        )
        if config.scenario.generator not in GENERATOR_NAMES:
            raise ConfigError(f"unknown scenario generator {config.scenario.generator!r}")
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

    def gam_model(self, label):
        return self.out / f"gam_cluster{label}.npz"

    def gam_coefficients(self, label):
        return self.out / f"gam_cluster{label}_coefficients.csv"

    def gam_sigma(self, label):
        return self.out / f"gam_cluster{label}_sigma.csv"

    def cvae_model(self, label):
        return self.out / f"cvae_cluster{label}.npz"

    def cvae_log(self, label):
        return self.out / f"cvae_cluster{label}_restarts.json"

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

    profiles = causality.fit_profiles(
        [ds.household_ids[i] for i in tou], ds.kwh[tou], ds.tau, ds.tariff[tou]
    )
    causality.export_profiles_csv(profiles, paths.profiles)

    pm = clustering.build_profile_matrix(profiles)
    factors = clustering.nmf_factorize(
        pm.matrix, r=config.cluster.nmf_rank, seed=derive_seed(config.seed, SEED_NMF)
    )
    result = clustering.kmedoids(factors.w, config.cluster.k)
    clustering.export_assignments_csv(pm.household_ids, result, paths.assignments)

    index = {hid: i for i, hid in enumerate(ds.household_ids)}
    rows = [index[hid] for hid in pm.household_ids]
    variants = clustering.score_variants(
        ds.kwh[rows], ds.tariff[rows], result.labels, pm.household_ids, k=config.cluster.k
    )
    random_result = clustering.random_clustering(
        len(pm.household_ids), config.cluster.k,
        seed=derive_seed(config.seed, SEED_RANDOM_BASELINE),
    )
    random_variants = clustering.score_variants(
        ds.kwh[rows], ds.tariff[rows], random_result.labels, pm.household_ids,
        k=config.cluster.k,
    )
    classical = clustering.classical_feature_clustering(
        clustering.classical_features(ds.kwh[rows], ds.dates), config.cluster.k
    )
    classical_variants = clustering.score_variants(
        ds.kwh[rows], ds.tariff[rows], classical.labels, pm.household_ids,
        k=config.cluster.k,
    )
    scores = {
        "nmf_error_first": float(factors.errors[0]),
        "nmf_error_last": float(factors.errors[-1]),
        "nmf_converged": factors.converged,
        "medoids": [int(m) for m in result.medoids],
        "cost": result.cost,
        "calinski_harabasz": {
            "nmf_kmedoids": _variant_dict(variants),
            "random": _variant_dict(random_variants),
            "classical_features": _variant_dict(classical_variants),
        },
    }
    with dataio.replacing(paths.cluster_scores) as fh:
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
            "members": members,
        }
    return ds, clusters


def _pick_generators(config, restrict):
    names = list(config.train.generators)
    if restrict:
        if restrict not in GENERATOR_NAMES:
            raise PipelineError(f"unknown generator {restrict!r}")
        names = [restrict]
    return names


def stage_train(config, paths, force=False, generator=None):
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    cvaes = {}
    if "cvae" in names:
        # the CVAEs of all stale clusters train together, so their restarts share stacks
        stale = [label for label in clusters
                 if not _fresh(force, [paths.cvae_model(label), paths.cvae_log(label)])]
        problems = [
            (clusters[label]["series"], ds.conditional_matrix(clusters[label]["schedule"]),
             replace(config.train.cvae, seed=derive_seed(config.seed, SEED_CVAE, label)))
            for label in stale
        ]
        cvaes = dict(zip(stale, neuralgen.train_cvaes(problems, ds.partition)))
    written = []
    for label, bundle in clusters.items():
        if "gam" in names:
            targets = [paths.gam_model(label), paths.gam_coefficients(label),
                       paths.gam_sigma(label)]
            if not _fresh(force, targets):
                gen = gamgen.fit_gam_generator(
                    f"cluster{label}",
                    bundle["series"],
                    ds.tau,
                    ds.tau_bar_daily,
                    ds.calendar,
                    bundle["schedule"],
                    ds.partition,
                )
                gamgen.save_generator(gen, paths.gam_model(label))
                gamgen.export_coefficients_csv(gen, paths.gam_coefficients(label))
                gamgen.export_sigma_matrix_csv(gen, paths.gam_sigma(label))
                written.extend(targets)
        if label in cvaes:
            model = cvaes[label]
            if isinstance(model, neuralgen.TrainingError):
                raise neuralgen.TrainingError(f"cluster {label}: {model}")
            neuralgen.save_model(model, paths.cvae_model(label))
            with dataio.replacing(paths.cvae_log(label)) as fh:
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
            written.extend([paths.cvae_model(label), paths.cvae_log(label)])
    return written


def _sampler(name, paths, label, ds, days, tariffs):
    """Load one cluster's generator for days (D,) under tariffs (D, 48).

    Returns (i, n, seed) -> (n, 48), the ensemble for days[i] under
    tariffs[i]. The GAM computes the means of all D days in one pass.
    """
    if name == "gam":
        _require(paths.gam_model(label), "train --generator gam")
        gen = gamgen.load_generator(paths.gam_model(label))
        means = gen.mean_profiles(
            ds.tau[days], ds.tau_bar_daily[days], ds.calendar.kappa[days],
            ds.calendar.w[days], tariffs,
        )
        return lambda i, n, seed: gen.draw(means[i], tariffs[i], n, seed)
    _require(paths.cvae_model(label), "train --generator cvae")
    model = neuralgen.load_model(paths.cvae_model(label))

    def sample(i, n, seed):
        day = days[i]
        x = dataio.build_conditional_vector(
            ds.pca_scores[day], ds.calendar.kappa[day], ds.calendar.w[day], tariffs[i]
        )
        return neuralgen.generate(model, x, n, seed)

    return sample


def _test_day_ensembles(name, paths, label, ds, schedule):
    """(test_day_position, n, seed) -> (n, 48) under the cluster's own schedule."""
    days = ds.partition.test
    return _sampler(name, paths, label, ds, days, schedule[days])


def stage_evaluate(config, paths, force=False, generator=None):
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    test_days = ds.partition.test
    written = []
    for label, bundle in clusters.items():
        targets = [paths.report(label), paths.summary(label)]
        if _fresh(force, targets):
            continue
        generators = {
            name: _test_day_ensembles(name, paths, label, ds, bundle["schedule"])
            for name in names
        }
        report = metrics.evaluate_generators(
            bundle["series"][test_days],
            generators,
            day_labels=[int(t) for t in test_days],
            n_samples=config.evaluate.n_samples,
            variogram_p=config.evaluate.variogram_p,
            seed=derive_seed(config.seed, SEED_EVALUATE, label),
        )
        metrics.write_report_csv(report, paths.report(label))
        metrics.write_summary_csv(report, paths.summary(label))
        written.extend(targets)
    return written


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


def stage_generate(config, paths, force=False, generator=None):
    """Write the ensembles stage_evaluate scores: same samplers, same day seeds."""
    names = _pick_generators(config, generator)
    ds, clusters = _cluster_inputs(paths)
    test_days = ds.partition.test
    written = []
    for label, bundle in clusters.items():
        root = derive_seed(config.seed, SEED_EVALUATE, label)
        for name in names:
            target = paths.samples(name, label)
            if _fresh(force, [target]):
                continue
            make = _test_day_ensembles(name, paths, label, ds, bundle["schedule"])
            ensembles = [
                make(pos, config.evaluate.n_samples, metrics.day_seed(root, pos))
                for pos in range(len(test_days))
            ]
            write_samples_csv(ensembles, [int(t) for t in test_days], target)
            written.append(target)
    return written


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


def stage_scenario(config, paths, force=False, generator=None):
    name = generator or config.scenario.generator
    ds, clusters = _cluster_inputs(paths)
    day = int(ds.partition.test[0])   # representative conditions
    scenarios = config.scenario.scenarios
    written = []
    for label in clusters:
        sample = None
        for si, scen in enumerate(scenarios):
            targets = [
                paths.scenario_mean(scen, name, label),
                paths.scenario_samples(scen, name, label),
            ]
            if _fresh(force, targets):
                continue
            if sample is None:
                sample = _sampler(
                    name, paths, label, ds, np.full(len(scenarios), day),
                    np.stack([scenario_tariffs(sc) for sc in scenarios]),
                )
            seed = derive_seed(config.seed, SEED_SCENARIO, label, si)
            ensemble = sample(si, config.scenario.n_samples, seed)
            dataio.write_csv(paths.scenario_mean(scen, name, label), ["h", "kwh"],
                             enumerate(ensemble.mean(axis=0).tolist(), start=1))
            write_samples_csv([ensemble], [day], paths.scenario_samples(scen, name, label))
            written.extend(targets)
    return written


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "cluster": stage_cluster,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "scenario": stage_scenario,
}
