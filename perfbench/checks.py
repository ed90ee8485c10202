"""Output checks and result-quality metrics, read from the run directory.

The checks read the files with the standard library only, so they do not
depend on the drsim code they check.
"""

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

HEADERS = {
    "consumption.csv": ["household_id", "timestamp", "kwh", "tariff", "group"],
    "temperature.csv": ["timestamp", "temp_c"],
    "ground_truth.csv": ["household_id", "archetype", "delta_low", "delta_high", "rebound"],
    "profiles.csv": ["entity", "tariff", "h", "mu", "sigma"],
    "assignments.csv": ["household_id", "cluster"],
    "report": ["day", "generator", "rmse", "energy", "variogram_p05"],
    "summary": ["generator", "score", "mean", "min", "q25", "median", "q75", "max"],
    "samples": ["day", "sample", "h", "kwh"],
    "scenario_mean": ["h", "kwh"],
}
HALF_HOURS = 48


class CheckLog:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def run(self, name, fn, *args):
        """Run one check function; an exception inside it is a failure."""
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.check(ok, f"{name}: {detail}")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _header_is(path, expected):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return header == expected, f"header {header}"


def _count_rows(path, expected_header, expected_rows):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = sum(1 for _ in reader)
    ok = header == expected_header and rows == expected_rows
    return ok, f"header {header}, {rows} rows (expected {expected_rows})"


def _report_finite(path):
    header, rows = _read_csv(path)
    bad = [r for r in rows if not all(math.isfinite(float(v)) for v in r[2:])]
    ok = header == HEADERS["report"] and rows and not bad
    return ok, f"header {header}, {len(rows)} rows, {len(bad)} with non-finite scores"


def _cvae_log_finite(path):
    with open(path) as fh:
        log = json.load(fh)
    mse = float(log["test_mse"])
    return math.isfinite(mse), f"selected test MSE {mse}"


def cluster_labels(out):
    _, rows = _read_csv(out / "assignments.csv")
    return sorted({int(r[1]) for r in rows})


def check_outputs(log, out, workload, stages, labels):
    """Check the files written by `stages` of one workload in run dir `out`."""
    gen = workload.generator
    if "synth" in stages:
        for name in ("consumption.csv", "temperature.csv", "ground_truth.csv"):
            log.run(name, _header_is, out / name, HEADERS[name])
    if "ingest" in stages:
        log.check((out / "prepared.npz").is_file(), "prepared.npz missing")
    if "cluster" in stages:
        for name in ("profiles.csv", "assignments.csv"):
            log.run(name, _header_is, out / name, HEADERS[name])
        log.check(len(labels) == workload.k, f"{len(labels)} clusters (expected {workload.k})")
        log.run("cluster_scores.json", lambda p: (bool(json.loads(p.read_text())), "parsed"),
                out / "cluster_scores.json")
    test_days = workload.n_days - int(workload.train_fraction * workload.n_days)
    for label in labels:
        if "train" in stages:
            log.check((out / f"{gen}_cluster{label}.npz").is_file(),
                      f"{gen}_cluster{label}.npz missing")
            if gen == "cvae":
                log.run(f"cvae log {label}", _cvae_log_finite,
                        out / f"cvae_cluster{label}_restarts.json")
        if "generate" in stages:
            log.run(f"samples {gen} {label}", _count_rows,
                    out / f"samples_{gen}_cluster{label}.csv", HEADERS["samples"],
                    test_days * workload.n_samples * HALF_HOURS)
        if "evaluate" in stages:
            log.run(f"report {label}", _report_finite, out / f"report_cluster{label}.csv")
            log.run(f"summary {label}", _header_is, out / f"summary_cluster{label}.csv",
                    HEADERS["summary"])
        if "scenario" in stages:
            for scen in workload.scenarios:
                stem = f"scenario_{scen}_{gen}_cluster{label}"
                log.run(stem + "_mean", _count_rows, out / f"{stem}_mean.csv",
                        HEADERS["scenario_mean"], HALF_HOURS)
                log.run(stem, _count_rows, out / f"{stem}.csv", HEADERS["samples"],
                        workload.n_samples * HALF_HOURS)


def digests(paths):
    """sha256 of each CSV or JSON output; npz archives embed zip timestamps."""
    return {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in paths
        if Path(p).suffix in (".csv", ".json")
    }


def adjusted_rand_index(a, b):
    """Adjusted Rand index of two labelings of the same items."""
    n = len(a)
    pairs = lambda counts: sum(c * (c - 1) / 2 for c in counts)
    index = pairs(Counter(zip(a, b)).values())
    rows = pairs(Counter(a).values())
    cols = pairs(Counter(b).values())
    expected = rows * cols / (n * (n - 1) / 2)
    top = (rows + cols) / 2
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def cluster_ari(out):
    """ARI of assignments.csv against the planted archetypes of ground_truth.csv."""
    _, truth = _read_csv(out / "ground_truth.csv")
    archetype = {r[0]: r[1] for r in truth}
    _, rows = _read_csv(out / "assignments.csv")
    return adjusted_rand_index([r[1] for r in rows], [archetype[r[0]] for r in rows])


def report_means(out, labels):
    """Mean energy and variogram scores over every row of the reports."""
    energy, variogram = [], []
    for label in labels:
        _, rows = _read_csv(out / f"report_cluster{label}.csv")
        energy.extend(float(r[3]) for r in rows)
        variogram.extend(float(r[4]) for r in rows)
    return sum(energy) / len(energy), sum(variogram) / len(variogram)
