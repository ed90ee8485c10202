"""Proper scoring rules for daily-profile ensembles, and the score table of
several generators over many days.

All three scores compare an ensemble of generated profiles against one
observed profile; lower is better. The energy score uses the split-halves
estimator (pairing member i with member N/2 + i), so the ensemble size must
be even; the tests hold the all-pairs U-statistic as its cross-check. The
variogram score computes the expected term once per unordered half-hour pair
(it is symmetric bit for bit), one vectorised step per row of the upper
triangle, then adds the squared pair differences in a loop over Python
floats in row-major order, so its value matches an
independent double-loop implementation bit for bit.

evaluate_generators scores ensembles that are already drawn: each
generator's (n_days, n, H) array. Drawing and seeding them is the pipeline's
job, so this module derives no seeds. Its ScoreReport holds every score in
one (days, generators, 3) array, the last axis in SCORES order; the report
file has one row per (day, generator), day by day, and the summary takes
each generator's mean and quantiles of each score along the day axis.
"""

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .dataio import read_csv, write_csv

DEFAULT_VARIOGRAM_P = 0.5

REPORT_HEADER = ["day", "generator", "rmse", "energy", "variogram_p05"]
SUMMARY_HEADER = ["generator", "score", "mean", "min", "q25", "median", "q75", "max"]
SCORES = ("rmse", "energy", "variogram")          # the last axis of ScoreReport.scores
QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)           # min, q25, median, q75, max


class ScoringError(ValueError):
    pass


def _check(ensemble, y):
    ensemble = np.asarray(ensemble, dtype=float)
    y = np.asarray(y, dtype=float)
    if ensemble.ndim != 2 or y.ndim != 1 or ensemble.shape[1] != y.shape[0]:
        raise ScoringError("ensemble must be (n, H) against an (H,) observation")
    if not (np.isfinite(ensemble).all() and np.isfinite(y).all()):
        raise ScoringError("non-finite scoring inputs")
    return ensemble, y


def rmse(ensemble, y):
    """Euclidean distance between the ensemble mean and the observation."""
    ensemble, y = _check(ensemble, y)
    return float(np.linalg.norm(ensemble.mean(axis=0) - y))


def energy_score(ensemble, y):
    """Split-halves energy score.

    (2/N) sum_{i<=N/2} ||e_i - y|| - (1/N) sum_{i<=N/2} ||e_i - e_{N/2+i}||
    """
    ensemble, y = _check(ensemble, y)
    n = ensemble.shape[0]
    if n < 2 or n % 2:
        raise ScoringError(f"ensemble size {n} must be even (and at least 2)")
    half = n // 2
    first, second = ensemble[:half], ensemble[half:]
    term1 = 2.0 / n * np.linalg.norm(first - y, axis=1).sum()
    term2 = 1.0 / n * np.linalg.norm(first - second, axis=1).sum()
    return float(term1 - term2)


def variogram_score(ensemble, y, p=DEFAULT_VARIOGRAM_P):
    """Variogram score of order p over all ordered half-hour pairs.

    sum over (h, h') of (|y_h - y_h'|^p - E|e_h - e_h'|^p)^2, the
    expectation taken over ensemble members. |e_h - e_h'| equals
    |e_h' - e_h| bit for bit, so the expected term is computed once per
    unordered pair and fills both halves of the matrix: row h of the upper
    triangle is one vectorised mean over contiguous member rows, each reduced
    as the lone per-pair mean would be. Accumulation is a plain loop over
    Python floats in row-major order.
    """
    ensemble, y = _check(ensemble, y)
    if p <= 0:
        raise ScoringError(f"variogram order p={p!r} must be positive")
    h = y.shape[0]
    et = np.ascontiguousarray(ensemble.T)
    expected = np.zeros((h, h))
    for i in range(h - 1):
        expected[i, i + 1:] = expected[i + 1:, i] = (
            np.abs(et[i] - et[i + 1:]) ** p).mean(axis=1)
    p = float(p)
    ys = y.tolist()
    total = 0.0
    for yi, row in zip(ys, expected.tolist()):
        for yj, e in zip(ys, row):
            total += (abs(yi - yj) ** p - e) ** 2
    return total


@dataclass
class ScoreReport:
    """Every generator's scores on every day: scores[d, g] holds day days[d]'s
    rmse, energy and variogram scores (SCORES order) of generators[g]."""

    days: list
    generators: list
    scores: np.ndarray      # (D, G, 3)

    def summary(self):
        """Per-generator mean and quartiles of each score."""
        columns = np.ascontiguousarray(self.scores.transpose(1, 2, 0))   # (G, 3, D)
        stats = np.concatenate([columns.mean(axis=-1)[None],
                                np.quantile(columns, QUANTILES, axis=-1)])
        return {name: {which: dict(zip(SUMMARY_HEADER[2:], stats[:, g, s].tolist()))
                       for s, which in enumerate(SCORES)}
                for g, name in enumerate(self.generators)}


def evaluate_generators(observations, ensembles, day_labels=None,
                        variogram_p=DEFAULT_VARIOGRAM_P):
    """Score every generator's ensembles on every observation day.

    ensembles maps a generator name to an (n_days, n, H) array whose row pos
    is its ensemble for observations[pos], and day_labels, when given, names
    each day. Scores are computed day by day, with the generators in mapping
    order within each day.
    """
    observations = np.asarray(observations, dtype=float)
    if observations.ndim != 2:
        raise ScoringError("observations must be (n_days, H)")
    if not ensembles:
        raise ScoringError("no generators to evaluate")
    for name, days in ensembles.items():
        if len(days) != len(observations):
            raise ScoringError(f"{name}: {len(days)} ensembles for {len(observations)} days")
    if day_labels is None:
        day_labels = range(len(observations))
    elif len(day_labels) != len(observations):
        raise ScoringError(f"{len(day_labels)} day labels for {len(observations)} days")
    scores = np.empty((len(observations), len(ensembles), len(SCORES)))
    for pos, y in enumerate(observations):
        for g, days in enumerate(ensembles.values()):
            scores[pos, g] = (rmse(days[pos], y), energy_score(days[pos], y),
                              variogram_score(days[pos], y, variogram_p))
    return ScoreReport([int(label) for label in day_labels], list(ensembles), scores)


def write_report_csv(report, path):
    write_csv(path, REPORT_HEADER, (
        [day, name, *values]
        for day, row in zip(report.days, report.scores.tolist())
        for name, values in zip(report.generators, row)
    ))


def read_report_csv(path):
    """The report written to path. ScoringError, naming path and line, for a
    row that is not an integer day, a generator name and three finite scores,
    or rows that do not fill the days x generators grid as the writer does:
    day by day, each day's generators in the first day's order."""
    keys, values = [], []
    for line, row in enumerate(read_csv(path, REPORT_HEADER, ScoringError), start=2):
        try:
            day, name, *scores = row
            key, scores = (int(day), name), [float(v) for v in scores]
        except ValueError:
            scores = None
        if not scores or len(scores) != len(SCORES) or not name or not np.isfinite(scores).all():
            raise ScoringError(f"{path}: line {line} ({','.join(row)}) needs an integer day, "
                               "a generator name and three finite scores")
        keys.append(key)
        values.append(scores)
    days = list(dict.fromkeys(day for day, _ in keys))
    generators = list(dict.fromkeys(name for day, name in keys if day == days[0])) if keys else []
    grid = [(day, name) for day in days for name in generators]
    if keys != grid:
        pos = next(i for i, (key, cell) in enumerate(zip_longest(keys, grid)) if key != cell)
        where = f"line {pos + 2}" if pos < len(keys) else "the end of the file"
        wanted = f"day {grid[pos][0]}, generator {grid[pos][1]}" if pos < len(grid) else "no row"
        raise ScoringError(f"{path}: {where} breaks the days x generators grid "
                           f"(expected {wanted})")
    return ScoreReport(days, generators, np.array(values).reshape(len(days), len(generators),
                                                                  len(SCORES)))


def write_summary_csv(report, path):
    """Per-generator quartile summary, one row per (generator, score)."""
    write_csv(path, SUMMARY_HEADER, (
        [name, which] + [stats[k] for k in SUMMARY_HEADER[2:]]
        for name, scores in report.summary().items()
        for which, stats in scores.items()
    ))
