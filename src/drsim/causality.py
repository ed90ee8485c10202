"""Tariff response estimation via a Gaussian location-scale model.

For one half-hour slot, consumption across days is modeled as Normal with
mean = centered temperature spline + per-tariff offset and a per-tariff
standard deviation. Fitting is two-stage: penalized least squares for the
mean (GCV-chosen smoothing), then half-normal moment matching on the
absolute residuals for the scales. fit_slot is that fit, for every series
that shares a slot's spline design (slot_block) and tariff column
(column_groups). fit_profiles calls it per household schedule group:
averaging the fitted mean over all days at a counterfactual tariff gives the
household's response profile mu_i^h(p), the quantity the clustering stage
consumes. All households' profiles travel as one ResponseProfiles: their ids
and (N, 3, 48) mean and scale arrays. The GAM generator groups all of a run's
clusters the same way and takes its per-tariff noise scales from fit_slot.
"""

import csv
import functools
import io
import mmap
from dataclasses import dataclass

import numpy as np

from . import floattext, parallel
from .dataio import HALF_HOURS, LOW, NORMAL, HIGH, TARIFF_NAMES, read_csv, replacing
from .splines import CenteredSplineBlock, CubicSplineBasis, matvec_rows, penalized_lstsq

PROFILE_HEADER = ["entity", "tariff", "h", "mu", "sigma"]
SCALE_FLOOR = 1e-6
HALF_NORMAL_FACTOR = np.sqrt(np.pi / 2.0)


class FitError(ValueError):
    pass


def fit_slot(design, penalty, rows, tariff, entity, h):
    """Fit the series rows (m, T) of half-hour h, which share one tariff
    column (T,) and one centered temperature-spline design (T, p) with its
    penalty.

    The design is the spline block plus one indicator column per tariff
    actually observed; there is no global intercept, so the tariff offsets
    absorb the level. Returns (spline_coef (m, p), tariff_coef (3, m),
    scale (3, m), lam (m,)): a tariff never observed has NaN offsets and
    takes the Normal tariff's scales. Row j is bit-identical to fitting
    rows[j] alone. Errors name the entity and the 1-based half-hour.
    """
    n_min = design.shape[1] + 4  # the basis dimension plus three offsets
    if len(tariff) < n_min:
        raise FitError(f"{entity}: need at least {n_min} observations in "
                       f"half-hour {h + 1}, got {len(tariff)}")
    if not np.any(tariff == NORMAL):
        raise FitError(f"{entity}: Normal tariff never observed in half-hour {h + 1}")
    observed = [code for code in (LOW, NORMAL, HIGH) if np.any(tariff == code)]
    blocks = [design] + [(tariff == code).astype(float)[:, None] for code in observed]
    fit = penalized_lstsq(blocks, [penalty] + [None] * len(observed), rows.T)

    tariff_coef = np.full((3, len(rows)), np.nan)
    scale = np.empty((3, len(rows)))
    resid = rows - matvec_rows(np.hstack(blocks), fit.coef.T)
    for i, code in enumerate(observed):
        tariff_coef[code] = fit.block_coef(1 + i)[0]
        # C order, so each row's mean sums like a lone 1-d mean
        abs_resid = np.abs(np.ascontiguousarray(resid[:, tariff == code]))
        scale[code] = np.maximum(abs_resid.mean(axis=1) * HALF_NORMAL_FACTOR, SCALE_FLOOR)
    for code in {LOW, HIGH}.difference(observed):
        scale[code] = scale[NORMAL]
    return fit.block_coef(0).T, tariff_coef, scale, fit.lam


def slot_block(x):
    """The centered spline block of temperatures x (T,), knots at their
    quantiles: (block, its (T, p) design at x, its penalty)."""
    block, design = CenteredSplineBlock.fit(CubicSplineBasis.from_quantiles(x), x)
    return block, design, block.penalty()


def column_groups(columns):
    """Row indices of the (m, T) array columns, grouped by equal rows in order
    of first appearance: each group's series share one fit_slot call."""
    groups = {}
    for i, column in enumerate(np.asarray(columns)):
        groups.setdefault(column.tobytes(), []).append(i)
    return list(groups.values())


@dataclass
class ResponseProfiles:
    """Counterfactual mean/scale per (tariff, half-hour) for N entities."""

    ids: list
    mu: np.ndarray      # (N, 3, 48)
    sigma: np.ndarray   # (N, 3, 48)
    lam: np.ndarray = None  # (N, 48) GCV-chosen lambdas, when fitted rather than read


def _fit_half_hour(ids, kwh, tau, tariff, out, h):
    """Fit half-hour h of fit_profiles into its columns of out's mu, sigma and lam."""
    mu, sigma, lam = out
    _, design, penalty = slot_block(tau[:, h])
    for members in column_groups(tariff[:, :, h]):
        coef, xi, scale, lam[members, h] = fit_slot(
            design, penalty, kwh[members, :, h], tariff[members[0], :, h], ids[members[0]], h,
        )
        xi = np.where(np.isnan(xi), xi[NORMAL], xi)
        spline_part = matvec_rows(design, coef)
        mu[members, :, h] = np.mean(spline_part[:, None] + xi.T[:, :, None], axis=2)
        sigma[members, :, h] = scale.T


def fit_profiles(ids, kwh, tau, tariff):
    """ResponseProfiles of many entities, fitted together per half-hour.

    kwh and tariff are (N, T, 48) grids for the entities named by ids; tau
    (T, 48) is shared. Each half-hour builds its spline design once, groups
    the entities by their exact tariff column and fits every group in one
    fit_slot call, so an entity's profile and lambdas are bit-identical to
    those of a call that holds it alone. mu^h(p) = (1/T) sum_t mu_hat(tau_t^h, p);
    a tariff never observed in a half-hour takes the Normal tariff's values.
    The 48 half-hours are fitted on the usable CPUs (parallel.map_forked),
    each into its columns of the returned arrays, which changes no bit.
    Errors name the first entity of the group that cannot be fitted, in the
    earliest half-hour that fails; the fits' ridge warnings are issued in
    half-hour order.
    """
    kwh = np.asarray(kwh, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tariff = np.asarray(tariff)
    n_days = tau.shape[0]
    if tau.shape != (n_days, HALF_HOURS) or not (
        kwh.shape == tariff.shape == (len(ids), n_days, HALF_HOURS)
    ):
        raise FitError("need (N, T, 48) consumption and tariff grids and (T, 48) temperatures")
    # the workers write their half-hours into a mapping they share with the
    # caller (anonymous mmaps are MAP_SHARED): columns sent back through the
    # pool raised the trial-scale cluster peak by 6 MB
    cells = len(ids) * HALF_HOURS
    shared = np.frombuffer(mmap.mmap(-1, max(7 * cells * 8, 1)), np.float64, 7 * cells)
    mu, sigma = shared[:6 * cells].reshape(2, len(ids), 3, HALF_HOURS)
    lam = shared[6 * cells:].reshape(len(ids), HALF_HOURS)
    parallel.map_forked(functools.partial(_fit_half_hour, ids, kwh, tau, tariff, (mu, sigma, lam)),
                        range(HALF_HOURS))
    return ResponseProfiles(list(ids), mu, sigma, lam)


def export_profiles_csv(profiles, path):
    """Write profiles as entity,tariff,h,mu,sigma rows (h is 1-based), Low,
    Normal then High per entity: byte for byte what csv.writer writes, floats
    as repr writes them (floattext.text, a block of entities at a time). An
    entity's 144 rows are one join; its field is quoted as csv.writer quotes
    it (an id with a comma or a quote, say)."""
    cells = floattext.strings([f",{TARIFF_NAMES[code]},{h}," for code in (LOW, NORMAL, HIGH)
                               for h in range(1, HALF_HOURS + 1)])
    shape = (len(profiles.ids), len(cells))
    mu, sigma = profiles.mu.reshape(shape), profiles.sigma.reshape(shape)
    per_block = max(1, floattext.BLOCK // (2 * len(cells)))
    with replacing(path) as fh:
        fh.write(",".join(PROFILE_HEADER) + "\r\n")
        for first in range(0, len(profiles.ids), per_block):
            block = slice(first, first + per_block)
            texts = floattext.text(np.stack([mu[block], sigma[block]], axis=-1))
            for entity, text in zip(profiles.ids[block], texts):
                field = io.StringIO()
                csv.writer(field).writerow([entity, ""])   # the entity as one field of a row
                field = field.getvalue()[:-3]             # less its comma, the empty field and CRLF
                # the rows less their fields hold no line break but their own
                rows = floattext.join([cells, text[:, 0], b",", text[:, 1], b"\r\n"],
                                      (len(cells),))
                fh.write(field + rows[:-2].decode().replace("\r\n", "\r\n" + field) + "\r\n")


def read_profiles_csv(path):
    """Inverse of export_profiles_csv; entities in the order they first appear.
    FitError, naming path, for a row that is not an entity, a tariff name, a
    half-hour 1..48 and two finite numbers, a row that repeats a cell, or an
    entity without all 144 cells."""
    rows = read_csv(path, PROFILE_HEADER, FitError)
    index = {entity: i for i, entity in enumerate(dict.fromkeys(row[0] for row in rows if row))}
    grids = np.full((2, len(index), 3, HALF_HOURS), np.nan)
    for line, row in enumerate(rows, start=2):
        try:
            entity, tariff, h, mu, sigma = row
            cell = (index[entity], TARIFF_NAMES.index(tariff),
                    range(1, HALF_HOURS + 1).index(int(h)))
            values = [float(mu), float(sigma)]
        except ValueError:
            values = [np.nan]
        if not np.isfinite(values).all():
            raise FitError(f"{path}: line {line} ({','.join(row)}) needs a tariff of "
                           f"{'/'.join(TARIFF_NAMES)}, a half-hour 1..{HALF_HOURS} and "
                           "finite mu and sigma")
        if not np.isnan(grids[(0, *cell)]):
            raise FitError(f"{path}: line {line} repeats the cell ({entity}, {tariff}, {h})")
        grids[(slice(None), *cell)] = values
    for i, code, h in np.argwhere(np.isnan(grids[0]))[:1]:
        raise FitError(f"{path}: {list(index)[i]} has no row for tariff {TARIFF_NAMES[code]} "
                       f"in half-hour {h + 1}")
    return ResponseProfiles(list(index), grids[0], grids[1])
