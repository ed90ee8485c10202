"""Tariff response estimation via a Gaussian location-scale model.

For one household and one half-hour slot, consumption across days is modeled
as Normal with mean = centered temperature spline + per-tariff offset and a
per-tariff standard deviation. Fitting is two-stage: penalized least squares
for the mean (GCV-chosen smoothing), then half-normal moment matching on the
absolute residuals for the scales. Averaging the fitted mean over all days at
a counterfactual tariff gives the household's response profile mu_i^h(p),
the quantity the clustering stage consumes.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import HALF_HOURS, LOW, NORMAL, HIGH, TARIFF_NAMES, read_csv, write_csv
from .splines import CenteredSplineBlock, CubicSplineBasis, matvec_rows, penalized_lstsq

PROFILE_HEADER = ["entity", "tariff", "h", "mu", "sigma"]
SCALE_FLOOR = 1e-6
HALF_NORMAL_FACTOR = np.sqrt(np.pi / 2.0)


class FitError(ValueError):
    pass


@dataclass
class LocationScaleModel:
    """Fitted mean/scale model for one (entity, half-hour) series."""

    spline: CenteredSplineBlock
    spline_coef: np.ndarray
    tariff_coef: np.ndarray     # (3,) xi per tariff code, NaN if unavailable
    scale: np.ndarray           # (3,) sigma per tariff code, NaN if unavailable
    lam: float
    n_obs: int

    def available(self, code):
        return bool(np.isfinite(self.tariff_coef[code]))

    def predict_mean(self, tau, code):
        """mu(tau, p) for the given tariff; code must be available."""
        if not self.available(code):
            raise FitError(f"tariff {TARIFF_NAMES[code]} unavailable for this series")
        return self.spline.design(tau) @ self.spline_coef + self.tariff_coef[code]


def _fit_rows(spline_design, penalty, rows, tariff):
    """Fit the series in rows (m, n), which share one spline design and tariff column.

    The design is the centered spline block plus one indicator column per
    tariff actually observed; there is no global intercept, so the tariff
    offsets absorb the level. Returns (spline_coef (m, p), tariff_coef (3, m),
    scale (3, m), lam (m,)), with NaN rows for tariffs never observed. Row j
    is bit-identical to fitting rows[j] alone.
    """
    observed = [code for code in (LOW, NORMAL, HIGH) if np.any(tariff == code)]
    blocks = [spline_design] + [(tariff == code).astype(float)[:, None] for code in observed]
    penalties = [penalty] + [None] * len(observed)
    fit = penalized_lstsq(blocks, penalties, rows.T)

    tariff_coef = np.full((3, len(rows)), np.nan)
    scale = np.full((3, len(rows)), np.nan)
    resid = rows - matvec_rows(np.hstack(blocks), fit.coef.T)
    for i, code in enumerate(observed):
        tariff_coef[code] = fit.block_coef(1 + i)[0]
        # C order, so each row's mean sums like a lone 1-d mean
        abs_resid = np.abs(np.ascontiguousarray(resid[:, tariff == code]))
        scale[code] = np.maximum(abs_resid.mean(axis=1) * HALF_NORMAL_FACTOR, SCALE_FLOOR)
    return fit.block_coef(0).T, tariff_coef, scale, fit.lam


def fit_location_scale(y, tau, tariff, basis=None):
    """Fit one half-hour series of (consumption, temperature, tariff) triples.

    The design is the column-centered cubic spline in temperature plus one
    indicator column per tariff actually observed; there is no global
    intercept, so the tariff offsets absorb the level. Tariffs never observed
    are marked unavailable (NaN coefficients).
    """
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tariff = np.asarray(tariff)
    if not (y.shape == tau.shape == tariff.shape) or y.ndim != 1:
        raise FitError("inputs must be equal-length 1-d arrays")
    if basis is None:
        basis = CubicSplineBasis.from_quantiles(tau)
    if y.size < basis.dim + 3:
        raise FitError(f"need at least {basis.dim + 3} observations, got {y.size}")

    spline, design = CenteredSplineBlock.fit(basis, tau)
    coef, tariff_coef, scale, lam = _fit_rows(design, spline.penalty(), y[None, :], tariff)
    return LocationScaleModel(
        spline=spline,
        spline_coef=coef[0],
        tariff_coef=tariff_coef[:, 0],
        scale=scale[:, 0],
        lam=float(lam[0]),
        n_obs=y.size,
    )


def fit_entity(kwh, tau, tariff):
    """Fit all 48 half-hour models for one entity's (T, 48) grids.

    The spline basis depends only on the half-hour's temperature series, so
    it is built once per column and shared.
    """
    kwh = np.asarray(kwh, dtype=float)
    models = []
    for h in range(HALF_HOURS):
        basis = CubicSplineBasis.from_quantiles(tau[:, h])
        models.append(
            fit_location_scale(kwh[:, h], tau[:, h], tariff[:, h], basis=basis)
        )
    return models


@dataclass
class TariffResponseProfile:
    """Counterfactual mean/scale per (tariff, half-hour) for one entity."""

    entity: str
    mu: np.ndarray      # (3, 48)
    sigma: np.ndarray   # (3, 48)
    lam: np.ndarray = None  # (48,) GCV-chosen lambdas, when fitted rather than read


def _day_average(spline_part, tariff_coef, scale):
    """(3, m) mu and sigma of m fitted means from their spline parts (m, T).

    mu(p) is the day mean of spline part + xi(p); a tariff with a NaN offset
    takes the Normal tariff's offset and scale.
    """
    missing = np.isnan(tariff_coef)
    xi = np.where(missing, tariff_coef[NORMAL], tariff_coef)
    sigma = np.where(missing, scale[NORMAL], scale)
    mu = np.stack(
        [np.mean(spline_part + xi[code][:, None], axis=1) for code in (LOW, NORMAL, HIGH)]
    )
    return mu, sigma


def tariff_profile(entity, models, tau):
    """Average the fitted mean over all days at each counterfactual tariff.

    mu^h(p) = (1/T) sum_t mu_hat(tau_t^h, p). Tariffs unavailable in a
    half-hour's series substitute the Normal-tariff values; Normal itself
    must be available everywhere.
    """
    if len(models) != HALF_HOURS:
        raise FitError(f"expected {HALF_HOURS} half-hour models")
    mu = np.empty((3, HALF_HOURS))
    sigma = np.empty((3, HALF_HOURS))
    for h, model in enumerate(models):
        if not model.available(NORMAL):
            raise FitError(f"{entity}: Normal tariff never observed in half-hour {h + 1}")
        spline_part = model.spline.design(tau[:, h]) @ model.spline_coef
        mu[:, h:h + 1], sigma[:, h:h + 1] = _day_average(
            spline_part[None, :], model.tariff_coef[:, None], model.scale[:, None]
        )
    return TariffResponseProfile(entity, mu, sigma, np.array([m.lam for m in models]))


def fit_profiles(ids, kwh, tau, tariff):
    """Tariff response profiles of many entities, fitted together per half-hour.

    kwh and tariff are (N, T, 48) grids for the entities named by ids; tau
    (T, 48) is shared. Each half-hour builds its spline design once, groups
    the entities by their exact tariff column and fits every group in one
    penalized_lstsq call. Profiles and lambdas are bit-identical to
    fit_entity + tariff_profile per entity. Errors name the first entity of
    the group that cannot be fitted.
    """
    kwh = np.asarray(kwh, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tariff = np.asarray(tariff)
    n_days = tau.shape[0]
    if tau.shape != (n_days, HALF_HOURS) or not (
        kwh.shape == tariff.shape == (len(ids), n_days, HALF_HOURS)
    ):
        raise FitError("need (N, T, 48) consumption and tariff grids and (T, 48) temperatures")
    mu = np.empty((len(ids), 3, HALF_HOURS))
    sigma = np.empty((len(ids), 3, HALF_HOURS))
    lam = np.empty((len(ids), HALF_HOURS))
    for h in range(HALF_HOURS):
        basis = CubicSplineBasis.from_quantiles(tau[:, h])
        spline, design = CenteredSplineBlock.fit(basis, tau[:, h])
        penalty = spline.penalty()
        groups = {}
        for i in range(len(ids)):
            groups.setdefault(tariff[i, :, h].tobytes(), []).append(i)
        for members in groups.values():
            column = tariff[members[0], :, h]
            if n_days < basis.dim + 3:
                raise FitError(f"{ids[members[0]]}: need at least {basis.dim + 3} "
                               f"observations in half-hour {h + 1}, got {n_days}")
            if not np.any(column == NORMAL):
                raise FitError(f"{ids[members[0]]}: Normal tariff never observed "
                               f"in half-hour {h + 1}")
            coef, tariff_coef, scale, lam[members, h] = _fit_rows(
                design, penalty, kwh[members, :, h], column
            )
            group_mu, group_sigma = _day_average(matvec_rows(design, coef), tariff_coef, scale)
            mu[members, :, h] = group_mu.T
            sigma[members, :, h] = group_sigma.T
    return [TariffResponseProfile(ids[i], mu[i], sigma[i], lam[i]) for i in range(len(ids))]


def export_profiles_csv(profiles, path):
    """Write profiles as entity,tariff,h,mu,sigma rows (h is 1-based)."""
    write_csv(path, PROFILE_HEADER, (
        [prof.entity, TARIFF_NAMES[code], h, mu, sigma]
        for prof in profiles
        for code in (LOW, NORMAL, HIGH)
        for h, mu, sigma in zip(range(1, HALF_HOURS + 1),
                                prof.mu[code].tolist(), prof.sigma[code].tolist())
    ))


def read_profiles_csv(path):
    """Inverse of export_profiles_csv."""
    per_entity = {}
    for entity, tariff, h, mu, sigma in read_csv(path, PROFILE_HEADER, FitError):
        code = TARIFF_NAMES.index(tariff)
        slot = per_entity.setdefault(
            entity, (np.full((3, HALF_HOURS), np.nan), np.full((3, HALF_HOURS), np.nan))
        )
        slot[0][code, int(h) - 1] = float(mu)
        slot[1][code, int(h) - 1] = float(sigma)
    return [
        TariffResponseProfile(entity, mu, sigma)
        for entity, (mu, sigma) in per_entity.items()
    ]
