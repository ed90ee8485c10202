"""Semi-parametric generator of daily consumption profiles.

One additive model per half-hour: smooth terms in the slot temperature, the
smoothed temperature and the day-of-range position, a linear working-day
term, and tariff offsets with Normal as the reference level. One shared
smoothing weight across the three spline blocks is chosen by GCV. The noise
side reuses the location-scale machinery at cluster level for per-tariff
scales; residuals standardized by those scales yield an empirical intra-day
correlation matrix whose Cholesky factor drives sampling:

    y^h = f^h + sigma^h(p^h) * (L eps)^h,   eps ~ N(0, I).

Sampled profiles clamp at zero by default; mean_profile exposes the
noise-free, clamp-free mean for diagnostics.
"""

import json
from dataclasses import dataclass

import numpy as np

from .causality import fit_profiles
from .dataio import HALF_HOURS, LOW, HIGH, replacing, write_csv
from .splines import CenteredSplineBlock, CubicSplineBasis, penalized_lstsq

EIG_FLOOR = 1e-8


class CorrelationError(ValueError):
    pass


@dataclass
class HalfHourGam:
    """Fitted additive mean model for one half-hour slot."""

    splines: list            # CenteredSplineBlock for tau, taubar, kappa
    spline_coef: list        # coefficient vectors for the three blocks
    intercept: float
    alpha_w: float
    xi: np.ndarray           # (3,) tariff offsets, xi[NORMAL] = 0
    lam: float

    def predict(self, tau, taubar, kappa, w, tariff):
        """Mean consumption for scalar regressors and a tariff code."""
        parts = self.intercept + self.alpha_w * w + self.xi[tariff]
        for block, coef, v in zip(self.splines, self.spline_coef, (tau, taubar, kappa)):
            parts += float((block.design(v) @ coef)[0])
        return parts


def _fit_half_hour(y, tau, taubar, kappa, w, tariff, lam_grid):
    bases = (
        CubicSplineBasis.from_quantiles(tau),
        CubicSplineBasis.from_quantiles(taubar),
        CubicSplineBasis.from_uniform(kappa),
    )
    splines = []
    blocks = []
    penalties = []
    for basis, v in zip(bases, (tau, taubar, kappa)):
        block, design = CenteredSplineBlock.fit(basis, v)
        splines.append(block)
        blocks.append(design)
        penalties.append(block.penalty())
    blocks.append(np.ones((len(y), 1)))
    penalties.append(None)
    blocks.append(np.asarray(w, dtype=float)[:, None])
    penalties.append(None)
    observed_special = [c for c in (LOW, HIGH) if np.any(tariff == c)]
    for code in observed_special:
        blocks.append((tariff == code).astype(float)[:, None])
        penalties.append(None)

    fit = penalized_lstsq(blocks, penalties, y, lam_grid=lam_grid)
    xi = np.zeros(3)
    for i, code in enumerate(observed_special):
        xi[code] = fit.block_coef(5 + i)[0]
    model = HalfHourGam(
        splines=splines,
        spline_coef=[fit.block_coef(i) for i in range(3)],
        intercept=float(fit.block_coef(3)[0]),
        alpha_w=float(fit.block_coef(4)[0]),
        xi=xi,
        lam=fit.lam,
    )
    fitted = np.hstack(blocks) @ fit.coef
    return model, fitted


def estimate_correlation(residuals):
    """Empirical correlation of standardized residuals (1/(T0-1) covariances).

    Repairs indefiniteness by clipping eigenvalues at 1e-8, rebuilding and
    renormalizing the diagonal; the result always admits a Cholesky factor.
    A constant channel has no defined correlation and raises, naming it.
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 2 or e.shape[0] < 2:
        raise CorrelationError("need at least two residual rows")
    centered = e - e.mean(axis=0)
    cov = centered.T @ centered / (e.shape[0] - 1)
    sd = np.sqrt(np.diag(cov))
    dead = np.flatnonzero(sd == 0)
    if dead.size:
        raise CorrelationError(
            f"constant residual channel at half-hour {int(dead[0]) + 1}"
        )
    corr = cov / np.outer(sd, sd)
    eigval, eigvec = np.linalg.eigh(corr)
    if eigval.min() < EIG_FLOOR:
        rebuilt = (eigvec * np.maximum(eigval, EIG_FLOOR)) @ eigvec.T
        d = np.sqrt(np.diag(rebuilt))
        corr = rebuilt / np.outer(d, d)
    return corr


@dataclass
class GamGenerator:
    entity: str
    models: list               # 48 HalfHourGam
    sigma: np.ndarray          # (3, 48) per-tariff noise scales
    corr: np.ndarray           # (48, 48)
    chol: np.ndarray           # lower Cholesky factor of corr

    def mean_profile(self, tau_row, taubar, kappa, w, tariffs):
        """Noise-free daily mean f (48,), before any clamping."""
        tariffs = np.asarray(tariffs)
        return np.array(
            [
                self.models[h].predict(tau_row[h], taubar, kappa, w, tariffs[h])
                for h in range(HALF_HOURS)
            ]
        )

    def sigma_profile(self, tariffs):
        tariffs = np.asarray(tariffs)
        return self.sigma[tariffs, np.arange(HALF_HOURS)]

    def sample(self, tau_row, taubar, kappa, w, tariffs, n_samples, seed, clamp=True):
        """Draw n_samples correlated daily profiles (kWh)."""
        f = self.mean_profile(tau_row, taubar, kappa, w, tariffs)
        s = self.sigma_profile(tariffs)
        eps = np.random.default_rng(seed).standard_normal((n_samples, HALF_HOURS))
        y = f + s * (eps @ self.chol.T)
        if clamp:
            y = np.maximum(y, 0.0)
        return y


def fit_gam_generator(entity, kwh, tau, taubar_daily, calendar, tariffs, partition,
                      lam_grid=None):
    """Fit the 48 half-hour models plus the noise side on training days.

    kwh is the (T, 48) cluster-average consumption; the per-tariff noise
    scales come from a location-scale refit on the same training series.
    """
    kwh = np.asarray(kwh, dtype=float)
    train = partition.train
    fitted = np.empty((len(train), HALF_HOURS))
    models = []
    for h in range(HALF_HOURS):
        model, f = _fit_half_hour(
            kwh[train, h],
            tau[train, h],
            taubar_daily[train],
            calendar.kappa[train],
            calendar.w[train],
            tariffs[train, h],
            lam_grid,
        )
        models.append(model)
        fitted[:, h] = f

    sigma = fit_profiles(
        [entity], kwh[train][None], tau[train], tariffs[train][None], lam_grid=lam_grid
    )[0].sigma

    scale = sigma[tariffs[train], np.arange(HALF_HOURS)]
    residuals = (kwh[train] - fitted) / scale
    corr = estimate_correlation(residuals)
    return GamGenerator(
        entity=entity,
        models=models,
        sigma=sigma,
        corr=corr,
        chol=np.linalg.cholesky(corr),
    )


def _term_names(model):
    names = []
    for tag, coef in zip(("tau", "taubar", "kappa"), model.spline_coef):
        names.extend([f"{tag}_s{i + 1}" for i in range(len(coef))])
    names.extend(["intercept", "w", "xi_low", "xi_high"])
    return names


def export_coefficients_csv(gen, path):
    """One h,term,coef row per coefficient of each half-hour model."""
    write_csv(path, ["h", "term", "coef"], (
        [h, term, value]
        for h, model in enumerate(gen.models, start=1)
        for term, value in zip(_term_names(model), np.concatenate(
            model.spline_coef
            + [[model.intercept, model.alpha_w, model.xi[LOW], model.xi[HIGH]]]
        ).tolist())
    ))


def export_sigma_matrix_csv(gen, path):
    """Dense 48x48 correlation matrix, one row per line."""
    write_csv(path, None, gen.corr.tolist())


def save_generator(gen, path):
    arrays = {"sigma": gen.sigma, "corr": gen.corr, "chol": gen.chol}
    lams = []
    for h, model in enumerate(gen.models):
        for i, (block, coef) in enumerate(zip(model.splines, model.spline_coef)):
            arrays[f"h{h}_range{i}"] = np.array([block.basis.lo, block.basis.hi])
            arrays[f"h{h}_interior{i}"] = block.basis.interior
            arrays[f"h{h}_center{i}"] = block.center
            arrays[f"h{h}_coef{i}"] = coef
        arrays[f"h{h}_scalars"] = np.array(
            [model.intercept, model.alpha_w, model.xi[LOW], model.xi[HIGH]]
        )
        lams.append(model.lam)
    meta = {"entity": gen.entity, "lams": lams}
    with replacing(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_generator(path):
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        models = []
        for h in range(HALF_HOURS):
            splines = []
            for i in range(3):
                lo, hi = z[f"h{h}_range{i}"]
                basis = CubicSplineBasis(float(lo), float(hi), z[f"h{h}_interior{i}"])
                splines.append(CenteredSplineBlock(basis, z[f"h{h}_center{i}"]))
            scalars = z[f"h{h}_scalars"]
            xi = np.zeros(3)
            xi[LOW], xi[HIGH] = scalars[2], scalars[3]
            models.append(
                HalfHourGam(
                    splines=splines,
                    spline_coef=[z[f"h{h}_coef{i}"] for i in range(3)],
                    intercept=float(scalars[0]),
                    alpha_w=float(scalars[1]),
                    xi=xi,
                    lam=float(meta["lams"][h]),
                )
            )
        return GamGenerator(
            entity=meta["entity"],
            models=models,
            sigma=z["sigma"],
            corr=z["corr"],
            chol=z["chol"],
        )
