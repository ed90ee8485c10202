"""Semi-parametric generator of daily consumption profiles.

One additive model per half-hour: smooth terms in the slot temperature, the
smoothed temperature and the day-of-range position, a linear working-day
term, and tariff offsets with Normal as the reference level. One shared
smoothing weight across the three spline blocks is chosen by GCV. The
smoothed-temperature and day-position blocks depend on the day alone, so the
generator fits and holds one copy of each for all 48 slots; all of a run's
clusters are fitted together on each slot's design. On the noise
side, each slot's per-tariff scales come from the location-scale fit
(causality.fit_slot) on that slot's own temperature block; residuals
standardized by those scales yield an empirical intra-day correlation matrix
whose Cholesky factor drives sampling:

    y^h = f^h + sigma^h(p^h) * (L eps)^h,   eps ~ N(0, I).

Sampled profiles clamp at zero by default; mean_profile exposes the
noise-free, clamp-free mean for diagnostics, and mean_profiles the means of
many days at once, which draw then turns into ensembles.
"""

import json
from dataclasses import dataclass

import numpy as np

from .causality import column_groups, fit_slot, slot_block
from .dataio import HALF_HOURS, LOW, HIGH, replacing, write_csv
from .splines import CenteredSplineBlock, CubicSplineBasis, matvec_rows, penalized_lstsq

EIG_FLOOR = 1e-8


class CorrelationError(ValueError):
    pass


class GamModelError(ValueError):
    """A model file that load_generator cannot read."""


@dataclass
class HalfHourGam:
    """Fitted additive mean model for one half-hour slot; its taubar and kappa
    blocks are the generator's day_blocks."""

    tau_block: CenteredSplineBlock
    spline_coef: list        # coefficient vectors for the tau, taubar and kappa blocks
    intercept: float
    alpha_w: float
    xi: np.ndarray           # (3,) tariff offsets, xi[NORMAL] = 0
    lam: float


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
    day_blocks: list           # CenteredSplineBlock for taubar and kappa, shared by all slots
    models: list               # 48 HalfHourGam
    sigma: np.ndarray          # (3, 48) per-tariff noise scales
    corr: np.ndarray           # (48, 48)
    chol: np.ndarray           # lower Cholesky factor of corr

    def mean_profiles(self, tau_rows, taubar, kappa, w, tariffs):
        """Noise-free daily means (D, 48) of D days, before any clamping.

        tau_rows and tariffs are (D, 48); taubar, kappa and w are (D,). One
        design call per day-level block serves all slots, and each slot makes
        one for its tau block, all for the D days at once. Every per-day
        product is its own row-times-matrix product and the terms are added
        in one fixed order, so row d does not depend on the other days: a
        one-day call gives the same bits.
        """
        def design(block, v):
            return ((block.basis.design(v) - block.center)[:, None, :] @ block.z)[:, 0, :]

        tau_rows = np.asarray(tau_rows, dtype=float)
        tariffs = np.asarray(tariffs)
        day_designs = [design(block, v) for block, v in zip(self.day_blocks, (taubar, kappa))]
        means = np.empty(tau_rows.shape)
        for h, model in enumerate(self.models):
            f = model.intercept + model.alpha_w * np.asarray(w) + model.xi[tariffs[:, h]]
            for d, coef in zip([design(model.tau_block, tau_rows[:, h]), *day_designs],
                               model.spline_coef):
                f = f + (d[:, None, :] @ coef[:, None])[:, 0, 0]
            means[:, h] = f
        return means

    def mean_profile(self, tau_row, taubar, kappa, w, tariffs):
        """Noise-free daily mean f (48,), before any clamping."""
        return self.mean_profiles([tau_row], [taubar], [kappa], [w], [tariffs])[0]

    def sigma_profile(self, tariffs):
        tariffs = np.asarray(tariffs)
        return self.sigma[tariffs, np.arange(HALF_HOURS)]

    def draw(self, f, tariffs, n_samples, seed, clamp=True):
        """n_samples correlated daily profiles (kWh) around the mean f (48,)."""
        s = self.sigma_profile(tariffs)
        eps = np.random.default_rng(seed).standard_normal((n_samples, HALF_HOURS))
        y = f + s * (eps @ self.chol.T)
        if clamp:
            y = np.maximum(y, 0.0)
        return y

    def sample(self, tau_row, taubar, kappa, w, tariffs, n_samples, seed, clamp=True):
        """Draw n_samples correlated daily profiles (kWh)."""
        f = self.mean_profile(tau_row, taubar, kappa, w, tariffs)
        return self.draw(f, tariffs, n_samples, seed, clamp)


def fit_gam_generators(entities, kwh, tau, taubar_daily, calendar, tariffs, partition):
    """Each entity's 48 half-hour models plus its noise side, fitted on training days.

    kwh and tariffs are (m, T, 48) grids of the m entities. Each half-hour
    places one temperature block, and each group of equal tariff columns gets
    one fit_slot call (the noise scales) and one multi-response
    penalized_lstsq call (the mean), both bit-identical per series to a lone
    fit. Errors name the first entity of the group that cannot be fitted.
    """
    kwh = np.asarray(kwh, dtype=float)
    tariffs = np.asarray(tariffs)
    train, kappa = partition.train, calendar.kappa[partition.train]
    kappa_block, kappa_design = CenteredSplineBlock.fit(
        CubicSplineBasis.from_uniform(kappa), kappa)
    # the smoothed-temperature block takes its knots as a slot's temperature block does
    day_blocks, day_designs, day_penalties = zip(
        slot_block(taubar_daily[train]), (kappa_block, kappa_design, kappa_block.penalty()))
    w = np.asarray(calendar.w[train], dtype=float)[:, None]
    fitted = np.empty((len(entities), len(train), HALF_HOURS))
    sigma = np.empty((len(entities), 3, HALF_HOURS))
    models = [[] for _ in entities]
    for h in range(HALF_HOURS):
        tau_block, tau_design, tau_penalty = slot_block(tau[train, h])
        y = kwh[:, train, h]
        for members in column_groups(tariffs[:, train, h]):
            tariff = tariffs[members[0], train, h]
            _, _, scale, _ = fit_slot(tau_design, tau_penalty, y[members], tariff,
                                      entities[members[0]], h)
            sigma[members, :, h] = scale.T
            special = [code for code in (LOW, HIGH) if np.any(tariff == code)]
            blocks = [tau_design, *day_designs, np.ones_like(w), w]
            blocks += [(tariff == code).astype(float)[:, None] for code in special]
            penalties = [tau_penalty, *day_penalties] + [None] * (2 + len(special))
            fit = penalized_lstsq(blocks, penalties, y[members].T)
            fitted[members, :, h] = matvec_rows(np.hstack(blocks), fit.coef.T)
            coefs = [fit.block_coef(b) for b in range(len(blocks))]
            for j, i in enumerate(members):
                # contiguous copies, so mean_profiles' products round as a lone fit's
                coef = [c[:, j].copy() for c in coefs]
                xi = np.zeros(3)
                xi[special] = [c[0] for c in coef[5:]]
                models[i].append(HalfHourGam(
                    tau_block, coef[:3], intercept=float(coef[3][0]),
                    alpha_w=float(coef[4][0]), xi=xi, lam=float(fit.lam[j])))
    generators = []
    for i, entity in enumerate(entities):
        scale = sigma[i][tariffs[i, train], np.arange(HALF_HOURS)]
        corr = estimate_correlation((kwh[i, train] - fitted[i]) / scale)
        generators.append(GamGenerator(entity, list(day_blocks), models[i], sigma[i], corr,
                                       np.linalg.cholesky(corr)))
    return generators


def fit_gam_generator(entity, kwh, tau, taubar_daily, calendar, tariffs, partition):
    """The generator of one entity's (T, 48) consumption under its (T, 48) tariffs."""
    gen, = fit_gam_generators([entity], np.asarray(kwh)[None], tau, taubar_daily, calendar,
                              np.asarray(tariffs)[None], partition)
    return gen


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


# the arrays of a model file; the per-block ones hold the 48 tau blocks, then
# the taubar and kappa blocks, and every padded row is NaN past its own length
MODEL_KEYS = ("meta", "ranges", "counts", "interiors", "centers", "coefs",
              "scalars", "sigma", "corr", "chol")


def _padded(rows, width):
    """rows as one (len(rows), width) array, NaN past each row's end."""
    out = np.full((len(rows), width), np.nan)
    for r, values in zip(out, rows):
        r[:len(values)] = values
    return out


def save_generator(gen, path):
    """One npz of the 50 distinct spline blocks and the (48, 3) coefficient
    vectors, padded to the longest block, plus the noise side."""
    n = len(gen.models)
    blocks = [model.tau_block for model in gen.models] + list(gen.day_blocks)
    counts = np.array([len(block.basis.interior) for block in blocks])
    k = int(counts.max(initial=0))
    coefs = [coef for model in gen.models for coef in model.spline_coef]
    arrays = {
        "ranges": _padded([(b.basis.lo, b.basis.hi) for b in blocks], 2),
        "counts": counts,
        "interiors": _padded([b.basis.interior for b in blocks], k),
        "centers": _padded([b.center for b in blocks], k + 4),
        "coefs": _padded(coefs, k + 3).reshape(n, -1, k + 3),
        "scalars": np.array([[m.intercept, m.alpha_w, m.xi[LOW], m.xi[HIGH]]
                             for m in gen.models]),
        "sigma": gen.sigma, "corr": gen.corr, "chol": gen.chol,
    }
    meta = {"entity": gen.entity, "lams": [model.lam for model in gen.models]}
    with replacing(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_generator(path):
    with np.load(path, allow_pickle=False) as z:
        # a file of the older (48, 3) block layout has every key
        if any(key not in z.files for key in MODEL_KEYS) or z["counts"].ndim != 1:
            raise GamModelError(
                f"{path}: not a GAM model file of this version; rerun `drsim train --force`"
            )
        meta = json.loads(str(z["meta"]))
        blocks = [
            CenteredSplineBlock(CubicSplineBasis(lo, hi, interior[:n]), center[:n + 4].copy())
            for (lo, hi), n, interior, center in zip(
                z["ranges"].tolist(), z["counts"].tolist(), z["interiors"], z["centers"])
        ]
        day_blocks = blocks[len(meta["lams"]):]
        coefs, scalars = z["coefs"], z["scalars"]
        models = []
        for h, lam in enumerate(meta["lams"]):
            xi = np.zeros(3)
            xi[LOW], xi[HIGH] = scalars[h, 2], scalars[h, 3]
            models.append(
                HalfHourGam(
                    tau_block=blocks[h],
                    spline_coef=[coef[:block.dim].copy() for block, coef
                                 in zip([blocks[h], *day_blocks], coefs[h])],
                    intercept=float(scalars[h, 0]),
                    alpha_w=float(scalars[h, 1]),
                    xi=xi,
                    lam=float(lam),
                )
            )
        return GamGenerator(
            entity=meta["entity"],
            day_blocks=day_blocks,
            models=models,
            sigma=z["sigma"],
            corr=z["corr"],
            chol=z["chol"],
        )
