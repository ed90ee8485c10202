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
many days at once, which draw then turns into ensembles. A generator is its
model file's arrays: 48 temperature blocks, the two day blocks, and per-slot
coefficients, offsets and lambdas stacked into (48, ...) arrays, so fitting,
saving and loading pass the same arrays through.
"""

import json
from dataclasses import dataclass

import numpy as np

from .causality import column_groups, fit_slot, slot_block
from .dataio import HALF_HOURS, LOW, HIGH, check_shapes, replacing, write_csv
from .splines import CenteredSplineBlock, CubicSplineBasis, matvec_rows, penalized_lstsq

EIG_FLOOR = 1e-8


class CorrelationError(ValueError):
    pass


class GamModelError(ValueError):
    """A model file that load_generator cannot read."""


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
    tau_blocks: list           # 48 CenteredSplineBlock, one per slot
    day_blocks: list           # CenteredSplineBlock for taubar and kappa, shared by all slots
    # (48, 3, K): each slot's tau, taubar and kappa coefficients, NaN past
    # each block's dim; K is the largest block dim
    coefs: np.ndarray
    intercept: np.ndarray      # (48,)
    alpha_w: np.ndarray        # (48,) working-day terms
    xi: np.ndarray             # (48, 3) tariff offsets, xi[:, NORMAL] = 0
    lam: np.ndarray            # (48,) GCV-chosen smoothing weights
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
        for h, (tau_block, coefs) in enumerate(zip(self.tau_blocks, self.coefs)):
            f = self.intercept[h] + self.alpha_w[h] * np.asarray(w) + self.xi[h, tariffs[:, h]]
            # each coef row is a contiguous slice, so the products round as on a copy
            for d, coef in zip([design(tau_block, tau_rows[:, h]), *day_designs], coefs):
                f = f + (d[:, None, :] @ coef[:d.shape[1], None])[:, 0, 0]
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
    tau_blocks, tau_designs, tau_penalties = zip(
        *(slot_block(tau[train, h]) for h in range(HALF_HOURS)))
    width = max(block.dim for block in tau_blocks + day_blocks)
    w = np.asarray(calendar.w[train], dtype=float)[:, None]
    m = len(entities)
    fitted = np.empty((m, len(train), HALF_HOURS))
    sigma = np.empty((m, 3, HALF_HOURS))
    coefs = np.full((m, HALF_HOURS, 3, width), np.nan)
    intercept, alpha_w, lam = np.empty((3, m, HALF_HOURS))
    xi = np.zeros((m, HALF_HOURS, 3))
    for h in range(HALF_HOURS):
        y = kwh[:, train, h]
        for members in column_groups(tariffs[:, train, h]):
            tariff = tariffs[members[0], train, h]
            _, _, scale, _ = fit_slot(tau_designs[h], tau_penalties[h], y[members], tariff,
                                      entities[members[0]], h)
            sigma[members, :, h] = scale.T
            special = [code for code in (LOW, HIGH) if np.any(tariff == code)]
            blocks = [tau_designs[h], *day_designs, np.ones_like(w), w]
            blocks += [(tariff == code).astype(float)[:, None] for code in special]
            penalties = [tau_penalties[h], *day_penalties] + [None] * (2 + len(special))
            fit = penalized_lstsq(blocks, penalties, y[members].T)
            fitted[members, :, h] = matvec_rows(np.hstack(blocks), fit.coef.T)
            for b, design in enumerate(blocks[:3]):
                coefs[members, h, b, :design.shape[1]] = fit.block_coef(b).T
            intercept[members, h], alpha_w[members, h] = fit.block_coef(3)[0], fit.block_coef(4)[0]
            for i, code in enumerate(special):
                xi[members, h, code] = fit.block_coef(5 + i)[0]
            lam[members, h] = fit.lam
    generators = []
    for i, entity in enumerate(entities):
        scale = sigma[i][tariffs[i, train], np.arange(HALF_HOURS)]
        corr = estimate_correlation((kwh[i, train] - fitted[i]) / scale)
        generators.append(GamGenerator(
            entity, list(tau_blocks), list(day_blocks), coefs[i], intercept[i], alpha_w[i],
            xi[i], lam[i], sigma[i], corr, np.linalg.cholesky(corr)))
    return generators


def fit_gam_generator(entity, kwh, tau, taubar_daily, calendar, tariffs, partition):
    """The generator of one entity's (T, 48) consumption under its (T, 48) tariffs."""
    gen, = fit_gam_generators([entity], np.asarray(kwh)[None], tau, taubar_daily, calendar,
                              np.asarray(tariffs)[None], partition)
    return gen


def _scalars(gen):
    """(48, 4): each slot's intercept, working-day term and Low and High offsets."""
    return np.column_stack([gen.intercept, gen.alpha_w, gen.xi[:, LOW], gen.xi[:, HIGH]])


def export_coefficients_csv(gen, path):
    """One h,term,coef row per coefficient of each half-hour model: the tau,
    taubar and kappa spline coefficients, then intercept, w, xi_low, xi_high."""
    def rows():
        for h, (tau_block, coefs, scalars) in enumerate(
                zip(gen.tau_blocks, gen.coefs.tolist(), _scalars(gen).tolist()), start=1):
            for tag, block, coef in zip(("tau", "taubar", "kappa"),
                                        [tau_block, *gen.day_blocks], coefs):
                for i, value in enumerate(coef[:block.dim], start=1):
                    yield [h, f"{tag}_s{i}", value]
            for term, value in zip(("intercept", "w", "xi_low", "xi_high"), scalars):
                yield [h, term, value]

    write_csv(path, ["h", "term", "coef"], rows())


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
    """One npz of the 50 distinct spline blocks and the generator's arrays,
    the blocks padded to the longest one, plus the noise side."""
    blocks = [*gen.tau_blocks, *gen.day_blocks]
    counts = np.array([len(block.basis.interior) for block in blocks])
    k = int(counts.max(initial=0))
    arrays = {
        "ranges": _padded([(b.basis.lo, b.basis.hi) for b in blocks], 2),
        "counts": counts,
        "interiors": _padded([b.basis.interior for b in blocks], k),
        "centers": _padded([b.center for b in blocks], k + 4),
        "coefs": gen.coefs,
        "scalars": _scalars(gen),
        "sigma": gen.sigma, "corr": gen.corr, "chol": gen.chol,
    }
    meta = {"entity": gen.entity, "lams": gen.lam.tolist()}
    with replacing(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_generator(path):
    """The generator saved at path. GamModelError, naming path, for a file of
    an older layout, a meta without entity and lams, or arrays whose shapes
    do not agree."""
    with np.load(path, allow_pickle=False) as z:
        # a file of the older (48, 3) block layout has every key
        if any(key not in z.files for key in MODEL_KEYS) or z["counts"].ndim != 1:
            raise GamModelError(
                f"{path}: not a GAM model file of this version; rerun `drsim train --force`"
            )
        arrays = {key: z[key] for key in MODEL_KEYS}
    try:
        meta = json.loads(str(arrays["meta"]))
        entity, arrays["lams"] = meta["entity"], meta["lams"]
    except (ValueError, KeyError, TypeError):
        raise GamModelError(f"{path}: meta is not JSON with an entity and lams; "
                            "rerun `drsim train --force`") from None
    n, k = HALF_HOURS, int(arrays["counts"].max(initial=0))
    shapes = {"lams": (n,), "ranges": (n + 2, 2), "counts": (n + 2,),
              "interiors": (n + 2, k), "centers": (n + 2, k + 4), "coefs": (n, 3, k + 3),
              "scalars": (n, 4), "sigma": (3, n), "corr": (n, n), "chol": (n, n)}
    check_shapes(path, arrays, shapes, GamModelError, "train")
    blocks = [
        CenteredSplineBlock(CubicSplineBasis(lo, hi, interior[:c]), center[:c + 4].copy())
        for (lo, hi), c, interior, center in zip(arrays["ranges"].tolist(),
                                                 arrays["counts"].tolist(),
                                                 arrays["interiors"], arrays["centers"])
    ]
    scalars = arrays["scalars"]
    xi = np.zeros((n, 3))
    xi[:, LOW], xi[:, HIGH] = scalars[:, 2], scalars[:, 3]
    return GamGenerator(entity, blocks[:n], blocks[n:], arrays["coefs"],
                        scalars[:, 0], scalars[:, 1], xi, np.array(arrays["lams"], dtype=float),
                        arrays["sigma"], arrays["corr"], arrays["chol"])
