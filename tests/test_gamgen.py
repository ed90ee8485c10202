import csv
import datetime
import json

import numpy as np
import pytest

from drsim import dataio, gamgen
from drsim.causality import FitError, column_groups, fit_slot
from drsim.dataio import HIGH, LOW, NORMAL
from drsim.splines import (DEFAULT_QUANTILES, CenteredSplineBlock, CubicSplineBasis,
                           penalized_lstsq)


def planted_setup(n_days=240, seed=0, xi_low=0.3, xi_high=-0.2, sigma=0.05,
                  rho=0.5, window=slice(9, 19)):
    """Cluster series with an additive mean and AR-correlated noise."""
    rng = np.random.default_rng(seed)
    dates = [datetime.date(2024, 1, 1) + datetime.timedelta(days=t) for t in range(n_days)]
    calendar = dataio.build_calendar(dates)
    tau = 10.0 + 8.0 * rng.standard_normal((n_days, 48)).cumsum(axis=1) / 20.0
    taubar_daily = tau.mean(axis=1) + 0.5 * rng.standard_normal(n_days)
    tariffs = np.full((n_days, 48), NORMAL, dtype=np.int8)
    special = rng.random(n_days)
    tariffs[special < 0.3, window] = LOW
    tariffs[special > 0.7, window] = HIGH

    xi = np.array([xi_low, 0.0, xi_high])
    mean = (
        1.0
        + 0.02 * tau
        + 0.05 * np.sin(taubar_daily / 3.0)[:, None]
        + 0.1 * calendar.w[:, None]
        + 0.05 * calendar.kappa[:, None]
        + xi[tariffs]
    )
    g = rng.standard_normal((n_days, 48))
    eps = np.empty_like(g)
    eps[:, 0] = g[:, 0]
    for h in range(1, 48):
        eps[:, h] = rho * eps[:, h - 1] + np.sqrt(1 - rho**2) * g[:, h]
    kwh = mean + sigma * eps
    partition = dataio.partition_days(n_days, 0.75, seed=1)
    return kwh, tau, taubar_daily, calendar, tariffs, partition


def scalar_mean(gen, h, tau, taubar, kappa, w, tariff):
    """Slot h of one day by the per-slot scalar formula: one design call
    per block, terms added intercept, w, xi, then tau, taubar, kappa."""
    parts = gen.intercept[h] + gen.alpha_w[h] * w + gen.xi[h, tariff]
    for (block, coef), v in zip(slot_blocks(gen, h), (tau, taubar, kappa)):
        parts += float((block.design(v) @ coef)[0])
    return parts


def scalar_means(gen, tau_rows, taubar, kappa, w, tariffs):
    return np.array([
        [scalar_mean(gen, h, tau_row[h], tb, k, wd, tar[h]) for h in range(48)]
        for tau_row, tb, k, wd, tar in zip(tau_rows, taubar, kappa, w, tariffs)
    ])


def wide_days(tau, taubar, n_days=40, seed=11):
    """Regressors for n_days days under random tariffs of all three kinds,
    with a third of the temperatures and kappas beyond their knot ranges."""
    r = np.random.default_rng(seed)
    rows = r.integers(0, len(taubar), n_days)
    tau_rows = tau[rows] + r.choice([0.0, -40.0, 40.0], size=(n_days, 1))
    taubar_days = taubar[rows] + r.choice([0.0, -40.0, 40.0], size=n_days)
    kappa = r.uniform(-0.5, 1.5, n_days)
    w = r.integers(0, 2, n_days).astype(float)
    tariffs = r.integers(0, 3, size=(n_days, 48)).astype(np.int8)
    return tau_rows, taubar_days, kappa, w, tariffs


def slot_blocks(gen, h):
    """The tau, taubar and kappa blocks of slot h, with their coefficients."""
    blocks = [gen.tau_blocks[h], *gen.day_blocks]
    return [(block, coef[:block.dim]) for block, coef in zip(blocks, gen.coefs[h], strict=True)]


def slot_scalars(gen, h):
    """Slot h's intercept, working-day term and Low and High offsets."""
    return np.array([gen.intercept[h], gen.alpha_w[h], gen.xi[h, LOW], gen.xi[h, HIGH]])


def per_key_layout_arrays(gen):
    """The per-key npz layout: one set of keys per (slot, block)."""
    arrays = {"sigma": gen.sigma, "corr": gen.corr, "chol": gen.chol}
    for h in range(48):
        for i, (block, coef) in enumerate(slot_blocks(gen, h)):
            arrays[f"h{h}_range{i}"] = np.array([block.basis.lo, block.basis.hi])
            arrays[f"h{h}_interior{i}"] = block.basis.interior
            arrays[f"h{h}_center{i}"] = block.center
            arrays[f"h{h}_coef{i}"] = coef
        arrays[f"h{h}_scalars"] = slot_scalars(gen, h)
    meta = {"entity": gen.entity, "lams": gen.lam.tolist()}
    return {"meta": np.array(json.dumps(meta)), **arrays}


def slot_stacked_layout_arrays(gen):
    """The stacked layout with a copy of all three blocks per slot: (48, 3, ...)
    arrays, every row NaN past its block's own length."""
    rows = [pair for h in range(48) for pair in slot_blocks(gen, h)]
    counts = np.array([len(block.basis.interior) for block, _ in rows])
    k = int(counts.max())

    def stacked(values, width):
        out = np.full((len(values), width), np.nan)
        for r, v in zip(out, values):
            r[:len(v)] = v
        return out.reshape(48, 3, width)

    arrays = {
        "ranges": stacked([(b.basis.lo, b.basis.hi) for b, _ in rows], 2),
        "counts": counts.reshape(48, 3),
        "interiors": stacked([b.basis.interior for b, _ in rows], k),
        "centers": stacked([b.center for b, _ in rows], k + 4),
        "coefs": stacked([c for _, c in rows], k + 3),
        "scalars": np.array([slot_scalars(gen, h) for h in range(48)]),
        "sigma": gen.sigma, "corr": gen.corr, "chol": gen.chol,
    }
    meta = {"entity": gen.entity, "lams": gen.lam.tolist()}
    return {"meta": np.array(json.dumps(meta)), **arrays}


def assert_same_generator(a, b):
    assert a.entity == b.entity
    for name in ("coefs", "intercept", "alpha_w", "xi", "lam", "sigma", "corr", "chol"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert len(a.day_blocks) == len(b.day_blocks) == 2
    assert len(a.tau_blocks) == len(b.tau_blocks) == 48
    for h in range(48):
        for (ba, ca), (bb, cb) in zip(slot_blocks(a, h), slot_blocks(b, h), strict=True):
            assert (ba.basis.lo, ba.basis.hi) == (bb.basis.lo, bb.basis.hi)
            np.testing.assert_array_equal(ba.basis.interior, bb.basis.interior)
            np.testing.assert_array_equal(ba.center, bb.center)
            np.testing.assert_array_equal(ba.z, bb.z)
            np.testing.assert_array_equal(ca, cb)


def reference_half_hour(entity, h, y, tau, day_designs, day_penalties, w, tariff):
    """One entity's slot h fitted alone: its own temperature block, a one-row
    fit_slot call and a one-response penalized_lstsq call."""
    tau_block, tau_design = CenteredSplineBlock.fit(CubicSplineBasis.from_quantiles(tau), tau)
    tau_penalty = tau_block.penalty()
    _, _, scale, _ = fit_slot(tau_design, tau_penalty, y[None, :], tariff, entity, h)
    blocks = [tau_design, *day_designs, np.ones((len(y), 1)), np.asarray(w, dtype=float)[:, None]]
    penalties = [tau_penalty, *day_penalties, None, None]
    observed_special = [c for c in (LOW, HIGH) if np.any(tariff == c)]
    for code in observed_special:
        blocks.append((tariff == code).astype(float)[:, None])
        penalties.append(None)

    fit = penalized_lstsq(blocks, penalties, y)
    xi = np.zeros(3)
    for i, code in enumerate(observed_special):
        xi[code] = fit.block_coef(5 + i)[0]
    spline_coef = [fit.block_coef(i) for i in range(3)]
    scalars = (float(fit.block_coef(3)[0]), float(fit.block_coef(4)[0]), xi, fit.lam)
    fitted = np.hstack(blocks) @ fit.coef
    return tau_block, spline_coef, scalars, fitted, scale[:, 0]


def reference_generator(entity, kwh, tau, taubar_daily, calendar, tariffs, partition):
    """One entity's generator by the per-slot loop, one slot and one entity at a time."""
    train = partition.train
    taubar, kappa = taubar_daily[train], calendar.kappa[train]
    day_blocks, day_designs = zip(
        CenteredSplineBlock.fit(CubicSplineBasis.from_quantiles(taubar), taubar),
        CenteredSplineBlock.fit(CubicSplineBasis.from_uniform(kappa), kappa),
    )
    day_penalties = [block.penalty() for block in day_blocks]
    fitted = np.empty((len(train), 48))
    sigma = np.empty((3, 48))
    tau_blocks, spline_coefs = [], []
    intercept, alpha_w, lam = np.empty((3, 48))
    xi = np.empty((48, 3))
    for h in range(48):
        tau_block, spline_coef, scalars, fitted[:, h], sigma[:, h] = reference_half_hour(
            entity, h, kwh[train, h], tau[train, h], day_designs, day_penalties,
            calendar.w[train], tariffs[train, h],
        )
        tau_blocks.append(tau_block)
        spline_coefs.append(spline_coef)
        intercept[h], alpha_w[h], xi[h], lam[h] = scalars
    # every slot's three coefficient vectors, NaN-padded to the longest
    coefs = np.full((48, 3, max(len(c) for coef in spline_coefs for c in coef)), np.nan)
    for h, coef in enumerate(spline_coefs):
        for b, c in enumerate(coef):
            coefs[h, b, :len(c)] = c
    scale = sigma[tariffs[train], np.arange(48)]
    corr = gamgen.estimate_correlation((kwh[train] - fitted) / scale)
    return gamgen.GamGenerator(entity, tau_blocks, list(day_blocks), coefs, intercept, alpha_w,
                               xi, lam, sigma, corr, np.linalg.cholesky(corr))


def assert_same_model_file(a, b, tmp_path):
    gamgen.save_generator(a, tmp_path / "a.npz")
    gamgen.save_generator(b, tmp_path / "b.npz")
    with np.load(tmp_path / "a.npz") as za, np.load(tmp_path / "b.npz") as zb:
        assert za.files == zb.files
        for key in za.files:
            assert za[key].dtype == zb[key].dtype, key
            np.testing.assert_array_equal(za[key], zb[key], err_msg=key)


@pytest.fixture(scope="module")
def unequal_knots():
    kwh, tau, taubar, calendar, tariffs, partition = planted_setup(n_days=120, seed=3)
    # three temperature levels in some slots: quantile knots merge or
    # land on the range ends, so those blocks keep fewer interior knots
    for h in (0, 20, 47):
        tau[:, h] = np.digitize(tau[:, h], np.quantile(tau[:, h], [0.15, 0.5])).astype(float)
    gen = gamgen.fit_gam_generator("cluster3", kwh, tau, taubar, calendar, tariffs, partition)
    return gen, (kwh, tau, taubar, calendar, tariffs, partition)


@pytest.fixture(scope="module")
def fitted():
    kwh, tau, taubar, calendar, tariffs, partition = planted_setup()
    gen = gamgen.fit_gam_generator("cluster0", kwh, tau, taubar, calendar,
                                   tariffs, partition)
    return gen, (kwh, tau, taubar, calendar, tariffs, partition)


class TestFit:
    def test_recovers_tariff_offsets_in_window(self, fitted):
        gen, _ = fitted
        for h in range(9, 19):
            assert gen.xi[h, LOW] == pytest.approx(0.3, abs=0.06)
            assert gen.xi[h, HIGH] == pytest.approx(-0.2, abs=0.06)
            assert gen.xi[h, NORMAL] == 0.0

    def test_unobserved_tariff_offset_is_zero(self, fitted):
        gen, _ = fitted
        # outside the window no special tariff ever appears
        assert gen.xi[0, LOW] == 0.0
        assert gen.xi[0, HIGH] == 0.0

    def test_mean_profile_tracks_truth(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[0])
        f = gen.mean_profile(tau[t], taubar[t], calendar.kappa[t], calendar.w[t], tariffs[t])
        truth = (1.0 + 0.02 * tau[t] + 0.05 * np.sin(taubar[t] / 3.0)
                 + 0.1 * calendar.w[t] + 0.05 * calendar.kappa[t]
                 + np.array([0.3, 0.0, -0.2])[tariffs[t]])
        assert np.max(np.abs(f - truth)) < 0.1

    def test_correlation_recovered(self, fitted):
        gen, _ = fitted
        # AR(0.5) ground truth: corr(h, h+1) = 0.5, corr(h, h+2) = 0.25
        lag1 = np.diag(gen.corr, k=1)
        lag2 = np.diag(gen.corr, k=2)
        assert lag1.mean() == pytest.approx(0.5, abs=0.08)
        assert lag2.mean() == pytest.approx(0.25, abs=0.08)

    def test_sigma_shape_and_positive(self, fitted):
        gen, _ = fitted
        assert gen.sigma.shape == (3, 48)
        assert (gen.sigma > 0).all()

    def test_sigma_is_the_location_scale_fit_of_each_slot(self, fitted):
        gen, (kwh, tau, _, _, tariffs, partition) = fitted
        train = partition.train
        # slot 0 never sees a special tariff, so its Low and High take Normal's scale
        for h in (0, 12, 47):
            block = gen.tau_blocks[h]
            _, _, scale, _ = fit_slot(block.design(tau[train, h]), block.penalty(),
                                      kwh[train, h][None], tariffs[train, h], "cluster0", h)
            np.testing.assert_array_equal(gen.sigma[:, h], scale[:, 0])
        assert gen.sigma[LOW, 0] == gen.sigma[NORMAL, 0] == gen.sigma[HIGH, 0]

    def test_knots_at_training_quantiles_except_day_position(self, fitted):
        gen, (_, tau, taubar, calendar, _, partition) = fitted
        train = partition.train

        def knots(block):
            return block.basis.lo, block.basis.hi, block.basis.interior.tolist()

        def at_quantiles(x):
            return x.min(), x.max(), np.quantile(x, DEFAULT_QUANTILES).tolist()

        def uniform(x):
            return x.min(), x.max(), np.linspace(x.min(), x.max(), 7)[1:-1].tolist()

        for h, tau_block in enumerate(gen.tau_blocks):
            assert knots(tau_block) == at_quantiles(tau[train, h]), h
        taubar_block, kappa_block = gen.day_blocks
        assert knots(taubar_block) == at_quantiles(taubar[train])
        assert knots(kappa_block) == uniform(calendar.kappa[train])
        # the two placements differ on these days, so each assertion has teeth
        for x in (tau[train, 0], taubar[train], calendar.kappa[train]):
            assert at_quantiles(x) != uniform(x)


class TestFitErrors:
    def test_slot_without_normal_training_day_names_cluster_and_slot(self):
        kwh, tau, taubar, calendar, tariffs, partition = planted_setup(n_days=60)
        tariffs[partition.train, 5] = LOW
        with pytest.raises(FitError, match=r"^cluster0: Normal tariff never observed "
                                           r"in half-hour 6$"):
            gamgen.fit_gam_generator("cluster0", kwh, tau, taubar, calendar, tariffs,
                                     partition)

    def test_too_few_training_days_names_cluster_and_slot(self):
        kwh, tau, taubar, calendar, tariffs, partition = planted_setup(n_days=12)
        assert len(partition.train) == 9
        with pytest.raises(FitError, match=r"^cluster0: need at least 12 observations "
                                           r"in half-hour 1, got 9$"):
            gamgen.fit_gam_generator("cluster0", kwh, tau, taubar, calendar, tariffs,
                                     partition)


def entity_series(kwh, n, seed=4):
    """n distinct consumption grids around kwh: scaled, shifted and re-noised."""
    r = np.random.default_rng(seed)
    return np.stack([kwh * (1.0 + 0.2 * i) + 0.1 * i + 0.03 * r.standard_normal(kwh.shape)
                     for i in range(n)])


class TestFitTogether:
    """fit_gam_generators gives each entity the generator of the per-slot loop
    that fits it alone, bit for bit."""

    def assert_matches_reference(self, ids, kwh, tariffs, setup, tmp_path):
        _, tau, taubar, calendar, _, partition = setup
        gens = gamgen.fit_gam_generators(ids, kwh, tau, taubar, calendar, tariffs, partition)
        days = wide_days(tau, taubar, n_days=12)
        assert [gen.entity for gen in gens] == ids
        for i, gen in enumerate(gens):
            ref = reference_generator(ids[i], kwh[i], tau, taubar, calendar, tariffs[i], partition)
            assert_same_generator(gen, ref)
            assert gen.coefs.flags.c_contiguous
            assert np.array_equal(gen.mean_profiles(*days), ref.mean_profiles(*days))
            assert_same_model_file(gen, ref, tmp_path)

    @pytest.mark.parametrize("n", [1, 3])
    def test_entities_that_share_a_schedule(self, n, tmp_path):
        setup = planted_setup(n_days=120, seed=5)
        kwh, tariffs = setup[0], setup[4]
        self.assert_matches_reference([f"cluster{i}" for i in range(n)], entity_series(kwh, n),
                                      np.stack([tariffs] * n), setup, tmp_path)

    def test_entities_whose_tariff_columns_form_two_groups(self, tmp_path):
        setup = planted_setup(n_days=120, seed=6)
        kwh, tariffs, train = setup[0], setup[4], setup[5].train
        # the third schedule moves the special days: inside the window its
        # columns differ from the other two, outside they are all Normal
        schedules = np.stack([tariffs, tariffs, np.roll(tariffs, 5, axis=0)])
        groups = [column_groups(schedules[:, train, h]) for h in range(48)]
        assert groups[0] == [[0, 1, 2]] and groups[12] == [[0, 1], [2]]
        self.assert_matches_reference(["a", "b", "c"], entity_series(kwh, 3), schedules,
                                      setup, tmp_path)

    def test_slot_without_normal_day_names_the_first_entity_of_its_group(self):
        kwh, tau, taubar, calendar, tariffs, partition = planted_setup(n_days=60)
        schedules = np.stack([tariffs] * 3)
        schedules[1:, partition.train, 5] = LOW
        with pytest.raises(FitError, match=r"^b: Normal tariff never observed in half-hour 6$"):
            gamgen.fit_gam_generators(["a", "b", "c"], entity_series(kwh, 3), tau, taubar,
                                      calendar, schedules, partition)


class TestMeanProfiles:
    def test_bit_identical_to_scalar_formula(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        days = wide_days(tau, taubar)
        tau_rows, taubar_days, kappa, _, day_tariffs = days
        # clamping and every tariff are exercised
        assert (tau_rows < tau.min()).any() and (tau_rows > tau.max()).any()
        assert (taubar_days < taubar.min()).any() and (taubar_days > taubar.max()).any()
        assert (kappa < 0).any() and (kappa > 1).any()
        assert set(np.unique(day_tariffs[:, 9:19])) == {LOW, NORMAL, HIGH}
        expected = scalar_means(gen, *days)
        assert np.array_equal(gen.mean_profiles(*days), expected)
        for d, args in enumerate(zip(*days)):
            assert np.array_equal(gen.mean_profile(*args), expected[d])

    def test_rows_do_not_depend_on_the_other_days(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        days = wide_days(tau, taubar, n_days=30, seed=12)
        full = gen.mean_profiles(*days)
        assert np.array_equal(gen.mean_profiles(*(a[7:9] for a in days)), full[7:9])

    def test_sample_is_mean_plus_draw(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[0])
        args = (tau[t], taubar[t], calendar.kappa[t], calendar.w[t], tariffs[t])
        np.testing.assert_array_equal(
            gen.sample(*args, n_samples=6, seed=8),
            gen.draw(gen.mean_profile(*args), tariffs[t], 6, 8),
        )


class TestEstimateCorrelation:
    def test_matches_corrcoef_when_well_conditioned(self, rng):
        e = rng.standard_normal((300, 6))
        corr = gamgen.estimate_correlation(e)
        np.testing.assert_allclose(corr, np.corrcoef(e, rowvar=False), atol=1e-12)

    def test_unit_diagonal(self, rng):
        corr = gamgen.estimate_correlation(rng.standard_normal((40, 8)))
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-14)

    def test_rank_deficient_repaired_to_cholesky(self, rng):
        # fewer rows than channels: the raw matrix cannot be PD
        e = rng.standard_normal((10, 20))
        corr = gamgen.estimate_correlation(e)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        chol = np.linalg.cholesky(corr)
        assert np.isfinite(chol).all()
        assert np.linalg.eigvalsh(corr).min() > 0

    def test_constant_channel_raises_with_half_hour(self, rng):
        e = rng.standard_normal((30, 5))
        e[:, 2] = 1.0
        with pytest.raises(gamgen.CorrelationError, match="half-hour 3"):
            gamgen.estimate_correlation(e)

    def test_too_few_rows_raises(self):
        with pytest.raises(gamgen.CorrelationError):
            gamgen.estimate_correlation(np.ones((1, 4)))


class TestSampling:
    def test_in_window_only_effect_is_exact(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[0])
        normal_day = np.full(48, NORMAL, dtype=np.int8)
        low_day = normal_day.copy()
        low_day[9:19] = LOW
        base = gen.mean_profile(tau[t], taubar[t], calendar.kappa[t], calendar.w[t], normal_day)
        shifted = gen.mean_profile(tau[t], taubar[t], calendar.kappa[t], calendar.w[t], low_day)
        diff = shifted - base
        outside = np.ones(48, dtype=bool)
        outside[9:19] = False
        np.testing.assert_array_equal(diff[outside], 0.0)
        np.testing.assert_allclose(diff[9:19], gen.xi[9:19, LOW])

    def test_sample_mean_converges_to_profile(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[1])
        f = gen.mean_profile(tau[t], taubar[t], calendar.kappa[t], calendar.w[t], tariffs[t])
        draws = gen.sample(tau[t], taubar[t], calendar.kappa[t], calendar.w[t],
                           tariffs[t], n_samples=4000, seed=2, clamp=False)
        np.testing.assert_allclose(draws.mean(axis=0), f, atol=0.01)

    def test_sample_covariance_tracks_sigma_and_corr(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[2])
        draws = gen.sample(tau[t], taubar[t], calendar.kappa[t], calendar.w[t],
                           tariffs[t], n_samples=20000, seed=3, clamp=False)
        s = gen.sigma_profile(tariffs[t])
        standardized = (draws - draws.mean(axis=0)) / s
        emp = np.corrcoef(standardized, rowvar=False)
        assert np.max(np.abs(emp - gen.corr)) < 0.05

    def test_clamp_floors_at_zero(self):
        # flat mean barely above zero with unit noise: draws must clamp
        block = CenteredSplineBlock(CubicSplineBasis(-1.0, 1.0, []), np.full(4, 0.25))
        gen = gamgen.GamGenerator(
            entity="toy", tau_blocks=[block] * 48, day_blocks=[block, block],
            coefs=np.zeros((48, 3, 3)), intercept=np.full(48, 0.01), alpha_w=np.zeros(48),
            xi=np.zeros((48, 3)), lam=np.ones(48),
            sigma=np.ones((3, 48)), corr=np.eye(48), chol=np.eye(48),
        )
        args = (np.zeros(48), 0.0, 0.0, 0.0, np.full(48, NORMAL, dtype=np.int8))
        clamped = gen.sample(*args, n_samples=50, seed=4)
        raw = gen.sample(*args, n_samples=50, seed=4, clamp=False)
        assert clamped.min() >= 0.0
        assert raw.min() < 0.0
        np.testing.assert_array_equal(clamped, np.maximum(raw, 0.0))

    def test_seed_determinism(self, fitted):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        t = int(partition.test[0])
        args = (tau[t], taubar[t], calendar.kappa[t], calendar.w[t], tariffs[t])
        a = gen.sample(*args, n_samples=8, seed=9)
        b = gen.sample(*args, n_samples=8, seed=9)
        c = gen.sample(*args, n_samples=8, seed=10)
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    def test_sigma_profile_picks_per_tariff_scale(self, fitted):
        gen, _ = fitted
        tariffs = np.full(48, NORMAL, dtype=np.int8)
        tariffs[9:19] = LOW
        s = gen.sigma_profile(tariffs)
        np.testing.assert_array_equal(s[9:19], gen.sigma[LOW, 9:19])
        np.testing.assert_array_equal(s[:9], gen.sigma[NORMAL, :9])


class TestPersistence:
    def test_save_load_round_trip_bitwise(self, fitted, tmp_path):
        gen, (kwh, tau, taubar, calendar, tariffs, partition) = fitted
        path = tmp_path / "gam.npz"
        gamgen.save_generator(gen, path)
        loaded = gamgen.load_generator(path)
        assert loaded.entity == gen.entity
        np.testing.assert_array_equal(loaded.sigma, gen.sigma)
        np.testing.assert_array_equal(loaded.corr, gen.corr)
        t = int(partition.test[0])
        args = (tau[t], taubar[t], calendar.kappa[t], calendar.w[t], tariffs[t])
        np.testing.assert_array_equal(
            loaded.sample(*args, n_samples=16, seed=5), gen.sample(*args, n_samples=16, seed=5)
        )
        f_orig = gen.mean_profile(*args)
        f_back = loaded.mean_profile(*args)
        np.testing.assert_array_equal(f_back, f_orig)
        assert_same_generator(loaded, gen)

    def test_model_file_holds_each_distinct_block_once(self, fitted, tmp_path):
        gen, _ = fitted
        path = tmp_path / "gam.npz"
        gamgen.save_generator(gen, path)
        with np.load(path) as z:
            # the 48 tau blocks, then taubar and kappa
            for key in ("ranges", "counts", "interiors", "centers"):
                assert len(z[key]) == 50
            assert z["coefs"].shape[:2] == (48, 3)
            np.testing.assert_array_equal(z["ranges"][48], [gen.day_blocks[0].basis.lo,
                                                            gen.day_blocks[0].basis.hi])
            np.testing.assert_array_equal(z["ranges"][49], [gen.day_blocks[1].basis.lo,
                                                            gen.day_blocks[1].basis.hi])

    def test_round_trip_with_unequal_knot_counts(self, unequal_knots, tmp_path):
        gen, (_, tau, taubar, _, _, _) = unequal_knots
        counts = [len(b.basis.interior)
                  for b in [*gen.tau_blocks, *gen.day_blocks]]
        assert min(counts) < max(counts) == 5
        path = tmp_path / "gam.npz"
        gamgen.save_generator(gen, path)
        loaded = gamgen.load_generator(path)
        assert_same_generator(loaded, gen)
        days = wide_days(tau, taubar, n_days=12)
        assert np.array_equal(loaded.mean_profiles(*days), gen.mean_profiles(*days))

    @pytest.mark.parametrize("layout", [per_key_layout_arrays, slot_stacked_layout_arrays],
                             ids=["per-key", "slot-stacked"])
    def test_old_per_key_layout_names_the_file(self, fitted, tmp_path, layout):
        gen, _ = fitted
        path = tmp_path / "gam_cluster0.npz"
        np.savez(path, **layout(gen))
        with pytest.raises(gamgen.GamModelError, match=r"gam_cluster0\.npz.*train --force"):
            gamgen.load_generator(path)

    @pytest.mark.parametrize("key, cut", [
        ("scalars", np.s_[:47]), ("coefs", np.s_[..., :5]), ("chol", np.s_[:40]),
        ("corr", np.s_[:, :47]), ("sigma", np.s_[:2]), ("counts", np.s_[:49]),
        ("ranges", np.s_[1:]), ("interiors", np.s_[:, :4]), ("centers", np.s_[:49]),
    ])
    def test_arrays_that_disagree_in_shape_name_the_file(self, fitted, tmp_path, key, cut):
        gen, _ = fitted
        path = tmp_path / "gam_cluster0.npz"
        gamgen.save_generator(gen, path)
        with np.load(path) as z:
            arrays = dict(z)
        arrays[key] = arrays[key][cut]
        np.savez(path, **arrays)
        with pytest.raises(gamgen.GamModelError,
                           match=rf"gam_cluster0\.npz: {key} has shape .*train --force"):
            gamgen.load_generator(path)

    @pytest.mark.parametrize("meta, error", [
        ({"entity": "cluster0", "lams": [1.0] * 47}, r"lams has shape \(47,\), expected \(48,\)"),
        ({"entity": "cluster0"}, "meta is not JSON with an entity and lams"),
        ({"lams": [1.0] * 48}, "meta is not JSON with an entity and lams"),
        ([1.0] * 48, "meta is not JSON with an entity and lams"),
        ("{not json", "meta is not JSON with an entity and lams"),
    ], ids=["47-lams", "no-lams", "no-entity", "a-list", "not-json"])
    def test_meta_without_one_lambda_per_slot_names_the_file(self, fitted, tmp_path, meta, error):
        gen, _ = fitted
        path = tmp_path / "gam_cluster0.npz"
        gamgen.save_generator(gen, path)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["meta"] = np.array(meta if isinstance(meta, str) else json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(gamgen.GamModelError, match=rf"gam_cluster0\.npz: {error}"):
            gamgen.load_generator(path)

    @staticmethod
    def assert_export_pins_every_value(gen, tmp_path):
        """Each slot's rows: its block dims' spline terms in block order, then the
        four scalars; every field the repr of the Python float, read back bit for bit."""
        path = tmp_path / "coef.csv"
        gamgen.export_coefficients_csv(gen, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "term", "coef"]
        dims = [[block.dim for block in (tau_block, *gen.day_blocks)]
                for tau_block in gen.tau_blocks]
        assert len(rows) - 1 == sum(sum(d) + 4 for d in dims)
        body = iter(rows[1:])
        back = {name: np.full_like(getattr(gen, name), np.nan)
                for name in ("coefs", "intercept", "alpha_w", "xi")}
        back["xi"][:, NORMAL] = 0.0
        for h in range(48):
            cells = [(f"{tag}_s{i + 1}", ("coefs", h, b, i))
                     for b, tag in enumerate(("tau", "taubar", "kappa"))
                     for i in range(dims[h][b])]
            cells += [("intercept", ("intercept", h)), ("w", ("alpha_w", h)),
                      ("xi_low", ("xi", h, LOW)), ("xi_high", ("xi", h, HIGH))]
            for term, (name, *index) in cells:
                row = next(body)
                assert row[:2] == [str(h + 1), term]
                assert row[2] == repr(float(getattr(gen, name)[tuple(index)])), (h, term)
                back[name][tuple(index)] = float(row[2])
        for name, array in back.items():
            assert array.tobytes() == getattr(gen, name).tobytes(), name

    def test_coefficient_export_layout(self, fitted, tmp_path):
        self.assert_export_pins_every_value(fitted[0], tmp_path)

    def test_coefficient_export_with_unequal_knot_counts(self, unequal_knots, tmp_path):
        self.assert_export_pins_every_value(unequal_knots[0], tmp_path)

    def test_sigma_matrix_export_is_dense_48(self, fitted, tmp_path):
        gen, _ = fitted
        path = tmp_path / "sigma.csv"
        gamgen.export_sigma_matrix_csv(gen, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 48 and all(len(r) == 48 for r in rows)
        back = np.array([[float(v) for v in r] for r in rows])
        np.testing.assert_array_equal(back, gen.corr)
