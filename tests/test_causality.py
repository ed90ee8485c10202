import csv
import time

import numpy as np
import pytest

from drsim import causality, parallel
from drsim.dataio import HIGH, LOW, NORMAL
from drsim.splines import CenteredSplineBlock, CubicSplineBasis


def planted_series(n=400, seed=0, xi=(0.4, 0.0, -0.3), sigma=(0.08, 0.1, 0.12),
                   f=lambda tau: 0.25 * np.sin(tau / 4.0)):
    """One half-hour series with a smooth temperature effect and known offsets."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(-2.0, 22.0, size=n)
    tariff = rng.integers(0, 3, size=n).astype(np.int8)
    xi = np.asarray(xi)
    sigma = np.asarray(sigma)
    y = 1.0 + f(tau) + xi[tariff] + sigma[tariff] * rng.standard_normal(n)
    return y, tau, tariff


def fit_series(y, tau, tariff):
    """fit_slot on one series with its own temperature block; returns the
    block, then the spline coefficients, tariff offsets, scales and lambda."""
    block, design = CenteredSplineBlock.fit(CubicSplineBasis.from_quantiles(tau), tau)
    coef, tariff_coef, scale, lam = causality.fit_slot(
        design, block.penalty(), y[None, :], tariff, "hh", 0
    )
    return block, coef[0], tariff_coef[:, 0], scale[:, 0], lam[0]


class TestFitLocationScale:
    def test_recovers_tariff_contrasts(self):
        y, tau, tariff = planted_series()
        _, _, coef, _, _ = fit_series(y, tau, tariff)
        assert coef[LOW] - coef[NORMAL] == pytest.approx(0.4, abs=0.05)
        assert coef[HIGH] - coef[NORMAL] == pytest.approx(-0.3, abs=0.05)

    def test_recovers_scales_within_20_percent(self):
        y, tau, tariff = planted_series(n=900, seed=3)
        _, _, _, scale, _ = fit_series(y, tau, tariff)
        for code, truth in zip((LOW, NORMAL, HIGH), (0.08, 0.1, 0.12)):
            assert scale[code] == pytest.approx(truth, rel=0.2)

    def test_predict_mean_tracks_nonlinear_effect(self):
        y, tau, tariff = planted_series(n=800, seed=5)
        block, spline_coef, tariff_coef, _, _ = fit_series(y, tau, tariff)
        grid = np.linspace(0.0, 20.0, 50)
        pred = block.design(grid) @ spline_coef + tariff_coef[NORMAL]
        truth = 1.0 + 0.25 * np.sin(grid / 4.0)
        assert np.max(np.abs(pred - truth)) < 0.06

    def test_unobserved_tariff_marked_unavailable(self):
        y, tau, tariff = planted_series(seed=7)
        tariff[tariff == HIGH] = NORMAL
        _, _, coef, scale, _ = fit_series(y, tau, tariff)
        assert np.isnan(coef[HIGH]) and np.isfinite(coef[[LOW, NORMAL]]).all()
        assert scale[HIGH] == scale[NORMAL] != scale[LOW]

    def test_noiseless_series_hits_scale_floor(self):
        rng = np.random.default_rng(2)
        tau = rng.uniform(0.0, 20.0, size=200)
        tariff = np.full(200, NORMAL, dtype=np.int8)
        y = np.full(200, 1.5)
        _, _, _, scale, _ = fit_series(y, tau, tariff)
        assert (scale == causality.SCALE_FLOOR).all()

    def test_scale_is_half_normal_moment_of_residuals(self):
        y, tau, tariff = planted_series(seed=9)
        block, spline_coef, tariff_coef, scale, _ = fit_series(y, tau, tariff)
        resid = y - (block.design(tau) @ spline_coef + tariff_coef[tariff])
        for code in (LOW, NORMAL, HIGH):
            expected = np.abs(resid[tariff == code]).mean() * np.sqrt(np.pi / 2.0)
            assert scale[code] == pytest.approx(expected, rel=1e-12)

    def test_too_few_observations_raises(self):
        with pytest.raises(causality.FitError,
                           match=r"^hh: need at least 12 observations in half-hour 1, got 5$"):
            fit_series(np.ones(5), np.linspace(0, 1, 5), np.zeros(5, dtype=np.int8))

    def test_level_shift_moves_offsets_not_spline(self):
        y, tau, tariff = planted_series(seed=11)
        _, spline_a, coef_a, _, _ = fit_series(y, tau, tariff)
        _, spline_b, coef_b, _, _ = fit_series(y + 5.0, tau, tariff)
        np.testing.assert_allclose(spline_b, spline_a, atol=1e-6)
        np.testing.assert_allclose(coef_b, coef_a + 5.0, atol=1e-6)


class TestTariffProfile:
    """Profiles of one household, fitted alone."""

    def small_entity(self, seed=0, n_days=120, high_free_slot=None):
        rng = np.random.default_rng(seed)
        tau = rng.uniform(2.0, 18.0, size=(n_days, 48))
        tariff = rng.integers(0, 3, size=(n_days, 48)).astype(np.int8)
        if high_free_slot is not None:
            tariff[tariff[:, high_free_slot] == HIGH, high_free_slot] = NORMAL
        base = np.linspace(0.4, 0.9, 48)
        kwh = base + 0.01 * tau + np.array([0.2, 0.0, -0.1])[tariff]
        kwh = kwh + 0.05 * rng.standard_normal(kwh.shape)
        return kwh, tau, tariff

    def test_profile_is_day_average_of_predictions(self):
        kwh, tau, tariff = self.small_entity()
        prof = causality.fit_profiles(["hh"], kwh[None], tau, tariff[None])
        assert prof.ids == ["hh"]
        assert prof.mu.shape == prof.sigma.shape == (1, 3, 48) and prof.lam.shape == (1, 48)
        for h in (0, 17, 47):
            block, spline_coef, tariff_coef, scale, lam = fit_series(
                kwh[:, h], tau[:, h], tariff[:, h]
            )
            for code in (LOW, NORMAL, HIGH):
                expected = np.mean(block.design(tau[:, h]) @ spline_coef + tariff_coef[code])
                assert prof.mu[0, code, h] == expected
                assert prof.sigma[0, code, h] == scale[code]
            assert prof.lam[0, h] == lam

    def test_unavailable_tariff_substitutes_normal(self):
        kwh, tau, tariff = self.small_entity(seed=4, high_free_slot=10)
        prof = causality.fit_profiles(["hh"], kwh[None], tau, tariff[None])
        mu, sigma = prof.mu[0], prof.sigma[0]
        assert mu[HIGH, 10] == mu[NORMAL, 10]
        assert sigma[HIGH, 10] == sigma[NORMAL, 10]
        assert mu[HIGH, 11] != mu[NORMAL, 11]

    def test_missing_normal_raises(self):
        kwh, tau, tariff = self.small_entity(seed=6)
        tariff[:, 3] = LOW
        with pytest.raises(causality.FitError,
                           match=r"^hh: Normal tariff never observed in half-hour 4$"):
            causality.fit_profiles(["hh"], kwh[None], tau, tariff[None])

    def test_csv_round_trip_exact(self, tmp_path):
        kwh, tau, tariff = self.small_entity(seed=8, n_days=60)
        prof = causality.fit_profiles(["tou042"], kwh[None], tau, tariff[None])
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(prof, path)
        loaded = causality.read_profiles_csv(path)
        assert loaded.ids == ["tou042"] and loaded.lam is None
        np.testing.assert_array_equal(loaded.mu, prof.mu)
        np.testing.assert_array_equal(loaded.sigma, prof.sigma)

    def test_csv_round_trip_of_many_entities(self, tmp_path):
        rng = np.random.default_rng(3)
        ids = ["tou002", "std001", "tou010"]
        prof = causality.ResponseProfiles(ids, rng.normal(size=(3, 3, 48)),
                                          rng.uniform(0.01, 0.3, size=(3, 3, 48)))
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(prof, path)
        loaded = causality.read_profiles_csv(path)
        assert loaded.ids == ids
        np.testing.assert_array_equal(loaded.mu, prof.mu)
        np.testing.assert_array_equal(loaded.sigma, prof.sigma)
        # one entity,tariff,h row per cell, entity-major, then Low/Normal/High, then h
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 48
        assert lines[1] == f"tou002,LOW,1,{float(prof.mu[0, LOW, 0])!r},{float(prof.sigma[0, LOW, 0])!r}"
        assert lines[-1].startswith("tou010,HIGH,48,")

    @pytest.mark.parametrize("ids", [["tou002", "std001"], ["a,b", 'say "hi"', "plain"]],
                             ids=["plain-ids", "ids-with-a-comma-or-a-quote"])
    def test_csv_is_what_csv_writer_writes(self, tmp_path, ids):
        rng = np.random.default_rng(5)
        prof = causality.ResponseProfiles(ids, rng.normal(size=(len(ids), 3, 48)),
                                          rng.uniform(0.01, 0.3, size=(len(ids), 3, 48)))
        path, want = tmp_path / "profiles.csv", tmp_path / "want.csv"
        causality.export_profiles_csv(prof, path)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(causality.PROFILE_HEADER)
            writer.writerows([entity, causality.TARIFF_NAMES[code], h + 1,
                              float(prof.mu[i, code, h]), float(prof.sigma[i, code, h])]
                             for i, entity in enumerate(ids) for code in (LOW, NORMAL, HIGH)
                             for h in range(48))
        assert path.read_bytes() == want.read_bytes()
        loaded = causality.read_profiles_csv(path)
        assert loaded.ids == ids
        np.testing.assert_array_equal(loaded.mu, prof.mu)
        np.testing.assert_array_equal(loaded.sigma, prof.sigma)

    def test_csv_header_only_reads_no_entity(self, tmp_path):
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(
            causality.ResponseProfiles([], np.empty((0, 3, 48)), np.empty((0, 3, 48))), path
        )
        loaded = causality.read_profiles_csv(path)
        assert loaded.ids == [] and loaded.mu.shape == loaded.sigma.shape == (0, 3, 48)

    @pytest.mark.parametrize("row", [
        "tou001,LOW,0,0.5,0.25",
        "tou001,LOW,49,0.5,0.25",
        "tou001,FLAT,1,0.5,0.25",
        "tou001,LOW,1,abc,0.25",
        "tou001,LOW,1,0.5,",
        "tou001,LOW,1,0.5",
        "tou001,LOW,1,nan,0.25",
    ], ids=["h-zero", "h-49", "unknown-tariff", "text-mu", "empty-sigma", "short-row", "nan-mu"])
    def test_csv_bad_row_names_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(causality.ResponseProfiles(
            ["tou001"], np.full((1, 3, 48), 0.5), np.full((1, 3, 48), 0.25)), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "tou001,LOW,1,0.5,0.25"
        path.write_text("\n".join([lines[0], row] + lines[2:]) + "\n")
        with pytest.raises(causality.FitError, match=rf"profiles\.csv: line 2 \({row}\) needs "
                                                     r"a tariff of LOW/NORMAL/HIGH"):
            causality.read_profiles_csv(path)

    def test_csv_entity_missing_a_cell_names_the_file_and_cell(self, tmp_path):
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(causality.ResponseProfiles(
            ["tou001", "tou002"], np.zeros((2, 3, 48)), np.ones((2, 3, 48))), path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[1 + 144 + 48 + 4].startswith("tou002,NORMAL,5,")
        del lines[1 + 144 + 48 + 4]
        path.write_text("".join(lines))
        with pytest.raises(causality.FitError, match=r"profiles\.csv: tou002 has no row for "
                                                     r"tariff NORMAL in half-hour 5$"):
            causality.read_profiles_csv(path)

    def test_csv_repeated_cell_names_the_file_line_and_cell(self, tmp_path):
        path = tmp_path / "profiles.csv"
        causality.export_profiles_csv(causality.ResponseProfiles(
            ["a", "b"], np.zeros((2, 3, 48)), np.ones((2, 3, 48))), path)
        with open(path, "a") as fh:
            fh.write("a,LOW,1,9.0,1.0\n")
        with pytest.raises(causality.FitError, match=r"profiles\.csv: line 290 repeats the "
                                                     r"cell \(a, LOW, 1\)$"):
            causality.read_profiles_csv(path)

    def test_csv_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("entity,tariff,hour,mu,sigma\n")
        with pytest.raises(causality.FitError):
            causality.read_profiles_csv(path)


class TestEndToEndRecovery:
    def test_planted_deltas_from_population(self, small_population):
        """The full chain (synth -> fits -> profiles) recovers who responds."""
        pop = small_population
        saver, flat = 0, 4  # archetype blocks of four households each
        mu = causality.fit_profiles(
            [pop.household_ids[i] for i in (saver, flat)], pop.kwh[[saver, flat]], pop.tau,
            pop.tariff[[saver, flat]],
        ).mu
        window = slice(9, 19)
        saver_shift = (mu[0, LOW] - mu[0, NORMAL])[window].mean()
        flat_shift = (mu[1, LOW] - mu[1, NORMAL])[window].mean()
        assert saver_shift == pytest.approx(0.5, abs=0.1)
        assert abs(flat_shift) < 0.1


class TestFitProfiles:
    """The batched fitter against each household fitted alone."""

    @pytest.fixture(scope="class")
    def mixed_schedules(self, small_population):
        """TOU households on two schedules plus all-Normal Std households.

        tou006/tou007 take a third schedule in which the first four Low cells
        of every slot turn High, so some slots hold three tariff groups; the
        Std group never sees Low or High and must fall back to Normal.
        """
        pop = small_population
        tariff = pop.tariff.copy()
        for i in (6, 7):
            for h in range(48):
                low_days = np.flatnonzero(tariff[i, :, h] == LOW)[:4]
                tariff[i, low_days, h] = HIGH
        return pop.household_ids, pop.kwh, pop.tau, tariff

    def test_slots_hold_several_schedule_groups(self, mixed_schedules):
        _, _, _, tariff = mixed_schedules
        groups = [len({tariff[i, :, h].tobytes() for i in range(len(tariff))})
                  for h in range(48)]
        assert max(groups) == 3 and min(groups) >= 1

    def test_matches_per_household_fits(self, mixed_schedules):
        ids, kwh, tau, tariff = mixed_schedules
        batched = causality.fit_profiles(ids, kwh, tau, tariff)
        assert batched.ids == list(ids)
        for i in range(len(ids)):
            alone = causality.fit_profiles([ids[i]], kwh[i:i + 1], tau, tariff[i:i + 1])
            np.testing.assert_array_equal(batched.mu[i], alone.mu[0])
            np.testing.assert_array_equal(batched.sigma[i], alone.sigma[0])
            np.testing.assert_array_equal(batched.lam[i], alone.lam[0])

    def test_group_without_special_tariffs_falls_back_to_normal(self, mixed_schedules):
        ids, kwh, tau, tariff = mixed_schedules
        std = [i for i, hid in enumerate(ids) if hid.startswith("std")]
        assert std and all((tariff[i] == NORMAL).all() for i in std)
        batched = causality.fit_profiles(ids, kwh, tau, tariff)
        for i in std:
            for code in (LOW, HIGH):
                np.testing.assert_array_equal(batched.mu[i, code], batched.mu[i, NORMAL])
                np.testing.assert_array_equal(batched.sigma[i, code], batched.sigma[i, NORMAL])

    def test_missing_normal_names_the_household(self, mixed_schedules):
        ids, kwh, tau, tariff = mixed_schedules
        tariff = tariff.copy()
        tariff[3, :, 5] = LOW
        with pytest.raises(causality.FitError, match=rf"{ids[3]}: .*half-hour 6"):
            causality.fit_profiles(ids, kwh, tau, tariff)

    def test_too_few_days_names_the_household(self, mixed_schedules):
        ids, kwh, tau, tariff = mixed_schedules
        with pytest.raises(causality.FitError, match=rf"{ids[0]}: need at least"):
            causality.fit_profiles(ids, kwh[:, :6], tau[:6], tariff[:, :6])

    def test_shape_mismatch_raises(self, mixed_schedules):
        ids, kwh, tau, tariff = mixed_schedules
        with pytest.raises(causality.FitError):
            causality.fit_profiles(ids[:-1], kwh, tau, tariff)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_and_two_cpus_fit_the_same_bits(self, mixed_schedules, monkeypatch, cpus):
        ids, kwh, tau, tariff = mixed_schedules
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        alone = causality.fit_profiles(ids, kwh, tau, tariff)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        pooled = causality.fit_profiles(ids, kwh, tau, tariff)
        for name in ("mu", "sigma", "lam"):
            a, b = getattr(alone, name), getattr(pooled, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_comes_from_the_earliest_failing_half_hour(self, mixed_schedules, monkeypatch,
                                                            cpus):
        # half-hour 40 fails at once, half-hour 6 only after the others have run
        ids, kwh, tau, tariff = mixed_schedules
        tariff = tariff.copy()
        tariff[3, :, 5] = LOW
        tariff[5, :, 39] = HIGH
        fit_half_hour = causality._fit_half_hour

        def slow_sixth(*args):
            if args[-1] == 5:
                time.sleep(0.3)
            return fit_half_hour(*args)

        monkeypatch.setattr(causality, "_fit_half_hour", slow_sixth)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        with pytest.raises(causality.FitError, match=rf"^{ids[3]}: .*half-hour 6$"):
            causality.fit_profiles(ids, kwh, tau, tariff)
