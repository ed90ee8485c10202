import csv
import dataclasses
import datetime
import tracemalloc
import warnings

import numpy as np
import pytest

from drsim import synthdata
from drsim.dataio import (
    CONSUMPTION_HEADER, HALF_HOURS, HIGH, LOW, NORMAL, TARIFF_NAMES, build_calendar,
    temperature_grid,
)
from drsim.synthdata import TEMP_REF_C


class ZeroRng:
    """Stands in for a Generator so the noise term vanishes exactly."""

    def standard_normal(self, n):
        return np.zeros(n)


def make_arch(**kw):
    spec = dict(
        name="t",
        base_shape=np.full(48, 0.5),
        temp_coeff=0.0,
        workday_offset=0.0,
        delta_low=0.2,
        delta_high=-0.1,
        rebound=0.5,
        side_width=0,
        noise_std=(0.05, 0.05, 0.05),
        ar_coeff=0.0,
    )
    spec.update(kw)
    return synthdata.ArchetypeSpec(**spec)


class TestArchetypeSpec:
    def test_default_archetypes_valid_and_distinct(self):
        archs = synthdata.default_archetypes()
        assert len({a.name for a in archs}) == len(archs) == 4
        for a in archs:
            assert a.base_shape.shape == (48,)
            assert (a.base_shape > 0).all()

    @pytest.mark.parametrize(
        "kw",
        [
            {"base_shape": np.full(47, 0.5)},
            {"base_shape": np.full(48, -0.1)},
            {"rebound": 1.2},
            {"side_width": -1},
            {"noise_std": (0.1, 0.1)},
            {"noise_std": (0.1, 0.0, 0.1)},
            {"ar_coeff": 1.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(synthdata.SynthError):
            make_arch(**kw)

    def test_smooth_shape_peak_location(self):
        shape = synthdata.smooth_shape(0.3, [(20, 3.0, 1.0)])
        assert shape.shape == (48,)
        assert np.argmax(shape) == 19  # bump centered on half-hour 20, 1-based
        assert shape.min() >= 0.3


class TestTariffAdjustment:
    def test_all_normal_is_zero(self):
        adj = synthdata.tariff_adjustment(make_arch(), np.full(48, NORMAL, dtype=np.int8))
        np.testing.assert_array_equal(adj, 0.0)

    def test_window_side_and_rebound_oracle(self):
        arch = make_arch(delta_low=0.2, rebound=0.5, side_width=2)
        p = np.full(48, NORMAL, dtype=np.int8)
        p[9:19] = LOW  # the morning window, half-hours 10..19
        adj = synthdata.tariff_adjustment(arch, p)
        np.testing.assert_allclose(adj[9:19], 0.2)
        np.testing.assert_allclose(adj[[7, 8, 19, 20]], 0.1)
        outside = np.ones(48, dtype=bool)
        outside[7:21] = False
        # rebound removes rebound*delta*window_length spread over the rest
        np.testing.assert_allclose(adj[outside], -0.5 * 0.2 * 10 / outside.sum())
        assert adj.sum() == pytest.approx(0.2 * 10 + 0.1 * 4 - 0.5 * 0.2 * 10)

    def test_no_rebound_no_side(self):
        arch = make_arch(delta_high=-0.3, rebound=0.0, side_width=0)
        p = np.full(48, NORMAL, dtype=np.int8)
        p[39:44] = HIGH
        adj = synthdata.tariff_adjustment(arch, p)
        np.testing.assert_allclose(adj[39:44], -0.3)
        np.testing.assert_array_equal(adj[:39], 0.0)
        np.testing.assert_array_equal(adj[44:], 0.0)

    def test_side_zone_clipped_at_grid_edges(self):
        arch = make_arch(side_width=3, rebound=0.0)
        p = np.full(48, NORMAL, dtype=np.int8)
        p[:4] = LOW  # window starts at the first half-hour: no left side zone
        adj = synthdata.tariff_adjustment(arch, p)
        np.testing.assert_allclose(adj[:4], 0.2)
        np.testing.assert_allclose(adj[4:7], 0.1)
        np.testing.assert_array_equal(adj[7:], 0.0)

    def test_two_runs_accumulate(self):
        arch = make_arch(delta_low=0.4, delta_high=-0.2, rebound=0.0, side_width=0)
        p = np.full(48, NORMAL, dtype=np.int8)
        p[5:10] = LOW
        p[40:44] = HIGH
        adj = synthdata.tariff_adjustment(arch, p)
        np.testing.assert_allclose(adj[5:10], 0.4)
        np.testing.assert_allclose(adj[40:44], -0.2)
        assert adj.sum() == pytest.approx(0.4 * 5 - 0.2 * 4)


class TestSchedule:
    def test_window_tariffs(self):
        expected = np.full(48, NORMAL, dtype=np.int8)
        expected[9:19] = LOW
        expected[39:44] = HIGH
        both = synthdata.window_tariffs(["morning_low", "evening_high"])
        assert both.dtype == np.int8
        np.testing.assert_array_equal(both, expected)
        np.testing.assert_array_equal(synthdata.window_tariffs([]), np.full(48, NORMAL))
        assert synthdata.WINDOW_SHAPES == ("morning_low", "evening_high", "random")

    def test_morning_low_cells(self):
        policy = synthdata.SchedulePolicy(special_fraction=1.0, window_shapes=("morning_low",))
        sched = synthdata.build_tou_schedule(5, policy, seed=1)
        assert (sched[:, 9:19] == LOW).all()
        assert (np.delete(sched, np.s_[9:19], axis=1) == NORMAL).all()

    def test_evening_high_cells(self):
        policy = synthdata.SchedulePolicy(special_fraction=1.0, window_shapes=("evening_high",))
        sched = synthdata.build_tou_schedule(5, policy, seed=1)
        assert (sched[:, 39:44] == HIGH).all()
        assert (np.delete(sched, np.s_[39:44], axis=1) == NORMAL).all()

    def test_special_fraction_statistics(self):
        sched = synthdata.build_tou_schedule(
            4000, synthdata.SchedulePolicy(special_fraction=0.4), seed=7
        )
        special = (sched != NORMAL).any(axis=1).mean()
        assert special == pytest.approx(0.4, abs=0.03)

    def test_random_windows_length_bounds(self):
        policy = synthdata.SchedulePolicy(special_fraction=1.0, window_shapes=("random",))
        sched = synthdata.build_tou_schedule(200, policy, seed=3)
        lengths = (sched != NORMAL).sum(axis=1)
        assert lengths.min() >= 4 and lengths.max() <= 12

    def test_seed_determinism(self):
        a = synthdata.build_tou_schedule(50, seed=9)
        b = synthdata.build_tou_schedule(50, seed=9)
        c = synthdata.build_tou_schedule(50, seed=10)
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    def test_policy_validation(self):
        with pytest.raises(synthdata.SynthError):
            synthdata.SchedulePolicy(special_fraction=1.5)
        with pytest.raises(synthdata.SynthError, match=r"^window shapes \['midnight_low'\] "):
            synthdata.SchedulePolicy(window_shapes=("midnight_low",))
        with pytest.raises(synthdata.SynthError, match=r"^window shapes \[\] must be of "):
            synthdata.SchedulePolicy(window_shapes=())
        # a repeated shape is allowed: it weighs more in the draw
        synthdata.SchedulePolicy(window_shapes=("random", "random", "morning_low"))


class TestWeather:
    def test_hourly_grid(self):
        series = synthdata.simulate_weather(3, datetime.date(2024, 5, 1), seed=0)
        assert len(series.timestamps) == 72
        assert series.timestamps[0] == datetime.datetime(2024, 5, 1, 0)
        deltas = {b - a for a, b in zip(series.timestamps, series.timestamps[1:])}
        assert deltas == {datetime.timedelta(hours=1)}

    def test_seasonal_phase(self):
        config = synthdata.WeatherConfig(noise_std=0.01)
        jan = synthdata.simulate_weather(10, datetime.date(2024, 1, 5), config, seed=1)
        jul = synthdata.simulate_weather(10, datetime.date(2024, 7, 5), config, seed=1)
        assert jan.temp_c.mean() < jul.temp_c.mean() - 5.0

    def test_diurnal_phase(self):
        config = synthdata.WeatherConfig(noise_std=0.01)
        series = synthdata.simulate_weather(20, datetime.date(2024, 6, 1), config, seed=2)
        temps = series.temp_c.reshape(20, 24)
        assert temps[:, 0].mean() < temps[:, 12].mean() - 5.0


class TestSimulateHousehold:
    def test_zero_noise_closed_form(self):
        arch = make_arch(temp_coeff=0.02, workday_offset=0.3, delta_low=0.2,
                         rebound=0.5, side_width=1)
        tau = np.vstack([np.full(48, 20.0), np.full(48, 10.0)])
        w = np.array([1.0, 0.0])
        schedule = np.full((2, 48), NORMAL, dtype=np.int8)
        schedule[1, 9:19] = LOW
        (kwh,), clamped = synthdata.simulate_households([(arch, schedule)], tau, w, ZeroRng())
        assert clamped == 0
        expected0 = arch.base_shape + 0.02 * (20.0 - TEMP_REF_C) + 0.3
        expected1 = (arch.base_shape + 0.02 * (10.0 - TEMP_REF_C)
                     + synthdata.tariff_adjustment(arch, schedule[1]))
        np.testing.assert_allclose(kwh[0], expected0)
        np.testing.assert_allclose(kwh[1], expected1)

    def test_clamping_counts_negative_cells(self):
        arch = make_arch(base_shape=np.full(48, 0.01), delta_high=-0.5, rebound=0.0)
        tau = np.full((1, 48), TEMP_REF_C)
        schedule = np.full((1, 48), HIGH, dtype=np.int8)
        (kwh,), clamped = synthdata.simulate_households([(arch, schedule)], tau, np.zeros(1),
                                                        ZeroRng())
        assert clamped == 48
        np.testing.assert_array_equal(kwh, 0.0)

    def test_noise_statistics(self):
        arch = make_arch(noise_std=(0.1, 0.1, 0.1), ar_coeff=0.6)
        n_days = 400
        tau = np.full((n_days, 48), TEMP_REF_C)
        schedule = np.full((n_days, 48), NORMAL, dtype=np.int8)
        w = np.zeros(n_days)
        (kwh,), _ = synthdata.simulate_households([(arch, schedule)], tau, w,
                                                  np.random.default_rng(5))
        noise = kwh - 0.5
        assert noise.std() == pytest.approx(0.1, rel=0.05)
        lag1 = np.corrcoef(noise[:, :-1].ravel(), noise[:, 1:].ravel())[0, 1]
        assert lag1 == pytest.approx(0.6, abs=0.05)


class TestGeneratePopulation:
    def test_population_layout(self, small_population):
        pop = small_population
        assert pop.household_ids[:4] == ["tou001", "tou002", "tou003", "tou004"]
        assert pop.household_ids[-2:] == ["std001", "std002"]
        assert pop.groups.count("TOU") == 8 and pop.groups.count("STD") == 2
        assert pop.kwh.shape == (10, 90, 48)
        assert (pop.kwh >= 0).all()

    def test_std_households_stay_normal(self, small_population):
        std_rows = [i for i, g in enumerate(small_population.groups) if g == "STD"]
        assert (small_population.tariff[std_rows] == NORMAL).all()

    def test_tou_households_share_schedule(self, small_population):
        tou = [i for i, g in enumerate(small_population.groups) if g == "TOU"]
        for i in tou[1:]:
            np.testing.assert_array_equal(
                small_population.tariff[i], small_population.tariff[tou[0]]
            )

    def test_std_archetypes_cycle(self, small_population):
        assert small_population.archetype_names[-2:] == ["saver", "flat"]

    def test_determinism(self):
        archs = synthdata.default_archetypes()[:2]
        a = synthdata.generate_population(archs, [2, 2], 10, seed=3)
        b = synthdata.generate_population(archs, [2, 2], 10, seed=3)
        c = synthdata.generate_population(archs, [2, 2], 10, seed=4)
        np.testing.assert_array_equal(a.kwh, b.kwh)
        np.testing.assert_array_equal(a.tariff, b.tariff)
        assert (a.kwh != c.kwh).any()

    def test_count_mismatch_raises(self):
        with pytest.raises(synthdata.SynthError):
            synthdata.generate_population(synthdata.default_archetypes(), [1, 2], 5)

    @pytest.mark.parametrize("counts, std_count", [([2, 2, -1, 2], 0), ([1, 1, 1, 1], -1)])
    def test_negative_count_raises(self, counts, std_count):
        # a negative count would simulate households that no id names
        with pytest.raises(synthdata.SynthError, match="negative household count"):
            synthdata.generate_population(synthdata.default_archetypes(), counts, 5,
                                          std_count=std_count)

    def test_ground_truth_round_trip(self, small_population, small_csv_dir):
        rows = synthdata.read_ground_truth_csv(small_csv_dir / "ground_truth.csv")
        assert [hid for hid, *_ in rows] == small_population.household_ids
        by_name = {a.name: a for a in small_population.archetypes}
        for _, name, delta_low, delta_high, rebound in rows:
            arch = by_name[name]
            assert delta_low == arch.delta_low
            assert delta_high == arch.delta_high
            assert rebound == arch.rebound


def per_day_household(arch, tau, w, schedule, rng):
    """The per-day loop simulate_households replaced: the oracle for its bits."""
    n_days = tau.shape[0]
    kwh = np.empty((n_days, HALF_HOURS))
    clamped = 0
    sigma = np.asarray(arch.noise_std)
    damp = np.sqrt(1.0 - arch.ar_coeff**2)
    for t in range(n_days):
        mean = (
            arch.base_shape
            + arch.temp_coeff * (tau[t] - TEMP_REF_C)
            + arch.workday_offset * w[t]
            + synthdata.tariff_adjustment(arch, schedule[t])
        )
        g = rng.standard_normal(HALF_HOURS)
        z = np.empty(HALF_HOURS)
        z[0] = g[0]
        for h in range(1, HALF_HOURS):
            z[h] = arch.ar_coeff * z[h - 1] + damp * g[h]
        day = mean + sigma[schedule[t]] * z
        clamped += int((day < 0).sum())
        kwh[t] = np.maximum(day, 0.0)
    return kwh, clamped


def csv_writer_consumption(pop, path):
    """The csv.writer consumption writer write_consumption_csv replaced."""
    stamps = [
        datetime.datetime.combine(date, datetime.time(h // 2, 30 * (h % 2)))
        .isoformat(timespec="minutes")
        for date in pop.dates for h in range(HALF_HOURS)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONSUMPTION_HEADER)
        for hid, group, kwh_grid, tariff_grid in zip(
            pop.household_ids, pop.groups, pop.kwh, pop.tariff
        ):
            for stamp, kwh, code in zip(stamps, kwh_grid.ravel().tolist(),
                                        tariff_grid.ravel().tolist()):
                writer.writerow([hid, stamp, f"{kwh:.6f}",
                                 "FLAT" if group == "STD" else TARIFF_NAMES[code], group])


# the four default archetypes and one whose noise drives many cells below zero
MIXED_ARCHETYPES = synthdata.default_archetypes() + [make_arch(
    name="clamped", base_shape=np.full(48, 0.05), noise_std=(0.2, 0.1, 0.3), ar_coeff=0.8,
)]
MIXED_COUNTS = [3, 2, 2, 3, 2]
MIXED_STD = 5
MIXED_DAYS = 30
MIXED_POLICY = synthdata.SchedulePolicy(0.7, ("evening_high", "random"))
START = datetime.date(2024, 1, 1)


def mixed_inputs(seed):
    """The streams generate_population draws from, and its (archetype, schedule)
    households in order: the TOU ones, then the Std ones cycling archetypes."""
    dates = [START + datetime.timedelta(days=i) for i in range(MIXED_DAYS)]
    weather = synthdata.simulate_weather(
        MIXED_DAYS, START, seed=np.random.SeedSequence((seed, 1)).generate_state(1)[0]
    )
    tou = synthdata.build_tou_schedule(
        MIXED_DAYS, MIXED_POLICY, seed=np.random.SeedSequence((seed, 2)).generate_state(1)[0]
    )
    std = np.full((MIXED_DAYS, HALF_HOURS), NORMAL, dtype=np.int8)
    members = [(arch, tou) for arch, count in zip(MIXED_ARCHETYPES, MIXED_COUNTS)
               for _ in range(count)]
    members += [(MIXED_ARCHETYPES[j % len(MIXED_ARCHETYPES)], std) for j in range(MIXED_STD)]
    tau = temperature_grid(weather, dates)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    return members, tau, build_calendar(dates).w, rng


class TestBlocks:
    """simulate_households draws household blocks; any block size gives the
    per-day loop's bits, on the same rng stream."""

    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_households_match_the_per_day_loop(self, block, monkeypatch):
        monkeypatch.setattr(synthdata, "_BLOCK_HOUSEHOLDS", block)
        members, tau, w, rng = mixed_inputs(seed=3)
        _, _, _, oracle_rng = mixed_inputs(seed=3)
        kwh, clamped = synthdata.simulate_households(members, tau, w, rng)
        runs = [per_day_household(arch, tau, w, schedule, oracle_rng)
                for arch, schedule in members]
        assert kwh.tobytes() == np.stack([grid for grid, _ in runs]).tobytes()
        assert clamped == sum(c for _, c in runs) > 100
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_population_and_file_match_the_old_writer(self, block, monkeypatch, tmp_path):
        monkeypatch.setattr(synthdata, "_BLOCK_HOUSEHOLDS", block)
        members, tau, w, oracle_rng = mixed_inputs(seed=7)
        runs = [per_day_household(arch, tau, w, schedule, oracle_rng)
                for arch, schedule in members]
        clamped = sum(c for _, c in runs)
        with pytest.warns(UserWarning) as record:
            pop = synthdata.generate_population(
                MIXED_ARCHETYPES, MIXED_COUNTS, MIXED_DAYS, seed=7, start_date=START,
                std_count=MIXED_STD, policy=MIXED_POLICY,
            )
        assert [str(r.message) for r in record] == [
            f"clamped {clamped} negative draw(s) to zero"
        ]
        assert pop.clamped == clamped
        assert pop.kwh.tobytes() == np.stack([grid for grid, _ in runs]).tobytes()
        assert pop.tariff.dtype == np.int8
        assert pop.tariff.tobytes() == np.stack([s for _, s in members]).tobytes()
        assert len(np.unique(pop.tariff[0], axis=0)) > 10   # random windows

        synthdata.write_consumption_csv(pop, tmp_path / "consumption.csv")
        csv_writer_consumption(pop, tmp_path / "reference.csv")
        written = (tmp_path / "consumption.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b",FLAT,STD\r\n" in written and b",LOW,TOU\r\n" in written

    def test_ids_with_format_characters_are_written_verbatim(self, small_population, tmp_path):
        # the id is spliced into a %-template, so a % in it must not format
        ids = ["h%d", "h%%", "h{0}", "h%.6f", "h%s%", "h", "", 7, "%", "std"]
        pop = dataclasses.replace(small_population, household_ids=ids)
        synthdata.write_consumption_csv(pop, tmp_path / "consumption.csv")
        csv_writer_consumption(pop, tmp_path / "reference.csv")
        assert (tmp_path / "consumption.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_peak_memory_is_the_output_plus_one_block(self, monkeypatch):
        block, n_days, counts, std_count = 2, 30, [25, 25, 25, 25], 8
        monkeypatch.setattr(synthdata, "_BLOCK_HOUSEHOLDS", block)
        archetypes = synthdata.default_archetypes()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pop = synthdata.generate_population(archetypes, counts, n_days, seed=5,
                                                    std_count=std_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = n_days * HALF_HOURS * 8   # one household's float64 days
        # a block's draw and its transposed copy; the day means and noise levels
        # of each archetype on the TOU and the Std schedule; a few grids for the
        # weather and the means' temporaries
        scratch = (2 * block + 2 * 2 * len(archetypes) + 8) * grid
        assert peak < pop.kwh.nbytes + pop.tariff.nbytes + scratch
        # drawing all 108 households at once would take twice the output
        assert scratch < pop.kwh.nbytes / 2
