"""Synthetic half-hourly consumption with planted, recoverable tariff effects.

Households belong to archetypes. An archetype owns a base daily shape, a
linear temperature response, a working-day offset, and its tariff behavior:
in-window shifts delta_low / delta_high, a side effect (the `side_width`
half-hours flanking a special window move by delta/2), and a rebound that
counteracts `rebound * delta * window_length` of energy spread uniformly over
the half-hours outside window and side zones. Noise is an AR(1) chain within
the day with unit marginal variance, scaled by a per-tariff standard
deviation. Weather is a seasonal plus diurnal sinusoid with AR(1) noise at
hourly resolution.

Everything is driven by a single seed fanned out into independent streams,
so a population regenerates bit for bit.
"""

import datetime
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import (
    CONSUMPTION_HEADER,
    HALF_HOURS,
    LOW,
    NORMAL,
    HIGH,
    TARIFF_NAMES,
    TEMPERATURE_HEADER,
    TemperatureSeries,
    build_calendar,
    read_csv,
    replacing,
    temperature_grid,
    write_csv,
)

TEMP_REF_C = 15.0

# named (tariff, first and last 1-based half-hour) windows: 04:30-09:30 and 19:30-22:00
WINDOWS = {"morning_low": (LOW, 10, 19), "evening_high": (HIGH, 40, 44)}

GROUND_TRUTH_HEADER = ["household_id", "archetype", "delta_low", "delta_high", "rebound"]


class SynthError(ValueError):
    pass


@dataclass
class ArchetypeSpec:
    name: str
    base_shape: np.ndarray          # (48,) kWh per half-hour
    temp_coeff: float               # kWh per degree C above TEMP_REF_C
    workday_offset: float           # kWh added on working days
    delta_low: float                # in-window shift under Low
    delta_high: float               # in-window shift under High
    rebound: float                  # fraction of window energy bounced outside
    side_width: int                 # half-hours of delta/2 spillover per side
    noise_std: tuple = (0.08, 0.08, 0.08)   # per tariff code (Low, Normal, High)
    ar_coeff: float = 0.6

    def __post_init__(self):
        self.base_shape = np.asarray(self.base_shape, dtype=float)
        if self.base_shape.shape != (HALF_HOURS,):
            raise SynthError(f"{self.name}: base shape must have {HALF_HOURS} entries")
        if (self.base_shape < 0).any():
            raise SynthError(f"{self.name}: negative base shape")
        if not 0.0 <= self.rebound <= 1.0:
            raise SynthError(f"{self.name}: rebound outside [0, 1]")
        if self.side_width < 0:
            raise SynthError(f"{self.name}: negative side width")
        if len(self.noise_std) != 3 or min(self.noise_std) <= 0:
            raise SynthError(f"{self.name}: need 3 positive noise levels")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise SynthError(f"{self.name}: AR coefficient outside [0, 1)")


def smooth_shape(base, bumps):
    """Daily base shape: level plus Gaussian bumps (center half-hour, width, height)."""
    h = np.arange(1, HALF_HOURS + 1)
    shape = np.full(HALF_HOURS, float(base))
    for center, width, height in bumps:
        shape += height * np.exp(-0.5 * ((h - center) / width) ** 2)
    return shape


def default_archetypes():
    """Four planted behaviors spanning the responsiveness range."""
    return [
        ArchetypeSpec(
            name="morning_saver",
            base_shape=smooth_shape(0.45, [(16, 4.0, 0.45), (38, 6.0, 0.25)]),
            temp_coeff=-0.006,
            workday_offset=0.04,
            delta_low=0.5,
            delta_high=-0.2,
            rebound=0.3,
            side_width=2,
            noise_std=(0.06, 0.06, 0.06),
        ),
        ArchetypeSpec(
            name="evening_cutter",
            base_shape=smooth_shape(0.7, [(41, 5.0, 0.6)]),
            temp_coeff=-0.004,
            workday_offset=-0.03,
            delta_low=0.1,
            delta_high=-0.5,
            rebound=0.5,
            side_width=1,
            noise_std=(0.06, 0.06, 0.06),
        ),
        ArchetypeSpec(
            name="flatline",
            base_shape=smooth_shape(0.45, [(26, 10.0, 0.1)]),
            temp_coeff=-0.002,
            workday_offset=0.0,
            delta_low=0.0,
            delta_high=0.0,
            rebound=0.0,
            side_width=0,
            noise_std=(0.06, 0.06, 0.06),
        ),
        ArchetypeSpec(
            name="storage_heavy",
            base_shape=smooth_shape(0.95, [(14, 5.0, 0.5), (42, 4.0, 0.5)]),
            temp_coeff=-0.01,
            workday_offset=0.06,
            delta_low=0.9,
            delta_high=-0.8,
            rebound=0.6,
            side_width=3,
            noise_std=(0.06, 0.06, 0.06),
        ),
    ]


@dataclass
class WeatherConfig:
    mean_c: float = 11.0
    seasonal_amp: float = 7.0
    diurnal_amp: float = 4.0
    ar_coeff: float = 0.8
    noise_std: float = 1.5


def simulate_weather(n_days, start_date, config=None, seed=0):
    """Hourly temperatures: seasonal + diurnal sinusoids + AR(1) noise."""
    config = config or WeatherConfig()
    rng = np.random.default_rng(seed)
    n = n_days * 24
    g = rng.standard_normal(n)
    noise = np.empty(n)
    noise[0] = config.noise_std * g[0]
    damp = config.noise_std * np.sqrt(1.0 - config.ar_coeff**2)
    for i in range(1, n):
        noise[i] = config.ar_coeff * noise[i - 1] + damp * g[i]

    timestamps = []
    temps = np.empty(n)
    for i in range(n):
        day, hour = divmod(i, 24)
        date = start_date + datetime.timedelta(days=day)
        doy = date.timetuple().tm_yday - 1 + hour / 24.0
        timestamps.append(datetime.datetime.combine(date, datetime.time(hour)))
        temps[i] = (
            config.mean_c
            - config.seasonal_amp * np.cos(2.0 * np.pi * doy / 365.0)
            - config.diurnal_amp * np.cos(2.0 * np.pi * hour / 24.0)
            + noise[i]
        )
    return TemperatureSeries(timestamps, temps)


WINDOW_SHAPES = (*WINDOWS, "random")


@dataclass
class SchedulePolicy:
    special_fraction: float = 0.5
    window_shapes: tuple = WINDOW_SHAPES   # drawn uniformly; a repeated shape weighs more

    def __post_init__(self):
        if not 0.0 <= self.special_fraction <= 1.0:
            raise SynthError("special-day fraction outside [0, 1]")
        if not self.window_shapes or any(s not in WINDOW_SHAPES for s in self.window_shapes):
            raise SynthError(f"window shapes {list(self.window_shapes)} must be of {WINDOW_SHAPES}")


def window_tariffs(names):
    """(48,) int8 tariffs, Normal outside the named WINDOWS."""
    tariffs = np.full(HALF_HOURS, NORMAL, dtype=np.int8)
    for name in names:
        code, first, last = WINDOWS[name]
        tariffs[first - 1 : last] = code
    return tariffs


def build_tou_schedule(n_days, policy=None, seed=0):
    """Common (T, 48) tariff schedule for the time-of-use group."""
    policy = policy or SchedulePolicy()
    rng = np.random.default_rng(seed)
    schedule = np.full((n_days, HALF_HOURS), NORMAL, dtype=np.int8)
    for t in range(n_days):
        if rng.random() >= policy.special_fraction:
            continue
        shape = policy.window_shapes[rng.integers(len(policy.window_shapes))]
        if shape in WINDOWS:
            schedule[t] = window_tariffs([shape])
        else:
            code = LOW if rng.random() < 0.5 else HIGH
            length = int(rng.integers(4, 13))
            start = int(rng.integers(0, HALF_HOURS - length + 1))
            schedule[t, start : start + length] = code
    return schedule


def _special_runs(p_day):
    """Contiguous runs of one non-Normal code as (code, indices) pairs."""
    runs = []
    start = None
    for h in range(HALF_HOURS + 1):
        code = p_day[h] if h < HALF_HOURS else NORMAL
        if start is None:
            if code != NORMAL:
                start = h
        elif code != p_day[start]:
            runs.append((int(p_day[start]), np.arange(start, h)))
            start = h if code != NORMAL else None
    return runs


def tariff_adjustment(arch, p_day):
    """Planted mean shift (48,) for one day's tariff vector."""
    adj = np.zeros(HALF_HOURS)
    runs = _special_runs(p_day)
    if not runs:
        return adj
    window_mask = np.asarray(p_day) != NORMAL
    side_sets = []
    for _, cells in runs:
        lo = max(cells[0] - arch.side_width, 0)
        hi = min(cells[-1] + arch.side_width, HALF_HOURS - 1)
        side = np.r_[np.arange(lo, cells[0]), np.arange(cells[-1] + 1, hi + 1)]
        side_sets.append(side[~window_mask[side]])
    side_mask = np.zeros(HALF_HOURS, dtype=bool)
    for side in side_sets:
        side_mask[side] = True
    outside = ~(window_mask | side_mask)

    for (code, cells), side in zip(runs, side_sets):
        delta = arch.delta_low if code == LOW else arch.delta_high
        adj[cells] += delta
        adj[side] += delta / 2.0
        if outside.any():
            adj[outside] -= arch.rebound * delta * len(cells) / outside.sum()
    return adj


# households per noise draw and AR(1) pass; simulate_households' scratch
# memory is a few arrays of this many households' days
_BLOCK_HOUSEHOLDS = 32


def _day_means(arch, tau, w, schedule):
    """(T, 48) planted means of one archetype under one schedule;
    tariff_adjustment runs once per distinct schedule day."""
    days, inverse = np.unique(schedule, axis=0, return_inverse=True)
    adjustment = np.array([tariff_adjustment(arch, day) for day in days]).reshape(-1, HALF_HOURS)
    return (arch.base_shape + arch.temp_coeff * (tau - TEMP_REF_C)
            + arch.workday_offset * w[:, None] + adjustment[inverse.reshape(-1)])


def simulate_households(members, tau, w, rng):
    """(n, T, 48) consumption of the households given as (archetype, schedule)
    pairs; returns (kwh, clamped_count).

    Each household-day takes 48 normals from rng in household then day order,
    so the draws do not depend on the block size. They drive an AR(1) chain
    over the half-hours with unit marginal variance, scaled by the
    archetype's noise level for each half-hour's tariff and added to the
    planted mean; negative values are clamped to zero and counted.
    """
    n_days = tau.shape[0]
    kwh = np.empty((len(members), n_days, HALF_HOURS))
    planted = {}  # (archetype, schedule) identities -> (day means, noise std per cell)
    clamped = 0
    for start in range(0, len(members), _BLOCK_HOUSEHOLDS):
        block = members[start : start + _BLOCK_HOUSEHOLDS]
        # (48, rows): each half-hour's step runs over contiguous memory
        z = rng.standard_normal((len(block) * n_days, HALF_HOURS)).T.copy()
        coeff = np.repeat([arch.ar_coeff for arch, _ in block], n_days)
        damp = np.repeat([np.sqrt(1.0 - arch.ar_coeff**2) for arch, _ in block], n_days)
        for h in range(1, HALF_HOURS):
            z[h] = coeff * z[h - 1] + damp * z[h]
        z = z.T
        out = kwh[start : start + len(block)]
        for i, (arch, schedule) in enumerate(block):
            key = (id(arch), id(schedule))
            if key not in planted:
                planted[key] = (_day_means(arch, tau, w, schedule),
                                np.asarray(arch.noise_std)[schedule])
            means, sigma = planted[key]
            np.multiply(sigma, z[i * n_days : (i + 1) * n_days], out=out[i])
            out[i] += means
        clamped += int(np.count_nonzero(out < 0))
        np.maximum(out, 0.0, out=out)
    return kwh, clamped


@dataclass
class SyntheticPopulation:
    household_ids: list
    groups: list                 # TOU / STD per household
    archetype_names: list
    archetypes: list
    kwh: np.ndarray              # (n, T, 48)
    tariff: np.ndarray           # (n, T, 48) int8
    dates: list
    weather: TemperatureSeries
    tau: np.ndarray              # (T, 48) interpolated
    clamped: int = 0
    seed: int = 0


def generate_population(archetypes, counts, n_days, seed=0,
                        start_date=datetime.date(2024, 1, 1), std_count=0, policy=None):
    """Simulate a population; counts[i] time-of-use households of archetype i.

    Std households cycle through the archetypes but see a flat (all-Normal)
    schedule. Streams: weather, schedule and household noise derive from the
    base seed independently.
    """
    if len(counts) != len(archetypes):
        raise SynthError("counts do not match the archetype list")
    if min(counts, default=0) < 0 or std_count < 0:
        raise SynthError(f"negative household count in {list(counts)} (std {std_count})")
    if sum(counts) + std_count < 1:
        raise SynthError("empty population")
    dates = [start_date + datetime.timedelta(days=i) for i in range(n_days)]
    calendar = build_calendar(dates)

    weather = simulate_weather(
        n_days, start_date,
        seed=np.random.SeedSequence((seed, 1)).generate_state(1)[0],
    )
    tau = temperature_grid(weather, dates)
    tou_schedule = build_tou_schedule(
        n_days, policy, seed=np.random.SeedSequence((seed, 2)).generate_state(1)[0]
    )
    std_schedule = np.full((n_days, HALF_HOURS), NORMAL, dtype=np.int8)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))

    members = [(arch, tou_schedule) for arch, count in zip(archetypes, counts)
               for _ in range(count)]
    members += [(archetypes[j % len(archetypes)], std_schedule) for j in range(std_count)]
    kwh, clamped = simulate_households(members, tau, calendar.w, rng)

    if clamped:
        warnings.warn(f"clamped {clamped} negative draw(s) to zero")
    return SyntheticPopulation(
        household_ids=[f"tou{i + 1:03d}" for i in range(sum(counts))]
        + [f"std{j + 1:03d}" for j in range(std_count)],
        groups=["TOU"] * sum(counts) + ["STD"] * std_count,
        archetype_names=[arch.name for arch, _ in members],
        archetypes=list(archetypes),
        kwh=kwh,
        tariff=np.stack([schedule for _, schedule in members]),
        dates=dates,
        weather=weather,
        tau=tau,
        clamped=clamped,
        seed=seed,
    )


def _slot_timestamp(date, h):
    return datetime.datetime.combine(date, datetime.time(h // 2, 30 * (h % 2)))


def write_consumption_csv(pop, path):
    """household_id,timestamp,kwh,tariff,group rows; Std tariffs export as FLAT.

    Each household's rows are one %-format of a template whose pieces are
    built once per group and tariff grid, one day's 48 lines at a time: the
    timestamp, tariff name and group are literal text and each %.6f the next
    kWh value, byte for byte what csv.writer writes for these fields. Every
    line starts with the household id, so the household's template is its id
    joined between the pieces.
    """
    pieces = {}
    with replacing(path) as fh:
        fh.write(",".join(CONSUMPTION_HEADER) + "\r\n")
        for hid, group, kwh_grid, tariff_grid in zip(
            pop.household_ids, pop.groups, pop.kwh, pop.tariff
        ):
            key = (group, tariff_grid.tobytes())
            if key not in pieces:
                pieces[key] = [""]
                for date, row in zip(pop.dates, tariff_grid.tolist()):
                    pieces[key] += _day_lines(group, date, row)
            template = str(hid).replace("%", "%%").join(pieces[key])
            fh.write(template % tuple(kwh_grid.ravel().tolist()))


def _day_lines(group, date, codes):
    """One day's 48 consumption lines without their leading household id."""
    return [
        f",{_slot_timestamp(date, h).isoformat(timespec='minutes')},%.6f,"
        f"{'FLAT' if group == 'STD' else TARIFF_NAMES[code]},{group}\r\n"
        for h, code in enumerate(codes)
    ]


def write_temperature_csv(weather, path):
    write_csv(path, TEMPERATURE_HEADER, (
        [ts.isoformat(timespec="minutes"), f"{value:.4f}"]
        for ts, value in zip(weather.timestamps, weather.temp_c.tolist())
    ))


def write_ground_truth_csv(pop, path):
    by_name = {a.name: a for a in pop.archetypes}
    write_csv(path, GROUND_TRUTH_HEADER, (
        [hid, name, by_name[name].delta_low, by_name[name].delta_high, by_name[name].rebound]
        for hid, name in zip(pop.household_ids, pop.archetype_names)
    ))


def read_ground_truth_csv(path):
    """Rows as (household_id, archetype, delta_low, delta_high, rebound)."""
    return [
        (hid, name, float(dl), float(dh), float(rb))
        for hid, name, dl, dh, rb in read_csv(path, GROUND_TRUTH_HEADER, SynthError)
    ]
