"""Fit the semi-parametric generator and inspect what each piece learned.

Every half-hour gets its own additive model: penalized cubic splines in the
half-hour's temperature, the smoothed daily temperature and the position in
the year, plus a working-day offset and one coefficient per special tariff.
The noise side is a per-tariff scale profile from a location-scale refit and
a repaired residual correlation matrix, so sampled days carry realistic
dependence across the 48 half-hours rather than independent jitter.
"""

import argparse

import numpy as np

from drsim import dataio, gamgen, synthdata
from drsim.dataio import LOW, NORMAL


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default=17, type=int)
    args = parser.parse_args()

    arch = synthdata.default_archetypes()[0]    # morning_saver
    pop = synthdata.generate_population([arch], [12], n_days=365, seed=args.seed)
    kwh = pop.kwh.mean(axis=0)
    tariff = pop.tariff[0]
    calendar = dataio.build_calendar(pop.dates)
    smoothed = dataio.smooth_temperature(pop.tau)
    partition = dataio.partition_days(kwh.shape[0], 0.75, seed=args.seed + 1)
    print(f"cluster series: {kwh.shape[0]} days of {arch.name} "
          f"(delta_low={arch.delta_low:+.2f}, delta_high={arch.delta_high:+.2f})")

    gen = gamgen.fit_gam_generator("demo", kwh, pop.tau, smoothed.daily,
                                   calendar, tariff, partition)
    print(f"fitted 48 half-hour models; smoothing lambda spans "
          f"[{gen.lam.min():.2g}, {gen.lam.max():.2g}] (chosen by GCV per half-hour)")

    window = np.zeros(48, dtype=bool)
    window[synthdata._window_cells(synthdata.MORNING_LOW_WINDOW)] = True
    xi_low = gen.xi[:, LOW]
    print(f"learned xi_low inside the morning window: mean "
          f"{xi_low[window].mean():+.3f} (planted {arch.delta_low:+.2f})")

    off = np.abs(np.diag(gen.corr, k=1)).mean(), np.abs(np.diag(gen.corr, k=2)).mean()
    print(f"residual correlation: mean |lag-1| {off[0]:.2f}, mean |lag-2| {off[1]:.2f} "
          f"(planted AR coefficient {arch.ar_coeff})")
    print(f"correlation repair: min eigenvalue {np.linalg.eigvalsh(gen.corr).min():.2e} "
          "after flooring, Cholesky factor ready for sampling")

    day = int(partition.test[0])
    samples = gen.sample(pop.tau[day], smoothed.daily[day], calendar.kappa[day],
                         calendar.w[day], tariff[day], n_samples=500, seed=args.seed + 2)
    f = gen.mean_profile(pop.tau[day], smoothed.daily[day], calendar.kappa[day],
                         calendar.w[day], tariff[day])
    print(f"\nsampled 500 profiles for held-out day {day}: "
          f"ensemble mean tracks f within {np.abs(samples.mean(axis=0) - f).max():.4f} kWh, "
          f"spread {samples.std(axis=0).mean():.4f} kWh per half-hour")

    # the stated limitation: a special tariff only moves the half-hours it
    # covers, so rebound into other hours is structurally out of reach
    tar_low = np.full(48, NORMAL)
    tar_low[window] = LOW
    f_low = gen.mean_profile(pop.tau[day], smoothed.daily[day], calendar.kappa[day],
                             calendar.w[day], tar_low)
    f_norm = gen.mean_profile(pop.tau[day], smoothed.daily[day], calendar.kappa[day],
                              calendar.w[day], np.full(48, NORMAL))
    diff = f_low - f_norm
    print(f"counterfactual Low morning vs all-Normal: in-window shift "
          f"{diff[window].mean():+.3f} kWh, outside exactly "
          f"{np.abs(diff[~window]).max():.1f} (in-window-only by construction)")


if __name__ == "__main__":
    main()
