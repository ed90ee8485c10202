"""Score both generators on held-out days with proper multivariate rules.

Three complementary scores per (day, generator): RMSE of the ensemble mean
(accuracy of the central forecast), the energy score (calibration of the
whole multivariate ensemble), and a variogram score with p=0.5 (fidelity of
the correlation structure across half-hours). Both generators see identical
conditionals and per-day seeds, so rows are directly comparable. The demo
draws each generator's (days, samples, 48) ensembles itself and hands the
arrays to metrics.evaluate_generators, which only scores them.

Two clusters make the trade-off visible: on a responsive cluster with side
effects and rebound, the CVAE's full tariff-indicator conditioning wins; on
an unresponsive cluster the additive generator's explicit noise model takes
the calibration-sensitive scores instead.
"""

import argparse

import numpy as np

from drsim import dataio, gamgen, metrics, neuralgen, synthdata


def score_cluster(arch, seed, n_samples):
    pop = synthdata.generate_population([arch], [12], n_days=365, seed=seed)
    kwh = pop.kwh.mean(axis=0)
    tariff = pop.tariff[0]
    calendar = dataio.build_calendar(pop.dates)
    smoothed = dataio.smooth_temperature(pop.tau)
    partition = dataio.partition_days(kwh.shape[0], 0.75, seed=seed + 1)
    test = partition.test

    gam = gamgen.fit_gam_generator(arch.name, kwh, pop.tau, smoothed.daily,
                                   calendar, tariff, partition)
    x = np.array([
        dataio.build_conditional_vector(np.zeros(3), calendar.kappa[d],
                                        calendar.w[d], tariff[d])
        for d in range(kwh.shape[0])
    ])
    config = neuralgen.CvaeConfig(
        latent_dim=4, hidden=(15,), eta=10.0, learning_rate=1e-3,
        batch_size=32, max_epochs=600, patience=60, restarts=4, seed=seed + 2,
    )
    cvae = neuralgen.train_cvae(kwh, x, partition, config)

    # one seed per held-out day, shared by both generators
    day_seeds = [np.random.SeedSequence((seed + 3, pos)).generate_state(1)[0]
                 for pos in range(len(test))]
    ensembles = {
        "gam": np.stack([
            gam.sample(pop.tau[d], smoothed.daily[d], calendar.kappa[d], calendar.w[d],
                       tariff[d], n_samples, s)
            for d, s in zip(test, day_seeds)
        ]),
        "cvae": np.stack([neuralgen.generate(cvae, x[d], n_samples, s)
                          for d, s in zip(test, day_seeds)]),
    }
    return metrics.evaluate_generators(kwh[test], ensembles, day_labels=[int(d) for d in test])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default=23, type=int)
    parser.add_argument("--samples", default=200, type=int)
    args = parser.parse_args()

    archetypes = synthdata.default_archetypes()
    clusters = [archetypes[0], archetypes[2]]   # morning_saver, flatline
    for arch in clusters:
        print(f"\n=== cluster: {arch.name} (delta_low={arch.delta_low:+.2f}, "
              f"rebound={arch.rebound:.2f}, side_width={arch.side_width}) ===")
        print("fitting both generators on the cluster mean, 365 days ...")
        report = score_cluster(arch, args.seed, args.samples)

        print(f"first held-out days ({args.samples} samples per ensemble):")
        print("  day  generator   rmse     energy   variogram_p05")
        rows = [(day, name, *values)
                for day, day_scores in zip(report.days, report.scores.tolist())
                for name, values in zip(report.generators, day_scores)]
        for day, name, rmse, energy, variogram in rows[:6]:
            print(f"  {day:>3}  {name:<9} {rmse:8.4f} {energy:8.4f} {variogram:10.4f}")

        print("medians over all held-out days:")
        for name, scores in report.summary().items():
            print(f"  {name:<5} rmse {scores['rmse']['median']:.4f}  "
                  f"energy {scores['energy']['median']:.4f}  "
                  f"variogram {scores['variogram']['median']:.4f}")

    print("\nreading: the responsive cluster rewards the CVAE, whose conditioning "
          "on the full indicator vector picks up side effects and rebound the "
          "additive model cannot express; the flat cluster rewards the additive "
          "model's calibrated noise on the energy and variogram columns, where "
          "the CVAE pays for its underdispersed ensembles")


if __name__ == "__main__":
    main()
