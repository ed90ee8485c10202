"""Train the conditional VAE on a cluster's daily profiles and sample from it.

The CVAE sees each day's consumption profile (48 half-hours, min-max scaled)
together with an exogenous conditional vector: temperature PCA scores,
position in the year, working-day flag, and the Low/High tariff indicators
per half-hour. After training, new days are generated by decoding standard
normal latent draws under a chosen conditional, so the same model answers
"what would this cluster draw tomorrow under an all-Normal schedule?" and
"... under a cheap morning window?".
"""

import argparse

import numpy as np

from drsim import dataio, neuralgen, synthdata
from drsim.dataio import LOW, NORMAL


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default=5, type=int)
    parser.add_argument("--restarts", default=4, type=int)
    args = parser.parse_args()

    # one storage-heavy cluster: strong shift into cheap windows plus rebound
    arch = synthdata.default_archetypes()[3]
    pop = synthdata.generate_population([arch], [12], n_days=365, seed=args.seed)
    kwh = pop.kwh.mean(axis=0)          # cluster-mean daily profiles
    tariff = pop.tariff[0]              # shared time-of-use schedule
    calendar = dataio.build_calendar(pop.dates)
    print(f"cluster series: {kwh.shape[0]} days of {arch.name} "
          f"(delta_low={arch.delta_low:+.2f}, rebound={arch.rebound:.2f})")

    x = np.array([
        dataio.build_conditional_vector(np.zeros(3), calendar.kappa[d],
                                        calendar.w[d], tariff[d])
        for d in range(kwh.shape[0])
    ])
    partition = dataio.partition_days(kwh.shape[0], 0.75, seed=args.seed + 1)
    config = neuralgen.CvaeConfig(
        latent_dim=4, hidden=(15,), eta=10.0, learning_rate=1e-3,
        batch_size=32, max_epochs=600, patience=60,
        restarts=args.restarts, seed=args.seed + 2,
    )
    print(f"training: latent {config.latent_dim}, hidden {config.hidden}, "
          f"eta {config.eta}, {config.restarts} restarts ...")
    fit = neuralgen.train_cvae(kwh, x, partition, config)
    mses = ", ".join(f"{m:.4f}" for m in fit.restart_mses)
    print(f"restart test MSEs: [{mses}] -> kept restart {fit.restart_index}")
    print(f"training loss: {fit.epoch_losses[0]:.3f} (epoch 1) -> "
          f"{fit.epoch_losses[-1]:.3f} (epoch {len(fit.epoch_losses)})")
    print(f"output bounds from the train split: "
          f"[{fit.y_min:.3f}, {fit.y_max:.3f}] kWh")

    # two counterfactual days, identical except for the tariff vector
    tar_low = synthdata.window_tariffs(["morning_low"])
    window = tar_low == LOW
    x_norm = dataio.build_conditional_vector(np.zeros(3), 0.5, 1.0, np.full(48, NORMAL))
    x_low = dataio.build_conditional_vector(np.zeros(3), 0.5, 1.0, tar_low)
    ens_norm = neuralgen.generate(fit, x_norm, 400, seed=args.seed + 3)
    ens_low = neuralgen.generate(fit, x_low, 400, seed=args.seed + 3)
    m_norm, m_low = ens_norm.mean(axis=0), ens_low.mean(axis=0)

    planted = synthdata.tariff_adjustment(arch, tar_low)
    print("\ngenerated ensemble means (400 draws each):")
    print(f"  all-Normal day:  in-window {m_norm[window].mean():.3f} kWh, "
          f"outside {m_norm[~window].mean():.3f} kWh")
    print(f"  Low-morning day: in-window {m_low[window].mean():.3f} kWh, "
          f"outside {m_low[~window].mean():.3f} kWh")
    print(f"  learned shift in-window {m_low[window].mean() - m_norm[window].mean():+.3f} "
          f"(planted {planted[window].mean():+.3f}), "
          f"outside {m_low[~window].mean() - m_norm[~window].mean():+.3f} "
          f"(planted {planted[~window].mean():+.3f}, side effects net against rebound)")

    spread = ens_norm.std(axis=0).mean()
    noise = arch.noise_std[NORMAL] / np.sqrt(12)
    print(f"\nensemble spread on a Normal day: {spread:.4f} kWh per half-hour vs "
          f"{noise:.4f} planted cluster-mean noise; the high KL weight trades "
          "sample diversity for reconstruction, a known habit of this generator "
          "that the scoring demo makes visible")


if __name__ == "__main__":
    main()
