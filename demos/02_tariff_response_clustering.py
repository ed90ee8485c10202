"""Cluster households by their causal response to time-of-use tariffs.

The pipeline: fit a per-half-hour location-scale model to every household to
isolate the tariff effect from temperature and noise, average the fits into
counterfactual tariff response profiles, factorize the stacked profiles with
NMF, and run k-medoids on the low-rank weights. A Calinski-Harabasz score on
normalized special-tariff records then measures how coherently each found
cluster responds, compared against a random baseline and a clustering on
classical usage features (seasonal min/max/mean, peak and trough timing).
"""

import argparse
from collections import Counter

from drsim import causality, clustering, synthdata


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default=13, type=int)
    parser.add_argument("--households", default=12, type=int,
                        help="time-of-use households per archetype")
    args = parser.parse_args()

    archetypes = synthdata.default_archetypes()
    counts = [args.households] * len(archetypes)
    pop = synthdata.generate_population(archetypes, counts, n_days=150, seed=args.seed)
    print(f"population: {len(pop.household_ids)} households x {len(pop.dates)} days")

    print("fitting 48 location-scale models per household, one half-hour at a time ...")
    profiles = causality.fit_profiles(pop.household_ids, pop.kwh, pop.tau, pop.tariff)

    pm = clustering.build_profile_matrix(profiles)
    print(f"profile matrix: {pm.matrix.shape[0]} households x {pm.matrix.shape[1]} "
          f"columns (48 half-hours x 3 tariffs), {len(pm.excluded)} excluded")

    factors = clustering.nmf_factorize(pm.matrix, r=5, seed=args.seed + 1)
    drop = 1.0 - factors.errors[-1] / factors.errors[0]
    print(f"NMF rank 5: reconstruction error {factors.errors[0]:.2f} -> "
          f"{factors.errors[-1]:.2f} ({drop:.0%} drop)")

    result = clustering.kmedoids(factors.w, k=4)
    print(f"k-medoids: cost {result.cost:.3f}, medoid rows {result.medoids}")

    print("\ncluster composition (planted archetype counts per found cluster):")
    for label in range(4):
        members = result.members(label)
        mix = Counter(pop.archetype_names[i] for i in members)
        parts = ", ".join(f"{name} x{count}" for name, count in sorted(mix.items()))
        print(f"  cluster {label} ({len(members)} households): {parts}")

    # the three record variants do not depend on the labels: built once, scored three times
    records = clustering.record_variants(pop.kwh, pop.tariff)
    nmf_scores = clustering.score_variants(records, result.labels)
    feats = clustering.classical_features(pop.kwh, pop.dates)
    classic = clustering.classical_feature_clustering(feats, k=4)
    classic_scores = clustering.score_variants(records, classic.labels)
    rand_labels = clustering.random_clustering(len(pop.household_ids), 4,
                                               seed=args.seed + 2).labels
    rand_scores = clustering.score_variants(records, rand_labels)

    print("\nCalinski-Harabasz comparison (higher = better separated):")
    print(f"  {'method':<20} {'raw':>10} {'normalized':>12} {'special':>10}")
    for name, s in (("nmf_kmedoids", nmf_scores), ("classical_features", classic_scores),
                    ("random", rand_scores)):
        special = "n/a" if s.special is None else f"{s.special:10.2f}"
        print(f"  {name:<20} {s.raw:10.2f} {s.normalized:12.2f} {special}")
    print("\nthese planted archetypes are easy enough that both feature sets "
          "recover them; the random baseline collapses, and the special-tariff "
          "column is the one that scores responsiveness rather than usage level")


if __name__ == "__main__":
    main()
