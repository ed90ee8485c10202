"""Build a synthetic smart-meter population and look at what was planted.

Four behavioral archetypes react differently to time-of-use tariff windows:
some shift consumption into cheap Low windows, some cut back under High
prices, some do not react at all. This script generates a small population,
summarizes the schedule and the planted effects, and writes the three CSV
files the ingestion stage consumes.
"""

import argparse
from pathlib import Path

import numpy as np

from drsim import synthdata
from drsim.dataio import LOW, NORMAL, HIGH


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo_output/population", type=Path)
    parser.add_argument("--seed", default=7, type=int)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    archetypes = synthdata.default_archetypes()
    print("planted archetypes:")
    for arch in archetypes:
        print(f"  {arch.name:<14} delta_low={arch.delta_low:+.2f}  "
              f"delta_high={arch.delta_high:+.2f}  rebound={arch.rebound:.2f}  "
              f"side_width={arch.side_width}")

    pop = synthdata.generate_population(
        archetypes, [6, 6, 6, 6], n_days=120, seed=args.seed, std_count=4
    )
    n_tou = sum(g == "TOU" for g in pop.groups)
    print(f"\npopulation: {len(pop.household_ids)} households "
          f"({n_tou} time-of-use, {len(pop.household_ids) - n_tou} flat-rate), "
          f"{len(pop.dates)} days, {pop.clamped} draws clamped at zero")

    schedule = pop.tariff[0]
    special_days = int((schedule != NORMAL).any(axis=1).sum())
    low_cells = int((schedule == LOW).sum())
    high_cells = int((schedule == HIGH).sum())
    print(f"shared tariff schedule: {special_days}/{len(pop.dates)} days carry a "
          f"special window ({low_cells} Low cells, {high_cells} High cells)")

    # planted contrast, visible directly in the simulated means: Low-window
    # cells vs the same cells on all-Normal days
    cells = synthdata.window_tariffs(["morning_low"]) == LOW
    low_days = (schedule[:, cells] == LOW).all(axis=1)
    normal_days = (schedule == NORMAL).all(axis=1)
    print("\nmean kWh in the morning window, Low days vs Normal days:")
    for name in [a.name for a in archetypes]:
        rows = [i for i, (g, an) in enumerate(zip(pop.groups, pop.archetype_names))
                if g == "TOU" and an == name]
        kwh = pop.kwh[rows]
        on = kwh[:, low_days][:, :, cells].mean()
        off = kwh[:, normal_days][:, :, cells].mean()
        print(f"  {name:<14} low {on:.3f}  normal {off:.3f}  shift {on - off:+.3f}")

    synthdata.write_consumption_csv(pop, args.out / "consumption.csv")
    synthdata.write_temperature_csv(pop.weather, args.out / "temperature.csv")
    synthdata.write_ground_truth_csv(pop, args.out / "ground_truth.csv")
    print(f"\nwrote consumption.csv, temperature.csv, ground_truth.csv under {args.out}")


if __name__ == "__main__":
    main()
