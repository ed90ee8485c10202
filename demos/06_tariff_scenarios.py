"""Drive the whole pipeline through the CLI and read a tariff scenario off it.

Seven subcommands cover the workflow: synth writes a simulated population to
CSV, ingest repairs and featurizes it, cluster runs the causal clustering,
train fits a generator per cluster, evaluate scores held-out days, generate
writes the very ensembles evaluate scores, and scenario samples
counterfactual days under named tariff vectors. Every stage is seeded and
skips work whose outputs already exist, so the whole chain reruns
bit-identically.
"""

import argparse
import csv
from pathlib import Path

from drsim import cli

CONFIG = """\
seed: 42
out: {out}
synth:
  n_days: 120
  households: {{morning_saver: 8, evening_cutter: 8, flatline: 8, storage_heavy: 8}}
  std_households: 4
cluster:
  k: 4
  nmf_rank: 5
train:
  generators: [gam]
evaluate:
  n_samples: 200
scenario:
  generator: gam
  n_samples: 200
  scenarios: [normal, low_morning, high_evening]
"""


def read_mean(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [float(kwh) for _, kwh in reader]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo_output/pipeline", type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    cfg = args.out / "config.yaml"
    run = args.out / "run"
    cfg.write_text(CONFIG.format(out=run))
    print(f"config: {cfg}")

    for stage in ("synth", "ingest", "cluster", "train", "generate", "evaluate", "scenario"):
        code = cli.main([stage, "--config", str(cfg)])
        if code != 0:
            raise SystemExit(f"stage {stage} failed with exit code {code}")
    files = sorted(p.name for p in run.iterdir())
    print(f"\nall seven stages completed; {len(files)} artifacts under {run}:")
    for prefix in ("consumption", "temperature", "ground_truth", "prepared",
                   "profiles", "assignments", "cluster_scores", "gam_",
                   "samples_", "report_", "summary_", "scenario_"):
        group = [f for f in files if f.startswith(prefix)]
        if group:
            tail = f" ... x{len(group)}" if len(group) > 1 else ""
            print(f"  {group[0]}{tail}")

    # compare counterfactual scenario means for one cluster
    print("\nscenario means, cluster 0 (kWh summed over the day):")
    daily = {}
    for scen in ("normal", "low_morning", "high_evening"):
        mean = read_mean(run / f"scenario_{scen}_gam_cluster0_mean.csv")
        daily[scen] = sum(m / 2.0 for m in mean)   # half-hour kWh -> kWh
        print(f"  {scen:<13} {daily[scen]:7.2f} kWh/day")
    print(f"  low_morning shifts {daily['low_morning'] - daily['normal']:+.2f} kWh/day "
          f"vs normal; high_evening {daily['high_evening'] - daily['normal']:+.2f}")

    print("\nrerunning a stage without --force skips cleanly:")
    cli.main(["evaluate", "--config", str(cfg)])


if __name__ == "__main__":
    main()
