"""Command-line front end: one subcommand per pipeline stage."""

import argparse
import json
import sys
from dataclasses import replace

from . import pipeline


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drsim",
        description="Demand-response simulation: synthesize, cluster, train and score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic population (consumption, weather, ground truth)"),
        ("ingest", "validate, repair and featurize the raw CSVs"),
        ("cluster", "estimate tariff response profiles and cluster households"),
        ("train", "fit the profile generators per cluster"),
        ("generate", "sample daily profiles for the test days"),
        ("evaluate", "score the generators with proper scoring rules"),
        ("scenario", "generate counterfactual tariff-scenario ensembles"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the run directory")
        cmd.add_argument("--force", action="store_true", help="rebuild cached outputs")
        if name in ("train", "generate", "evaluate", "scenario"):
            cmd.add_argument("--generator", choices=pipeline.GENERATOR_NAMES,
                             help="restrict this stage to one generator")
    return parser


def run(argv=None):
    # what is left after popping the shared options are the stage's keyword arguments
    options = vars(build_parser().parse_args(argv))
    command = options.pop("command")
    config = pipeline.load_config(options.pop("config"))
    seed, out = options.pop("seed"), options.pop("out")
    if seed is not None:
        config = replace(config, seed=seed)
    if out is not None:
        config = replace(config, out=out)
    written = pipeline.STAGES[command](config, pipeline.RunPaths(config.out), **options)
    if written:
        for path in written:
            print(path)
    else:
        print(f"{command}: outputs present, nothing to do (use --force)")
    return 0


def main(argv=None):
    try:
        return run(argv)
    except Exception as exc:  # one machine-readable line on stderr
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
