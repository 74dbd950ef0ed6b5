"""ghostlet command line: configuration-driven experiment runner.

    ghostlet <subcommand> --config <file.json> [--seed N] [--out DIR]

Subcommands: appendix-c, spectrum, reconstruct, admissibility, decompose,
encode-series, finite-model, lazy, bound. Exit codes: 0 success, 2 usage
error, 3 numerical-accuracy failure (a configured tolerance was exceeded).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENTS,
    AccuracyFailure,
    ExperimentConfig,
    UsageError,
    run_subcommand,
)

USAGE_EXIT = 2
ACCURACY_EXIT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostlet",
        description="ridgelet operator calculus experiments (reconstruction, "
                    "ghosts, finite models, norm bounds)")
    sub = parser.add_subparsers(dest="experiment", metavar="subcommand")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (flags override its values)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", type=Path, default=None, help="output directory override")
    return parser


def load_config(experiment: str, config_path, seed, out) -> ExperimentConfig:
    data = {}
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
    file_experiment = data.get("experiment")
    if file_experiment is not None and file_experiment != experiment:
        raise UsageError(
            f"config names experiment {file_experiment!r} but the subcommand is {experiment!r}")
    data["experiment"] = experiment
    if seed is not None:
        data["seed"] = seed
    if out is not None:
        data["output_dir"] = str(out)
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print(f"ghostlet: choose a subcommand: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return USAGE_EXIT
    try:
        cfg = load_config(args.experiment, args.config, args.seed, args.out)
        report = run_subcommand(cfg)
    except UsageError as exc:
        print(f"ghostlet: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except AccuracyFailure as exc:
        print(f"ghostlet: accuracy failure: {exc}", file=sys.stderr)
        return ACCURACY_EXIT
    for name in sorted(report.metrics):
        print(f"{name} = {report.metrics[name]:.6g}")
    print(f"report: {Path(cfg.output_dir) / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
