"""Command-line entry point for the experiment runners.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 truncation
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .experiments import (
    BACKENDS,
    EXPERIMENTS,
    FIELDS,
    ConfigError,
    ExperimentConfig,
    TruncationAbort,
    run_experiment,
)
from .hilbert import SectorSizeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_TRUNCATION = 4

# subcommand name -> experiment key (hyphenated on the CLI)
SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorqed",
        description="Delayed-feedback waveguide QED experiments (data-only output).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, experiment in SUBCOMMANDS.items():
        # a flag the experiment does not read is parsed, so that it exits 2
        # naming the field, but left out of the help
        hidden = {name for name, spec in FIELDS.items() if experiment not in spec[-1]}
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--seed", type=int,
            help=argparse.SUPPRESS if "seed" in hidden else "RNG seed (overrides config)",
        )
        p.add_argument(
            "--backend",
            help=argparse.SUPPRESS if "backend" in hidden else
            f"solver backend: {', '.join(BACKENDS[experiment])} (overrides config)",
        )
    return parser


def load_config(args) -> ExperimentConfig:
    experiment = SUBCOMMANDS[args.command]
    if args.config:
        config = ExperimentConfig.from_yaml(args.config)
        if config.experiment != experiment:
            raise ConfigError(
                f"config declares experiment {config.experiment!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
    else:
        config = ExperimentConfig(experiment=experiment)
    flags = {"seed": args.seed, "backend": args.backend, "out_dir": args.out}
    flags = {k: v for k, v in flags.items() if v is not None}
    config.require_read(flags, " (set by a flag)")
    # replace() validates the overridden config again
    return dataclasses.replace(config, **flags)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        written = run_experiment(config)
    except (ConfigError, SectorSizeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationAbort as exc:
        print(f"truncation abort: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
