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
    for cmd in SUBCOMMANDS:
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument(
            "--backend",
            help=f"solver backend: {', '.join(BACKENDS[SUBCOMMANDS[cmd]])} (overrides config)",
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
    # replace() validates the overridden config again
    flags = {"seed": args.seed, "backend": args.backend, "out_dir": args.out}
    return dataclasses.replace(
        config, **{k: v for k, v in flags.items() if v is not None}
    )


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
