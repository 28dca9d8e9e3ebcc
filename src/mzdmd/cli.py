"""Command-line interface.

``COMMANDS`` names each subcommand, its help line and its handler.  Exit
codes: 0 success, 1 method failure, 2 configuration failure.

Each flag sets the config key it names: ``--seed`` sets ``seed``,
``--method`` sets ``method`` and ``--out`` sets ``output_dir``, which a
non-empty ``MZDMD_OUTPUT_DIR`` sets when ``--out`` is absent.  Flags replace
the config file's values, and the result is validated once, so a refused
flag is a configuration failure like a refused key.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness
from .config import METHODS, ExperimentConfig, build_config, read_config
from .errors import ConfigError
from .harness import MethodFailure, run_experiment, simulate_measurement, write_csv
from .selfcheck import run_checks

ENV_OUTPUT_DIR = "MZDMD_OUTPUT_DIR"

EXIT_OK = 0
EXIT_METHOD_FAILURE = 1
EXIT_CONFIG_FAILURE = 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key-value config file")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--method", choices=METHODS, help="override the method")
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="mzdmd",
        description="Memory-aware dynamic mode decomposition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def resolve_config(args) -> ExperimentConfig:
    """The config file's keys, if any, with the flags laid over them."""
    keys = read_config(args.config) if args.config is not None else {}
    flags = {
        "output_dir": args.out if args.out is not None else os.environ.get(ENV_OUTPUT_DIR) or None,
        "seed": args.seed,
        "method": args.method,
    }
    return build_config(keys | {key: value for key, value in flags.items() if value is not None})


def _single_method(cfg, purpose) -> harness.Method:
    if cfg.method == "all":
        raise ConfigError(f"'{purpose}' needs a single method, not 'all'")
    return harness.METHODS[cfg.method]


def cmd_simulate(cfg) -> int:
    with harness.stage(cfg.method, "simulate"):
        measurement, _ = simulate_measurement(cfg)
    with harness.stage(cfg.method, "write"):
        path = cfg.output_dir / "measurement.csv"
        write_csv(measurement, None, path)
    print(path)
    return EXIT_OK


def cmd_fit(cfg) -> int:
    method = _single_method(cfg, "fit")
    if not method.spectral:
        spectral = [name for name, m in harness.METHODS.items() if m.spectral]
        raise ConfigError(f"'fit' needs one of {', '.join(spectral)}, not '{cfg.method}'")
    with harness.stage(cfg.method, "simulate"):
        snapshots = simulate_measurement(cfg)[1]
    with harness.stage(cfg.method, "fit"):
        model = method.spectral(cfg, snapshots)
    with harness.stage(cfg.method, "write"):
        path = cfg.output_dir / f"{method.stem}_spectrum.csv"
        rows = harness.csv_rows([model.values.real, model.values.imag])
        harness.write_rows(path, ["re", "im"], rows)
    for value in model.values:
        print(f"{value.real:+.12f} {value.imag:+.12f}j  |lambda| = {abs(value):.12f}")
    print(path)
    return EXIT_OK


def cmd_reconstruct(cfg) -> int:
    method = _single_method(cfg, "reconstruct")
    with harness.stage(cfg.method, "simulate"):
        snapshots = simulate_measurement(cfg)[1] if method.spectral else None
    with harness.stage(cfg.method, "fit"):
        traj, var, _ = method.fit(cfg, snapshots)
    with harness.stage(cfg.method, "write"):
        path = cfg.output_dir / f"{method.stem}.csv"
        write_csv(traj, var, path)
    print(path)
    return EXIT_OK


def cmd_run(cfg) -> int:
    report = run_experiment(cfg)
    for method, wall in report.wall_times.items():
        print(f"{method}: {wall:.3f} s")
    print(cfg.output_dir / "report.json")
    return EXIT_OK


# name: (help line, handler), in the order ``--help`` lists them
COMMANDS = {
    "simulate": ("integrate one measurement draw and write measurement.csv", cmd_simulate),
    "fit": ("fit the requested method and write its spectrum CSV", cmd_fit),
    "reconstruct": ("fit the requested method and write its trajectory CSV", cmd_reconstruct),
    "run": ("run the full pipeline for the requested methods", cmd_run),
    "check": ("run the invariant self-check suite on the master seed",
              lambda cfg: EXIT_OK if run_checks(cfg.sim.seed) else EXIT_METHOD_FAILURE),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return COMMANDS[args.command][1](resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_FAILURE
    except MethodFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_METHOD_FAILURE


if __name__ == "__main__":
    sys.exit(main())
