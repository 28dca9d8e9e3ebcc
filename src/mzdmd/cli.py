"""Command-line interface.

Subcommands: ``simulate`` (write the measurement dataset), ``fit`` (fit one
method and write its spectrum), ``reconstruct`` (fit and write the
reconstructed trajectory), ``run`` (full pipeline), ``check`` (invariant
suite).  Exit codes: 0 success, 1 method failure, 2 configuration failure.
The output directory resolves as ``--out`` > ``MZDMD_OUTPUT_DIR`` > config.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import harness
from .config import METHODS, ExperimentConfig, default_config, parse_config
from .errors import ConfigError, NumericalError
from .harness import MethodFailure, run_experiment, simulate_measurement, write_columns, write_csv
from .oscillator import Trajectory
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
    common.add_argument("--out", type=Path, help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="mzdmd",
        description="Memory-aware dynamic mode decomposition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="integrate one measurement draw and write measurement.csv")
    sub.add_parser("fit", parents=[common],
                   help="fit the requested method and write its spectrum CSV")
    sub.add_parser("reconstruct", parents=[common],
                   help="fit the requested method and write its trajectory CSV")
    sub.add_parser("run", parents=[common],
                   help="run the full pipeline for the requested methods")
    sub.add_parser("check", parents=[common],
                   help="run the invariant self-check suite on the master seed")
    return parser


def resolve_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config is not None else default_config()
    env_out = os.environ.get(ENV_OUTPUT_DIR)
    if env_out:
        cfg = dataclasses.replace(cfg, output_dir=Path(env_out))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=args.seed))
    if args.method is not None:
        cfg = dataclasses.replace(cfg, method=args.method)
    return cfg


def _single_method(cfg, purpose) -> harness.Method:
    if cfg.method == "all":
        raise ConfigError(f"'{purpose}' needs a single method, not 'all'")
    return harness.METHODS[cfg.method]


def _out_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg) -> int:
    out = _out_dir(cfg)
    traj, _ = simulate_measurement(cfg)
    write_csv(Trajectory(traj.times, traj.states[:, :2]), None, out / "measurement.csv")
    print(out / "measurement.csv")
    return EXIT_OK


def cmd_fit(cfg) -> int:
    method = _single_method(cfg, "fit")
    if not method.spectral:
        spectral = [name for name, m in harness.METHODS.items() if m.spectral]
        raise ConfigError(f"'fit' needs one of {', '.join(spectral)}, not '{cfg.method}'")
    out = _out_dir(cfg)
    _, _, model, _ = method.fit(cfg, simulate_measurement(cfg)[1])
    path = out / f"{method.stem}_spectrum.csv"
    write_columns(path, ["re", "im"], [model.values.real, model.values.imag])
    for value in model.values:
        print(f"{value.real:+.12f} {value.imag:+.12f}j  |lambda| = {abs(value):.12f}")
    print(path)
    return EXIT_OK


def cmd_reconstruct(cfg) -> int:
    method = _single_method(cfg, "reconstruct")
    out = _out_dir(cfg)
    snapshots = simulate_measurement(cfg)[1] if method.spectral else None
    traj, var, _, _ = method.fit(cfg, snapshots)
    path = out / f"{method.stem}.csv"
    write_csv(traj, var, path)
    print(path)
    return EXIT_OK


def cmd_run(cfg) -> int:
    report = run_experiment(cfg)
    for method, wall in report.wall_times.items():
        print(f"{method}: {wall:.3f} s")
    print(Path(cfg.output_dir) / "report.json")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:  # ConfigError, or an override the config refuses
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_FAILURE

    handlers = {
        "simulate": cmd_simulate,
        "fit": cmd_fit,
        "reconstruct": cmd_reconstruct,
        "run": cmd_run,
        "check": lambda cfg: EXIT_OK if run_checks(cfg.sim.seed) else EXIT_METHOD_FAILURE,
    }
    try:
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_FAILURE
    except MethodFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_METHOD_FAILURE
    except (NumericalError, ValueError, OSError) as exc:
        print(f"method '{getattr(cfg, 'method', '?')}' failed: {exc}", file=sys.stderr)
        return EXIT_METHOD_FAILURE


if __name__ == "__main__":
    sys.exit(main())
