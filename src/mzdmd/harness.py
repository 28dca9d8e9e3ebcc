"""End-to-end experiment pipeline: simulate, fit, reconstruct, persist.

All requested methods run against one shared measurement dataset; every
method writes its own CSV, and a combined comparison CSV collects the
trajectories side by side.  Given a seed, the CSV outputs are bitwise
deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .config import ExperimentConfig
from .ensemble import SpectralModel, reconstruct, run_ensemble
from .objectives import SnapshotPair, dmd_fit
from .oscillator import (
    TAG_MEASUREMENT,
    Trajectory,
    integrate,
    measure,
    monte_carlo_projection,
    rng_stream,
    sample_unresolved,
)
from .plots import emit_plot

SUBSTEPS = 10

CSV_NAMES = {
    "dmd": "dmd.csv",
    "mz-dmd": "mzdmd.csv",
    "t-model": "tmodel.csv",
    "projection": "projection.csv",
}
_COLUMN_PREFIX = {
    "measurement": "measurement",
    "dmd": "dmd",
    "mz-dmd": "mzdmd",
    "t-model": "tmodel",
    "projection": "projection",
}


class MethodFailure(RuntimeError):
    """A pipeline method failed; carries the method name and stage."""

    def __init__(self, method, stage, cause):
        super().__init__(f"method '{method}' failed during {stage}: {cause}")
        self.method = method
        self.stage = stage
        self.cause = cause


@dataclass
class RunReport:
    seed: int
    config: dict
    wall_times: dict = field(default_factory=dict)
    loss_traces: dict = field(default_factory=dict)
    imag_residues: dict = field(default_factory=dict)
    csv_files: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def write_csv(traj: Trajectory, var: Trajectory | None, path) -> None:
    """Write ``t,y1,y2[,var1,var2]`` rows with round-trip float formatting."""
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError("write_csv expects a two-coordinate trajectory")
    header = "t,y1,y2"
    var_states = None
    if var is not None:
        var_states = np.asarray(var.states, dtype=float)
        if var_states.shape != states.shape:
            raise ValueError("variance shape does not match the trajectory")
        header += ",var1,var2"
    lines = [header]
    for k in range(traj.times.size):
        cells = [repr(float(traj.times[k])), repr(float(states[k, 0])), repr(float(states[k, 1]))]
        if var_states is not None:
            cells.append(repr(float(var_states[k, 0])))
            cells.append(repr(float(var_states[k, 1])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a CSV written by :func:`write_csv`; returns (header, data)."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    return header, data


def config_as_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["output_dir"] = str(cfg.output_dir)
    out["resolved_init"] = list(cfg.resolved_init)
    return out


def simulate_measurement(cfg: ExperimentConfig) -> tuple[Trajectory, SnapshotPair]:
    """One full-system draw: hidden initial conditions sampled from the
    measurement stream, resolved initials pinned at cfg.resolved_init."""
    rng = rng_stream(cfg.sim.seed, TAG_MEASUREMENT)
    y3, y4 = sample_unresolved(cfg.sim.sigma, rng)
    y0 = np.array([cfg.resolved_init[0], cfg.resolved_init[1], y3, y4])
    traj = integrate(y0, cfg.sim, SUBSTEPS)
    return traj, measure(traj)


def dmd_spectral_model(snapshots: SnapshotPair) -> SpectralModel:
    """Spectral model of the analytic least-squares operator."""
    dec = linalg.eig(dmd_fit(snapshots))
    return SpectralModel(values=dec.values, vectors=dec.vectors, dt=snapshots.dt)


def _fit_method(method, cfg, snapshots, x0, times, report):
    """Produce (trajectory, variance-or-None) for one method."""
    if method == "dmd":
        traj = reconstruct(dmd_spectral_model(snapshots), x0, times)
        report.imag_residues[method] = traj.max_imag
        return traj, None
    if method in ("mz-dmd", "t-model"):
        sink: list = []
        result = run_ensemble(
            method, snapshots, cfg.sim.sigma, cfg.n_u, cfg.adam,
            cfg.sim.seed, x0, times, trace_sink=sink,
        )
        report.loss_traces[method] = np.mean(sink, axis=0).tolist()
        report.imag_residues[method] = result.mean_traj.max_imag
        return result.mean_traj, result.variance_traj
    if method == "projection":
        mean, var = monte_carlo_projection(cfg.sim, cfg.resolved_init, SUBSTEPS)
        return mean, var
    raise ValueError(f"unknown method {method!r}")


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the requested methods against one shared measurement dataset.

    Writes one CSV per method plus measurement.csv, comparison.csv, a JSON
    run report, and (optionally) one SVG per resolved coordinate.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods = list(CSV_NAMES) if cfg.method == "all" else [cfg.method]
    report = RunReport(seed=cfg.sim.seed, config=config_as_dict(cfg))

    try:
        measurement_traj, snapshots = simulate_measurement(cfg)
    except Exception as exc:
        raise MethodFailure("all" if cfg.method == "all" else cfg.method, "simulate", exc) from exc
    measurement = Trajectory(measurement_traj.times, measurement_traj.states[:, :2])
    _write(measurement, None, out / "measurement.csv", "measurement", "write", report)

    x0 = np.array(cfg.resolved_init)
    times = cfg.sim.times()
    results: dict[str, tuple[Trajectory, Trajectory | None]] = {}
    for method in methods:
        start = time.perf_counter()
        try:
            traj, var = _fit_method(method, cfg, snapshots, x0, times, report)
        except Exception as exc:
            raise MethodFailure(method, "fit", exc) from exc
        report.wall_times[method] = time.perf_counter() - start
        _write(traj, var, out / CSV_NAMES[method], method, "write", report)
        results[method] = (traj, var)

    _write_comparison(times, measurement, results, out / "comparison.csv", report)

    if cfg.emit_plots:
        try:
            for coord, name in enumerate(("y1", "y2")):
                series = {"measurement": (measurement.states[:, coord], None)}
                for method, (traj, var) in results.items():
                    series[method] = (
                        traj.states[:, coord],
                        None if var is None else var.states[:, coord],
                    )
                emit_plot(times, series, out / f"{name}.svg", ylabel=name)
        except Exception as exc:
            raise MethodFailure(cfg.method, "plot", exc) from exc

    (out / "report.json").write_text(report.to_json() + "\n")
    return report


def _write(traj, var, path, method, stage, report):
    try:
        write_csv(traj, var, path)
    except Exception as exc:
        raise MethodFailure(method, stage, exc) from exc
    report.csv_files.append(str(path))


def _write_comparison(times, measurement, results, path, report):
    header = ["t", "measurement_y1", "measurement_y2"]
    columns = [times, measurement.states[:, 0], measurement.states[:, 1]]
    for method, (traj, var) in results.items():
        prefix = _COLUMN_PREFIX[method]
        header += [f"{prefix}_y1", f"{prefix}_y2"]
        columns += [traj.states[:, 0], traj.states[:, 1]]
        if var is not None:
            header += [f"{prefix}_var1", f"{prefix}_var2"]
            columns += [var.states[:, 0], var.states[:, 1]]
    lines = [",".join(header)]
    for k in range(times.size):
        lines.append(",".join(repr(float(col[k])) for col in columns))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except Exception as exc:
        raise MethodFailure("comparison", "write", exc) from exc
    report.csv_files.append(str(path))
