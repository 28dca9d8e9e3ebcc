"""End-to-end experiment pipeline: simulate, fit, reconstruct, persist.

All requested methods run against one shared measurement dataset; every
method writes its own CSV, and a combined comparison CSV collects the
trajectories side by side.  Given a seed, the CSV outputs are bitwise
deterministic.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, oscillator
from .ensemble import SpectralModel, fit_ensemble, match_and_average, reconstruct, run_ensemble
from .objectives import MZ_DMD, T_MODEL, SnapshotPair, dmd_fit
from .oscillator import TAG_MEASUREMENT, Trajectory, integrate, monte_carlo_projection, rng_stream
from .plots import emit_plot


class MethodFailure(RuntimeError):
    """A pipeline method failed; carries the method name and stage."""

    def __init__(self, method, stage, cause):
        super().__init__(f"method '{method}' failed during {stage}: {cause}")
        self.method = method
        self.stage = stage


@contextlib.contextmanager
def stage(method, name):
    """Raise any failure inside the block as ``method`` failing during ``name``."""
    try:
        yield
    except Exception as exc:
        raise MethodFailure(method, name, exc) from exc


@dataclass
class RunReport:
    """What a run did.  ``projection_standard_error`` holds, per resolved
    coordinate, the largest standard error ``sqrt(var / n_mc)`` of the
    projection's mean and the time ``t`` at which it occurs; it is None, and
    left out of the JSON, when the projection is not run.  ``environment``
    names what stepped the run's integrations, as :func:`oscillator.stepper`
    gives it, and the core of scipy's OpenBLAS once a memory-aware fit loads it."""

    seed: int
    config: dict
    wall_times: dict = field(default_factory=dict)
    loss_traces: dict = field(default_factory=dict)
    imag_residues: dict = field(default_factory=dict)
    csv_files: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    projection_standard_error: dict | None = None

    def to_json(self) -> str:
        fields = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(fields, indent=2, sort_keys=True, default=str)


def csv_rows(columns) -> list[str]:
    """One CSV row per index of ``columns``: the one place a number becomes
    CSV text.  Each column is converted to Python floats and formatted once,
    in round-trip ``repr`` form; the columns must have equal lengths."""
    cells = (map(repr, np.asarray(col, dtype=float).tolist()) for col in columns)
    return list(map(",".join, zip(*cells, strict=True)))


def write_rows(path, header, *blocks) -> None:
    """Write the header, then the row texts of ``blocks`` side by side, making the directory."""
    lines = [",".join(header), *map(",".join, zip(*blocks, strict=True))]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:  # line by line: the whole text is never held, nor its encoding
        f.writelines(map("{}\n".format, lines))


def write_csv(traj: Trajectory, var: Trajectory | None, path,
              t: list[str] | None = None) -> tuple[list[str], list[str]]:
    """Write ``t,y1,y2[,var1,var2]`` rows with round-trip float formatting;
    return the column names after ``t`` and each row's text after ``t,``.

    ``t`` is the time cells as ``csv_rows([traj.times])`` formats them, for
    a caller that writes several files on one grid; None formats them here.
    """
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError("expected a two-coordinate trajectory")
    names, columns = ["y1", "y2"], [*states.T]
    if var is not None:
        var_states = np.asarray(var.states, dtype=float)
        if var_states.shape != states.shape:
            raise ValueError("variance shape does not match the trajectory")
        names, columns = names + ["var1", "var2"], columns + [*var_states.T]
    rows = csv_rows(columns)
    write_rows(path, ["t", *names], csv_rows([traj.times]) if t is None else t, rows)
    return names, rows


def simulate_measurement(cfg) -> tuple[Trajectory, SnapshotPair]:
    """The measurement: one full-system draw and its resolved coordinates.

    The resolved initial values (y1, y2) are pinned at cfg.resolved_init
    and the hidden ones are (y3, y4) = ``cfg.sim.sigma *
    rng_stream(seed, TAG_MEASUREMENT).standard_normal(2)``.  Returns the
    measured (y1, y2) trajectory and its ascending-time snapshot pair at
    step cfg.sim.dt.
    """
    y3, y4 = (cfg.sim.sigma * rng_stream(cfg.sim.seed, TAG_MEASUREMENT).standard_normal(2)).tolist()
    traj = integrate(np.array([*cfg.resolved_init, y3, y4]), cfg.sim)
    measured = Trajectory(traj.times, traj.states[:, :2])
    return measured, SnapshotPair.from_snapshots(measured.states.T, cfg.sim.dt)


def dmd_spectral_model(snapshots: SnapshotPair) -> SpectralModel:
    """Spectral model of the analytic least-squares operator."""
    return SpectralModel(*linalg.eig(dmd_fit(snapshots)), dt=snapshots.dt)


def _fit_dmd(cfg, snapshots):
    model = dmd_spectral_model(snapshots)
    return reconstruct(model, np.array(cfg.resolved_init), cfg.sim.times()), None, None


def _fit_ensemble(kind, cfg, snapshots):
    result = run_ensemble(
        kind, snapshots, cfg.sim.sigma, cfg.n_u, cfg.adam, cfg.sim.seed,
        np.array(cfg.resolved_init), cfg.sim.times(),
    )
    return result.mean_traj, result.variance_traj, result.loss_traces.mean(axis=0).tolist()


def _ensemble_spectral_model(kind, cfg, snapshots):
    """The averaged spectrum of an ensemble, without its reconstructions."""
    per_sample, _ = fit_ensemble(kind, snapshots, cfg.sim.sigma, cfg.n_u, cfg.adam, cfg.sim.seed)
    return match_and_average(per_sample)


def _fit_projection(cfg, snapshots):
    mean, var = monte_carlo_projection(cfg.sim, cfg.resolved_init)
    return mean, var, None


class Method(NamedTuple):
    """One way of predicting the resolved coordinates.

    ``stem`` names the method's CSV file, its ``comparison.csv`` columns and
    its ``<stem>_spectrum.csv``.  ``fit(cfg, snapshots)`` returns the
    trajectory, the variance or None, and the mean loss trace or None.
    ``spectral(cfg, snapshots)`` is the stage that ends at the method's
    spectral model, for the methods fitted to the measurement; it is None
    for the others, which ignore ``snapshots``.
    """

    stem: str
    fit: Callable
    spectral: Callable | None


# the fits look up the pipeline's functions at call time, so a wrapper
# installed on a module attribute sees every call
METHODS = {
    "dmd": Method("dmd", _fit_dmd, lambda cfg, snapshots: dmd_spectral_model(snapshots)),
    MZ_DMD: Method("mzdmd", functools.partial(_fit_ensemble, MZ_DMD),
                   functools.partial(_ensemble_spectral_model, MZ_DMD)),
    T_MODEL: Method("tmodel", functools.partial(_fit_ensemble, T_MODEL),
                    functools.partial(_ensemble_spectral_model, T_MODEL)),
    "projection": Method("projection", _fit_projection, None),
}


@functools.cache
def _scipy_version() -> str | None:
    """scipy's installed version from its metadata, without importing scipy;
    None where it is missing.  Read once a process, as the lookup reads the
    installed packages' files; ``importlib.metadata`` loads only for it."""
    import importlib.metadata

    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _libs(package) -> tuple[Path, Path]:
    """Where the imported ``package``'s wheel bundles its libraries: ``<name>.libs``
    beside the package on Linux and Windows, ``<name>/.dylibs`` on macOS."""
    root = Path(package.__file__).parent
    return root.parent / f"{package.__name__}.libs", root / ".dylibs"


NUMPY_LIBS = _libs(np)


@functools.cache
def _openblas(libs: tuple[Path, ...], suffix: str, prefix: str = "") -> dict:
    """The kernel ("core") that an OpenBLAS bundled in ``libs`` selected for
    this CPU, and that library's build configuration, as ``<prefix>openblas_core``
    and ``<prefix>openblas_config``, through ctypes on the library its package
    has already loaded, whose symbols end in ``suffix`` (``64_`` in numpy's
    64-bit-integer build, none in scipy's); None each where no such library or
    symbol is found.  The core decides the last bits of the library's calls,
    and is fixed once it loads."""
    for lib in sorted(lib for path in libs for lib in path.glob("libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            openblas = ctypes.CDLL(str(lib))
            core, config = (getattr(openblas, f"scipy_openblas_get_{name}{suffix}") for name in ("corename", "config"))
            for call in (core, config):
                call.argtypes, call.restype = [], ctypes.c_char_p
            return {f"{prefix}openblas_core": core().decode(), f"{prefix}openblas_config": config().decode().strip()}
    return {f"{prefix}openblas_core": None, f"{prefix}openblas_config": None}


def environment_stamp() -> dict:
    """The software and machine of a run: Python, numpy and scipy versions,
    the BLAS numpy was built with, the core and build of the OpenBLAS it
    bundles, the CPU count, and each of ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is set, as OpenBLAS
    reads all three.  Taking the stamp imports no scipy."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": f"{blas['name']} {blas['version']}",
        **_openblas(NUMPY_LIBS, "64_"),
        "cpu_count": os.cpu_count(),
    }
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if name in os.environ:
            stamp[name.lower()] = os.environ[name]
    return stamp


def run_experiment(cfg) -> RunReport:
    """Run the requested methods against one shared measurement dataset.

    Writes one CSV per method plus measurement.csv, comparison.csv, a JSON
    run report with an :func:`environment_stamp`, and (optionally) one SVG
    per resolved coordinate.  The CSVs come first, and the first of them
    makes the output directory.
    """
    out = cfg.output_dir
    methods = list(METHODS) if cfg.method == "all" else [cfg.method]
    report = RunReport(seed=cfg.sim.seed, config=dataclasses.asdict(cfg), environment=environment_stamp())

    with stage(cfg.method, "simulate"):
        measurement, snapshots = simulate_measurement(cfg)
    report.environment.update(oscillator.stepper())
    times = cfg.sim.times()
    t = csv_rows([times])  # every file's t column, formatted once
    with stage(cfg.method, "write"):
        tables = {"measurement": write_csv(measurement, None, out / "measurement.csv", t)}

    results: dict[str, tuple[Trajectory, Trajectory | None]] = {}
    for name in methods:
        with stage(name, "fit"):
            if name in (MZ_DMD, T_MODEL):
                linalg.load_expm()  # a one-time load, not a cost of this fit
                report.environment.update(_openblas(_libs(sys.modules["scipy"]), "", "scipy_"))
            start = time.perf_counter()
            traj, var, loss_trace = METHODS[name].fit(cfg, snapshots)
        report.wall_times[name] = time.perf_counter() - start
        if loss_trace is not None:
            report.loss_traces[name] = loss_trace
        if traj.max_imag is not None:
            report.imag_residues[name] = traj.max_imag
        stem = METHODS[name].stem
        with stage(name, "write"):
            tables[stem] = write_csv(traj, var, out / f"{stem}.csv", t)
        results[name] = (traj, var)

    if "projection" in results:
        report.projection_standard_error = _standard_error(results["projection"][1], cfg.sim.n_mc)
    report.csv_files = [str(out / f"{stem}.csv") for stem in [*tables, "comparison"]]
    with stage(cfg.method, "write"):
        _write_comparison(t, tables, out / "comparison.csv")

    if cfg.emit_plots:
        curves = {"measurement": (measurement, None), **results}
        with stage(cfg.method, "plot"):
            for coord, name in enumerate(("y1", "y2")):
                series = {key: (traj.states[:, coord], None if var is None else var.states[:, coord])
                          for key, (traj, var) in curves.items()}
                emit_plot(times, series, out / f"{name}.svg", ylabel=name)

    with stage(cfg.method, "write"):
        (out / "report.json").write_text(report.to_json() + "\n")
    return report


def _standard_error(var: Trajectory, n_mc: int) -> dict:
    """Per coordinate, the largest ``sqrt(var / n_mc)`` over the grid and
    the first time at which it occurs."""
    se = np.sqrt(var.states / n_mc)
    peak = se.argmax(axis=0)
    return {name: {"max": float(se[i, k]), "t": float(var.times[i])}
            for k, (name, i) in enumerate(zip(("y1", "y2"), peak))}


def _write_comparison(t, tables, path):
    """Write the ``t`` cells, then each stem's (names, rows) from write_csv as-is."""
    header = ["t", *(f"{stem}_{name}" for stem, (names, _) in tables.items() for name in names)]
    write_rows(path, header, t, *(rows for _, rows in tables.values()))
