import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import warnings

import numpy as np
import pytest
from conftest import oscillator_rhs, read_csv, reference_integrate

from mzdmd import (
    SnapshotPair,
    Trajectory,
    default_config,
    dmd_spectral_model,
    emit_plot,
    fit_ensemble,
    reconstruct,
    rng_stream,
    run_experiment,
    simulate_measurement,
    write_csv,
)
from mzdmd import harness, oscillator, plots
from mzdmd.config import build_config
from mzdmd.harness import METHODS, MethodFailure, csv_rows, write_rows

# floats whose text forms are easy to get wrong: a negative zero, the
# smallest subnormal, a value near overflow, a repeating fraction and
# integer values
AWKWARD = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, -7.0, 0.0, 1e16]
# the environment variables OpenBLAS sizes its thread pool from
THREAD_VARIABLES = ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]


def _awkward_trajectory(with_var):
    """A trajectory of the AWKWARD values, and a variance of them when
    ``with_var``."""
    values = np.array(AWKWARD)
    times = np.arange(values.size) * 0.1
    traj = Trajectory(times, np.stack([values, values[::-1]], axis=1))
    var = Trajectory(times, np.stack([np.roll(values, 3), -values], axis=1)) if with_var else None
    return traj, var


def small_config(tmp_path, **overrides):
    cfg = default_config()
    sim = dataclasses.replace(
        cfg.sim, t_max=8.0, n_points=81, n_mc=10, **overrides.pop("sim", {})
    )
    return dataclasses.replace(
        cfg, sim=sim, n_u=3, output_dir=tmp_path / "out", **overrides
    )


def _reference_write_columns(path, header, columns):
    """A CSV writer that formats one numpy scalar per cell: the
    byte-for-byte reference for the per-column conversion and the joined
    rows."""
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        lines.append(",".join(repr(float(col[k])) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _reference_emit_plot(times, series, path, ylabel="y"):
    """``emit_plot`` as it formatted one point at a time, through numpy
    scalars: the byte-for-byte reference for the array form."""
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 2:
        raise ValueError("need at least two time points to plot")

    lo, hi = np.inf, -np.inf
    for values, var in series.values():
        values = np.asarray(values, dtype=float).ravel()
        lo = min(lo, values.min())
        hi = max(hi, values.max())
        if var is not None:
            band = np.sqrt(np.asarray(var, dtype=float).ravel())
            lo = min(lo, (values - band).min())
            hi = max(hi, (values + band).max())
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    t0, t1 = float(times[0]), float(times[-1])
    plot_w = plots.WIDTH - plots.MARGIN_L - plots.MARGIN_R
    plot_h = plots.HEIGHT - plots.MARGIN_T - plots.MARGIN_B

    def px(t):
        return plots.MARGIN_L + (t - t0) / (t1 - t0) * plot_w

    def py(v):
        return plots.MARGIN_T + (hi - v) / (hi - lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{plots.WIDTH}" height="{plots.HEIGHT}" '
        f'viewBox="0 0 {plots.WIDTH} {plots.HEIGHT}">',
        f'<rect width="{plots.WIDTH}" height="{plots.HEIGHT}" fill="white"/>',
        f'<rect x="{plots.MARGIN_L}" y="{plots.MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = t0 + frac * (t1 - t0)
        out.append(
            f'<text x="{px(tx):.2f}" y="{plots.HEIGHT - plots.MARGIN_B + 18}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{tx:.3g}</text>'
        )
        vy = lo + frac * (hi - lo)
        out.append(
            f'<text x="{plots.MARGIN_L - 6}" y="{py(vy) + 4:.2f}" font-size="11" '
            f'font-family="monospace" text-anchor="end">{vy:.3g}</text>'
        )
    out.append(
        f'<text x="{plots.MARGIN_L + plot_w / 2:.1f}" y="{plots.HEIGHT - 8}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">t</text>'
    )
    out.append(
        f'<text x="16" y="{plots.MARGIN_T + plot_h / 2:.1f}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">{ylabel}</text>'
    )

    # bands first so the lines draw on top of them
    for index, (name, (values, var)) in enumerate(series.items()):
        if var is None:
            continue
        values = np.asarray(values, dtype=float).ravel()
        band = np.sqrt(np.asarray(var, dtype=float).ravel())
        upper = [f"{px(t):.2f},{py(v):.2f}" for t, v in zip(times, values + band)]
        lower = [f"{px(t):.2f},{py(v):.2f}" for t, v in zip(times[::-1], (values - band)[::-1])]
        color = plots._series_color(name, index)
        out.append(
            f'<path d="M {" L ".join(upper + lower)} Z" fill="{color}" '
            f'fill-opacity="0.2" stroke="none"/>'
        )

    for index, (name, (values, _)) in enumerate(series.items()):
        values = np.asarray(values, dtype=float).ravel()
        pts = " ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in zip(times, values))
        color = plots._series_color(name, index)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    legend_x = plots.WIDTH - plots.MARGIN_R + 12
    for index, name in enumerate(series):
        y = plots.MARGIN_T + 16 + 20 * index
        color = plots._series_color(name, index)
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12" '
            f'font-family="monospace">{name}</text>'
        )

    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")


class TestWritersMatchPerCellReference:
    def test_csv_columns(self, tmp_path):
        rng = np.random.default_rng(11)
        columns = [
            np.array(AWKWARD),
            np.array(AWKWARD[::-1]),
            np.arange(len(AWKWARD)),  # an integer column
            rng.standard_normal(len(AWKWARD)) * 10.0 ** rng.integers(-300, 300, len(AWKWARD)),
            list(AWKWARD),
        ]
        header = ["a", "b", "c", "d", "e"]
        write_rows(tmp_path / "new.csv", header, csv_rows(columns))
        _reference_write_columns(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        rows = (tmp_path / "new.csv").read_text().splitlines()
        assert rows[1].startswith("-0.0,1e+16,0.0,") and rows[3].startswith("1e+308,-7.0,2.0,")

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            csv_rows([np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError):
            write_rows(tmp_path / "t.csv", ["a", "b"], ["1.0"] * 3, ["2.0"] * 2)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("with_var", [False, True], ids=["no-var", "var"])
    def test_csv_trajectory_rows(self, tmp_path, with_var):
        traj, var = _awkward_trajectory(with_var)
        names, rows = write_csv(traj, var, tmp_path / "new.csv")
        columns = [traj.times, *traj.states.T, *([] if var is None else var.states.T)]
        _reference_write_columns(tmp_path / "old.csv", ["t", *names], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        lines = (tmp_path / "old.csv").read_text().split()
        assert rows == [line.split(",", 1)[1] for line in lines[1:]]

    def test_comparison_joins_the_written_rows(self, tmp_path):
        # comparison.csv under its stems, as one numpy scalar per cell of
        # every trajectory formats it
        times = np.arange(len(AWKWARD)) * 0.1
        sources = {"measurement": _awkward_trajectory(False), "mzdmd": _awkward_trajectory(True)}
        tables = {stem: write_csv(*pair, tmp_path / f"{stem}.csv") for stem, pair in sources.items()}
        harness._write_comparison(csv_rows([times]), tables, tmp_path / "new.csv")
        header, columns = ["t"], [times]
        for stem, (traj, var) in sources.items():
            names = ["y1", "y2"] if var is None else ["y1", "y2", "var1", "var2"]
            header += [f"{stem}_{name}" for name in names]
            columns += [*traj.states.T, *([] if var is None else var.states.T)]
        _reference_write_columns(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("case", ["awkward", "near-overflow", "random"])
    def test_svg(self, tmp_path, case):
        rng = np.random.default_rng(12)
        if case == "awkward":
            values = np.array([v for v in AWKWARD if abs(v) < 1e300])
            times = np.arange(values.size) * 0.5
            series = {"measurement": (values, None), "dmd": (values[::-1], np.abs(values) / 3)}
        elif case == "near-overflow":
            # a band of half-width 1e154 around values up to 1e308
            times = np.arange(len(AWKWARD)) * 3.0
            series = {"projection": (np.array(AWKWARD), np.full(len(AWKWARD), 1e308))}
        else:
            times = np.arange(501) * 0.1
            series = {
                name: (rng.standard_normal(501), rng.random(501) if k % 2 else None)
                for k, name in enumerate(plots.COLORS)
            }
        emit_plot(times, series, tmp_path / "new.svg", ylabel="y1")
        _reference_emit_plot(times, series, tmp_path / "old.svg", ylabel="y1")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


class TestWriteCsv:
    def test_three_point_file_has_four_lines(self, tmp_path):
        traj = Trajectory(np.arange(3) * 0.1, np.arange(6.0).reshape(3, 2))
        path = tmp_path / "t.csv"
        write_csv(traj, None, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,y1,y2"

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        times = np.arange(5) * 0.1
        traj = Trajectory(times, rng.standard_normal((5, 2)))
        var = Trajectory(times, rng.uniform(0, 1, (5, 2)))
        path = tmp_path / "t.csv"
        write_csv(traj, var, path)
        header, data = read_csv(path)
        assert header == ["t", "y1", "y2", "var1", "var2"]
        np.testing.assert_array_equal(data[:, 0], times)
        np.testing.assert_array_equal(data[:, 1:3], traj.states)
        np.testing.assert_array_equal(data[:, 3:], var.states)

    def test_variance_omitted_gives_three_columns(self, tmp_path):
        traj = Trajectory(np.arange(2) * 0.1, np.zeros((2, 2)))
        path = tmp_path / "t.csv"
        write_csv(traj, None, path)
        assert path.read_text().splitlines()[0].count(",") == 2

    def test_makes_missing_directory(self, tmp_path):
        traj = Trajectory(np.arange(2) * 0.1, np.zeros((2, 2)))
        path = tmp_path / "new" / "deeper" / "t.csv"
        write_csv(traj, None, path)
        assert read_csv(path)[0] == ["t", "y1", "y2"]

    @pytest.mark.parametrize("with_var", [False, True], ids=["no-var", "var"])
    def test_returns_the_text_after_t_of_every_row(self, tmp_path, with_var):
        rng = np.random.default_rng(3)
        times = np.arange(7) * 0.1
        traj = Trajectory(times, rng.standard_normal((7, 2)))
        var = Trajectory(times, rng.uniform(0, 1, (7, 2))) if with_var else None
        names, rows = write_csv(traj, var, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == ",".join(["t", *names])
        assert [f"{t!r},{row}" for t, row in zip(times.tolist(), rows, strict=True)] == lines[1:]

    @pytest.mark.parametrize("states", [np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3))],
                             ids=["1-D", "one coordinate", "three coordinates"])
    def test_trajectory_must_have_two_coordinates(self, tmp_path, states):
        with pytest.raises(ValueError, match="^expected a two-coordinate trajectory$"):
            write_csv(Trajectory(np.arange(3) * 0.1, states), None, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_shape_mismatch(self, tmp_path):
        traj = Trajectory(np.arange(3) * 0.1, np.zeros((3, 2)))
        var = Trajectory(np.arange(2) * 0.1, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            write_csv(traj, var, tmp_path / "t.csv")


class TestEmitPlot:
    def test_constant_series_draws_full_width_line(self, tmp_path):
        times = np.arange(6) * 1.0
        path = tmp_path / "p.svg"
        emit_plot(times, {"dmd": (np.full(6, 2.0), None)}, path, ylabel="y1")
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "dmd" in svg
        # a constant series is a horizontal line: one distinct y coordinate
        pts = svg.split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        xs = [float(p.split(",")[0]) for p in pts]
        assert len(ys) == 1
        assert max(xs) - min(xs) > 400

    def test_zero_variance_band_degenerates_to_line(self, tmp_path):
        times = np.arange(4) * 1.0
        values = np.array([0.0, 1.0, 0.0, -1.0])
        path = tmp_path / "p.svg"
        emit_plot(times, {"projection": (values, np.zeros(4))}, path)
        svg = path.read_text()
        band = svg.split('<path d="M ')[1].split('"')[0].replace(" Z", "")
        coords = band.split(" L ")
        # upper and lower band edges coincide pointwise when the variance is zero
        assert coords[:4] == coords[4:][::-1]

    @pytest.mark.parametrize(
        "times, values, var",
        [
            (np.arange(5.0), np.zeros(3), None),  # a short series
            (np.arange(5.0), np.zeros(6), None),  # a long series
            (np.arange(5.0), np.zeros(5), np.ones(1)),  # a variance that would broadcast
            (np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.zeros(5), None),  # equal times
            (np.arange(5.0)[::-1], np.zeros(5), None),  # decreasing times
            (np.array([0.0, 1.0, np.nan, 3.0, 4.0]), np.zeros(5), None),  # a NaN time
        ],
        ids=["short-series", "long-series", "one-entry-variance", "equal-times",
             "decreasing-times", "nan-time"],
    )
    def test_rejects_series_off_the_time_axis(self, tmp_path, times, values, var):
        with pytest.raises(ValueError, match="time point"):
            emit_plot(times, {"dmd": (values, var)}, tmp_path / "p.svg")
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize(
        "values, var, match",
        [
            ([0.0, 1.0, np.nan, 3.0, 4.0], None, "non-finite value"),
            ([0.0, 1.0, np.inf, 3.0, 4.0], None, "non-finite value"),
            ([0.0, 1.0, -np.inf, 3.0, 4.0], [0.1] * 5, "non-finite value"),
            (np.zeros(5), [0.1, np.nan, 0.1, 0.1, 0.1], "negative or non-finite variance"),
            (np.zeros(5), [0.1, np.inf, 0.1, 0.1, 0.1], "negative or non-finite variance"),
            (np.zeros(5), [0.1, 0.1, -1e-3, 0.1, 0.1], "negative or non-finite variance"),
        ],
        ids=["nan-value", "inf-value", "minus-inf-value", "nan-variance", "inf-variance",
             "negative-variance"],
    )
    def test_rejects_non_finite_series_and_negative_variance(self, tmp_path, values, var, match):
        # the bad series comes second, so the refusal names it and not the first
        series = {"measurement": (np.ones(5), None), "t-model": (values, var)}
        with pytest.raises(ValueError, match=f"series 't-model' has a {match}"):
            emit_plot(np.arange(5.0), series, tmp_path / "p.svg")
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("span", [1e308, 8.9e307], ids=["span-overflows", "pad-overflows"])
    def test_rejects_a_value_range_that_overflows(self, tmp_path, span):
        # 2e308 overflows as a span; 1.78e308 does not, but padded by 5 % it does
        with pytest.raises(ValueError, match="padded value range is not finite"):
            emit_plot(np.arange(2.0), {"dmd": ([-span, span], None)}, tmp_path / "p.svg")
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("times", [[-1e308, 1e308], [0.0, np.inf]], ids=["span-overflows", "infinite-end"])
    def test_rejects_a_time_span_that_is_not_finite(self, tmp_path, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="time span is not finite"):
                emit_plot(times, {"dmd": ([0.0, 1.0], None)}, tmp_path / "p.svg")
        assert not (tmp_path / "p.svg").exists()

    def test_negative_zero_variance_is_accepted(self, tmp_path):
        emit_plot(np.arange(3.0), {"dmd": (np.zeros(3), np.array([-0.0, 0.0, 1.0]))}, tmp_path / "p.svg")
        assert (tmp_path / "p.svg").read_text().count("nan") == 0

    def test_deterministic_output(self, tmp_path):
        times = np.arange(5) * 1.0
        series = {"a": (np.sin(times), None), "b": (np.cos(times), np.full(5, 0.1))}
        emit_plot(times, series, tmp_path / "one.svg")
        emit_plot(times, series, tmp_path / "two.svg")
        assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()


def _reference_measurement(cfg):
    """The measurement as three steps composed it: the hidden draw, the
    integration of the full state (``reference_integrate`` on
    ``oscillator_rhs`` at step dt/10, which one-state ``integrate`` equals
    bit for bit) and the extraction of (y1, y2) with the first step of the
    time grid: the bitwise reference for ``simulate_measurement``.  Returns
    the initial state, the measured states and their snapshot pair."""
    draws = cfg.sim.sigma * rng_stream(cfg.sim.seed, 0).standard_normal(2)
    y3, y4 = float(draws[0]), float(draws[1])
    y0 = np.array([cfg.resolved_init[0], cfg.resolved_init[1], y3, y4])
    states = reference_integrate(oscillator_rhs, y0, cfg.sim, 10)[:, :2]
    dt = np.diff(cfg.sim.times()[:2]).sum()
    return y0, states, SnapshotPair.from_snapshots(states.T, dt)


def _recorded_measurement(cfg, monkeypatch):
    """``simulate_measurement(cfg)`` and the initial state it integrated."""
    starts, real = [], harness.integrate

    def recording(s0, *args, **kwargs):
        starts.append(np.array(s0))
        return real(s0, *args, **kwargs)

    monkeypatch.setattr(harness, "integrate", recording)
    traj, snaps = simulate_measurement(cfg)
    (start,) = starts
    return start, traj, snaps


class TestSimulateMeasurement:
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_reference_bitwise(self, seed, sigma, monkeypatch):
        cfg = default_config()
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=seed, sigma=sigma))
        start, traj, snaps = _recorded_measurement(cfg, monkeypatch)
        want_start, states, want = _reference_measurement(cfg)
        assert start.tobytes() == want_start.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert snaps.x_plus.tobytes() == want.x_plus.tobytes()
        assert snaps.x_minus.tobytes() == want.x_minus.tobytes()
        assert np.float64(snaps.dt).tobytes() == np.float64(want.dt).tobytes()
        np.testing.assert_array_equal(traj.times, cfg.sim.times())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_sigma_keeps_negative_zero_draws(self, seed, monkeypatch):
        # 0.0 times a negative normal is -0.0, and the hidden start keeps it
        cfg = default_config()
        sim = dataclasses.replace(cfg.sim, seed=seed, sigma=0.0, t_max=0.1, n_points=2)
        start, _, _ = _recorded_measurement(dataclasses.replace(cfg, sim=sim), monkeypatch)
        assert not start[2:].any() and np.signbit(start[2:]).any()

    def test_respects_resolved_init_and_seed(self):
        cfg = default_config()
        traj, snaps = simulate_measurement(cfg)
        assert traj.states[0, 0] == cfg.resolved_init[0]
        assert traj.states[0, 1] == cfg.resolved_init[1]
        assert snaps.cols == cfg.sim.n_points - 1
        traj2, _ = simulate_measurement(cfg)
        np.testing.assert_array_equal(traj.states, traj2.states)


class TestRunExperiment:
    def test_all_methods_emit_expected_csvs(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_experiment(cfg)
        out = cfg.output_dir
        for name in ("dmd.csv", "mzdmd.csv", "tmodel.csv", "projection.csv",
                     "comparison.csv", "measurement.csv", "report.json"):
            assert (out / name).exists(), name
        assert set(report.wall_times) == set(METHODS)
        assert report.loss_traces["mz-dmd"]
        # every spectral reconstruction reports its imaginary residue; the
        # projection has none
        assert list(report.imag_residues) == ["dmd", "mz-dmd", "t-model"]
        assert all(0.0 <= r < 1e-10 for r in report.imag_residues.values())
        parsed = json.loads((out / "report.json").read_text())
        assert parsed["seed"] == cfg.sim.seed
        assert parsed["config"]["output_dir"] == str(out)
        assert parsed["config"]["resolved_init"] == list(cfg.resolved_init)

    @pytest.mark.parametrize("variable", THREAD_VARIABLES)
    def test_report_stamps_the_environment(self, tmp_path, monkeypatch, variable):
        for name in THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, "1")
        cfg = small_config(tmp_path, method="dmd")
        run_experiment(cfg)
        stamp = json.loads((cfg.output_dir / "report.json").read_text())["environment"]
        assert stamp == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": stamp["blas"],
            "cpu_count": os.cpu_count(),
            variable.lower(): "1",
        }
        assert stamp["blas"].startswith(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
        monkeypatch.delenv(variable)
        assert variable.lower() not in run_experiment(cfg).environment

    def test_stamp_names_the_numpy_stepper_when_the_kernel_is_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oscillator, "_rk4_kernel", lambda: None)
        cfg = small_config(tmp_path, method="projection")
        run_experiment(cfg)
        assert json.loads((cfg.output_dir / "report.json").read_text())["environment"]["rk4"] == "numpy"

    def test_only_the_projection_stamps_a_stepper(self, tmp_path):
        # a dmd run steps no batch, so it neither builds nor loads the kernel
        cfg = small_config(tmp_path, method="dmd")
        oscillator._rk4_kernel.cache_clear()
        try:
            run_experiment(cfg)
            assert oscillator._rk4_kernel.cache_info().misses == 0
        finally:
            oscillator._rk4_kernel.cache_clear()
        assert "rk4" not in json.loads((cfg.output_dir / "report.json").read_text())["environment"]
        cfg = small_config(tmp_path, method="projection")
        run_experiment(cfg)
        stamp = json.loads((cfg.output_dir / "report.json").read_text())["environment"]
        assert stamp["rk4"] == ("compiled" if shutil.which("cc") else "numpy")

    def test_stamp_without_scipy_metadata_reads_none(self, monkeypatch):
        def missing(name):
            raise importlib.metadata.PackageNotFoundError(name)

        harness._scipy_version.cache_clear()
        monkeypatch.setattr(importlib.metadata, "version", missing)
        try:
            assert harness.environment_stamp()["scipy"] is None
        finally:
            harness._scipy_version.cache_clear()

    @pytest.mark.parametrize("method", ["mz-dmd", "t-model"])
    def test_missing_scipy_fails_the_memory_fit(self, tmp_path, monkeypatch, method):
        # a None entry makes every import of scipy.linalg raise ImportError
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        with pytest.raises(MethodFailure) as info:
            run_experiment(small_config(tmp_path, method=method))
        assert (info.value.method, info.value.stage) == (method, "fit")
        assert isinstance(info.value.__cause__, ImportError)

    def test_exact_recovery_on_linear_data(self, tmp_path):
        # sigma = 0 decouples the system, so the measured coordinates are
        # exactly linear and the analytic fit reproduces them
        cfg = small_config(tmp_path, sim={"sigma": 0.0}, method="dmd")
        run_experiment(cfg)
        _, measured = read_csv(cfg.output_dir / "measurement.csv")
        _, fitted = read_csv(cfg.output_dir / "dmd.csv")
        assert np.abs(measured - fitted).max() <= 1e-8

    def test_zero_sigma_memory_methods_coincide(self, tmp_path):
        # zero memory initialization reduces both memory objectives to the
        # plain one, making the two pipelines identical
        cfg = small_config(tmp_path, sim={"sigma": 0.0})
        run_experiment(cfg)
        _, mz = read_csv(cfg.output_dir / "mzdmd.csv")
        _, tm = read_csv(cfg.output_dir / "tmodel.csv")
        assert np.abs(mz - tm).max() <= 1e-6

    def test_single_method_run(self, tmp_path):
        cfg = small_config(tmp_path, method="projection")
        report = run_experiment(cfg)
        assert (cfg.output_dir / "projection.csv").exists()
        assert not (cfg.output_dir / "dmd.csv").exists()
        assert list(report.wall_times) == ["projection"]

    @pytest.mark.parametrize("method, stems", [
        ("all", ["measurement", "dmd", "mzdmd", "tmodel", "projection", "comparison"]),
        ("projection", ["measurement", "projection", "comparison"]),
    ])
    def test_csv_files_lists_the_written_files_in_order(self, tmp_path, method, stems):
        cfg = small_config(tmp_path, method=method)
        report = run_experiment(cfg)
        assert report.csv_files == [str(cfg.output_dir / f"{stem}.csv") for stem in stems]
        assert json.loads((cfg.output_dir / "report.json").read_text())["csv_files"] == report.csv_files
        assert sorted(p.name for p in cfg.output_dir.glob("*.csv")) == sorted(f"{s}.csv" for s in stems)

    def test_loss_traces_are_the_mean_of_the_sample_traces(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_experiment(cfg)
        _, snapshots = simulate_measurement(cfg)
        for kind in ("mz-dmd", "t-model"):
            _, traces = fit_ensemble(kind, snapshots, cfg.sim.sigma, cfg.n_u, cfg.adam, cfg.sim.seed)
            # the mean of the rows as a list, bit for bit
            assert report.loss_traces[kind] == np.mean(list(traces), axis=0).tolist()

    def test_report_states_the_projection_standard_error(self, tmp_path):
        # CI's smoke config: per coordinate, the largest sqrt(var / n_mc) of
        # the projection's mean and its time, as read back from projection.csv
        cfg = build_config({"t_max": 6.0, "n_points": 61, "n_mc": 8, "n_u": 2, "output_dir": tmp_path})
        run_experiment(cfg)
        parsed = json.loads((tmp_path / "report.json").read_text())["projection_standard_error"]
        header, data = read_csv(tmp_path / "projection.csv")
        assert header == ["t", "y1", "y2", "var1", "var2"]
        se = np.sqrt(data[:, 3:] / 8)
        assert se.max() > 0
        assert parsed == {name: {"max": se[:, k].max(), "t": data[se[:, k].argmax(), 0]}
                          for k, name in enumerate(("y1", "y2"))}

    def test_report_leaves_out_the_standard_error_without_the_projection(self, tmp_path):
        cfg = small_config(tmp_path, method="dmd")
        assert run_experiment(cfg).projection_standard_error is None
        assert "projection_standard_error" not in json.loads((cfg.output_dir / "report.json").read_text())

    def test_plots_emitted_when_enabled(self, tmp_path):
        cfg = small_config(tmp_path, method="dmd", emit_plots=True)
        run_experiment(cfg)
        assert (cfg.output_dir / "y1.svg").exists()
        assert (cfg.output_dir / "y2.svg").exists()

    def test_deterministic_csv_outputs(self, tmp_path):
        cfg_a = small_config(tmp_path / "a", emit_plots=True)
        cfg_b = small_config(tmp_path / "b", emit_plots=True)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("measurement.csv", "dmd.csv", "mzdmd.csv", "tmodel.csv", "projection.csv",
                     "comparison.csv", "y1.svg", "y2.svg"):
            assert (cfg_a.output_dir / name).read_bytes() == (
                cfg_b.output_dir / name
            ).read_bytes(), name

    def test_method_failure_carries_method_and_stage(self, tmp_path):
        # an all-zero measurement draw produces a zero operator whose spectrum
        # cannot be mapped to continuous time
        cfg = small_config(tmp_path, sim={"sigma": 0.0}, method="dmd",
                           resolved_init=(0.0, 0.0))
        with pytest.raises(MethodFailure) as excinfo:
            run_experiment(cfg)
        assert excinfo.value.method == "dmd"
        assert excinfo.value.stage == "fit"

    def test_failed_comparison_write_names_the_run(self, tmp_path):
        # a directory where comparison.csv goes fails the run's own write
        cfg = small_config(tmp_path, method="dmd")
        (cfg.output_dir / "comparison.csv").mkdir(parents=True)
        with pytest.raises(MethodFailure) as excinfo:
            run_experiment(cfg)
        assert excinfo.value.method == "dmd"
        assert excinfo.value.stage == "write"
        assert isinstance(excinfo.value.__cause__, IsADirectoryError)

    def test_comparison_columns(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        header, data = read_csv(cfg.output_dir / "comparison.csv")
        assert header[:3] == ["t", "measurement_y1", "measurement_y2"]
        assert "mzdmd_var1" in header and "projection_var2" in header
        assert data.shape == (cfg.sim.n_points, len(header))
        # each source's columns repeat its own file, cell for cell
        cells = [line.split(",") for line in (cfg.output_dir / "comparison.csv").read_text().split()]
        for stem in ("measurement", *(m.stem for m in METHODS.values())):
            own = [line.split(",") for line in (cfg.output_dir / f"{stem}.csv").read_text().split()]
            picked = [header.index(f"{stem}_{name}") for name in own[0][1:]]
            assert [[row[0], *(row[k] for k in picked)] for row in cells[1:]] == own[1:], stem


def test_run_formats_the_time_column_once(tmp_path, monkeypatch):
    # six CSVs share one time grid: one single-column csv_rows call formats
    # it, and the state columns come two or four at a time
    calls = []

    def counted(columns, csv_rows=harness.csv_rows):
        calls.append(len(columns))
        return csv_rows(columns)

    monkeypatch.setattr(harness, "csv_rows", counted)
    run_experiment(small_config(tmp_path))
    assert calls.count(1) == 1 and len(calls) == 6


def _assert_finishes_or_names_the_failure(tmp_path, dt, n_points, sigma, n_u, seed):
    """Whether the run finished.  pyproject.toml makes a numpy overflow or
    invalid operation an error, so a run that finishes met none, and a
    failure must be a typed one."""
    cfg = default_config()
    sim = dataclasses.replace(cfg.sim, dt=dt, t_max=(n_points - 1) * dt, n_points=n_points,
                              n_mc=8, sigma=sigma, seed=seed)
    cfg = dataclasses.replace(cfg, sim=sim, n_u=n_u, output_dir=tmp_path / "out")
    try:
        report = run_experiment(cfg)
    except MethodFailure as exc:
        assert exc.method in (*METHODS, "all")
        assert exc.stage in ("simulate", "fit", "write")
        assert not isinstance(exc.__cause__, RuntimeWarning), exc
        return False
    assert len(report.csv_files) == 6
    for path in report.csv_files:
        header, data = read_csv(path)
        assert data.shape == (n_points, len(header)) and np.isfinite(data).all(), path
    return True


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_u", [1, 3])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("dt", [0.05, 0.1, 0.5])
def test_robustness_sweep_writes_finite_csvs_or_names_the_failure(tmp_path, dt, sigma, n_u, seed):
    _assert_finishes_or_names_the_failure(tmp_path, dt, 41, sigma, n_u, seed)


# spectra near +1 (dt 0.005) and near -1 (dt 3.0 and 3.1, half the period
# of the unit oscillator), on the shortest grid and a long one
@pytest.mark.parametrize("sigma", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("n_points", [2, 41, 401])
@pytest.mark.parametrize("dt", [0.005, 3.0, 3.1])
def test_robustness_edges_write_finite_csvs_or_name_the_failure(tmp_path, dt, n_points, sigma):
    _assert_finishes_or_names_the_failure(tmp_path, dt, n_points, sigma, 3, 1)


def test_zero_memory_edge_run_finishes(tmp_path):
    # sigma 0 draws zero memory rows, so mz-dmd's chains are all zero, while
    # at dt 3.1 its sweep grows 12.95-fold a step and overflows in 401 points
    assert _assert_finishes_or_names_the_failure(tmp_path, 3.1, 401, 0.0, 3, 1)


def test_dmd_spectral_model_matches_reconstruction():
    cfg = default_config()
    sim = dataclasses.replace(cfg.sim, sigma=0.0, t_max=5.0, n_points=51)
    cfg = dataclasses.replace(cfg, sim=sim)
    _, snaps = simulate_measurement(cfg)
    model = dmd_spectral_model(snaps)
    traj = reconstruct(model, np.array([1.0, 0.0]), sim.times())
    np.testing.assert_allclose(traj.states[:, 0], np.cos(sim.times()), atol=1e-5)
