"""Benchmark of the mzdmd pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

Each run is one ``mzdmd.harness.run_experiment`` call on the workload's
config (see ``workloads.py``), made from this single process, one after the
other.  A tiny warm-up run comes first.  One run is made, and more while the
next would end within ``--seconds``; every run is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics: medians over the runs, with
tracing off, of wall time less the time lost waiting for the CPU, scaled to
reference host speed by the speed probe (``speed.py``).  ``--trace 1`` alternates untraced and traced runs and prints
the per-layer metrics: self times (a span minus its children) per run,
counts, and the tracing overhead.  Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 7
# the harness integrates with RK4 at dt / RK4_SUBSTEPS
RK4_SUBSTEPS = 10

# per-method wall times are printed with each run but not reported: every
# end-to-end metric is reported on every workload, and monte-carlo runs the
# projection alone
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span name whose self time it sums
SELF_TIME = {
    "oscillator.simulate_s": "oscillator.simulate",
    "oscillator.projection_s": "oscillator.projection",
    "objectives.value_s": "objectives.value",
    "objectives.dmd_fit_s": "objectives.dmd_fit",
    **{f"linalg.{op}_self_s": f"linalg.{op}" for op in ("expm", "expm_frechet", "solve", "eig", "pinv")},
    "optim.adam_step_s": "optim.adam_step",
    "ensemble.run_ensemble_s": "ensemble.run_ensemble",
    "ensemble.fit_ensemble_s": "ensemble.fit_ensemble",
    "ensemble.match_and_average_s": "ensemble.match_and_average",
    "ensemble.reconstruct_s": "ensemble.reconstruct",
    "ensemble.variance_s": "ensemble.variance",
    "harness.run_experiment_self_s": "harness.run_experiment",
    "harness.write_csv_s": "harness.write_csv",
    "plots.emit_plot_s": "plots.emit_plot",
}
# per-layer metric -> span name; reported as the self-time sum and as the
# per-call median (.p50) and 90th percentile (.p90)
PER_CALL = {
    "objectives.value_grad_s.mz-dmd": "objectives.value_grad.mz-dmd",
    "objectives.value_grad_s.t-model": "objectives.value_grad.t-model",
    "optim.fit_transition_s": "optim.fit_transition",
}
# per-layer metric -> span names whose calls it counts
CALLS = {
    "objectives.value_grad_calls": ("objectives.value_grad.mz-dmd", "objectives.value_grad.t-model"),
    **{f"linalg.{op}_calls": (f"linalg.{op}",) for op in ("expm", "expm_frechet", "solve", "eig", "pinv")},
    "optim.fit_transition_calls": ("optim.fit_transition",),
    "optim.adam_steps": ("optim.adam_step",),
    "ensemble.reconstruct_calls": ("ensemble.reconstruct",),
}
SAMPLE_COUNTS = ("ensemble.samples_fitted", "ensemble.samples_failed")

PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{f"{name}{q}": "s" for name in PER_CALL for q in ("", ".p50", ".p90")},
    **{name: "count" for name in (*CALLS, *SAMPLE_COUNTS)},
    "oscillator.rk4_steps": "count",
    "oscillator.state_bytes": "B",
    "harness.csv_bytes": "B",
    "harness.max_output_dev": "1",
    "config.build_s": "s",
    "trace.run_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.wrapper_s": "s",
}


@dataclass
class Run:
    run_s: float
    wall_times: dict
    problems: list
    max_dev: float | None
    lost_s: float = 0.0  # with a speed probe: the seconds lost waiting for the CPU

    @property
    def ok(self) -> bool:
        return not self.problems


def run_once(overrides: dict, reference=None, recorder=None, probe=None) -> Run:
    """One checked ``run_experiment`` call; only the call itself is timed,
    and the seconds it lost waiting for the CPU are read from ``probe`` (a
    ``speed.Probe``) when given."""
    from mzdmd import config, harness

    out_dir = Path(overrides["output_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = config.build_config(overrides)
    methods = list(checks.METHOD_FILES) if cfg.method == "all" else [cfg.method]
    gc.collect()
    lost = probe.lost_s() if probe else 0.0
    start = time.perf_counter()
    try:
        if recorder is None:
            report = harness.run_experiment(cfg)
        else:
            with recorder.span("harness.run_experiment"):
                report = harness.run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - a raising run counts as failed
        return Run(time.perf_counter() - start, {}, [f"{type(exc).__name__}: {exc}"], None)
    run_s = time.perf_counter() - start
    lost = probe.lost_s() - lost if probe else 0.0
    check = checks.check_run(out_dir, methods, cfg.sim.n_points, cfg.sim.dt, cfg.emit_plots, reference)
    return Run(run_s, dict(report.wall_times), check.problems, check.max_dev, lost)


def warm_up(overrides: dict) -> None:
    """A tiny untimed run, so lazy imports and first-call costs are paid."""
    warm = run_once(overrides)
    if not warm.ok:
        print(f"warm-up run failed: {warm.problems}")


def repeat(step, seconds: float) -> list:
    """Call ``step`` once, and again while the next call, at the mean
    duration so far, would end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median CPU time (user and system, so waits for the CPU are left out)
    of a fresh interpreter importing mzdmd and building the config, and the
    median config build time inside it."""
    times, builds = [], []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT / "setup")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        builds.append(float(proc.stdout.split()[-1]))
    return statistics.median(times), statistics.median(builds)


def environment() -> dict:
    """Versions, BLAS, thread settings as found, and the CPU."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def rk4_counts(overrides: dict) -> tuple[int, int]:
    """Computed from the config: RK4 state-steps of one run (the measurement
    plus every Monte Carlo sample), and bytes of the integrated states."""
    from mzdmd import config

    sim = config.build_config(overrides).sim
    trajectories = 1 + sim.n_mc
    return (sim.n_points - 1) * RK4_SUBSTEPS * trajectories, sim.n_points * 4 * trajectories * 8


def end_to_end_metrics(runs: list[Run], setup_s: float, setup_unit_s: dict, unit_s: dict, kind: str) -> dict:
    """Medians at reference speed, for the probe's seconds per unit over the
    set-up and over the runs (of kind ``kind`` for the runs); a run's time
    is its wall time less the time it lost."""
    good = [r for r in runs if r.ok] or runs
    run_s = statistics.median(r.run_s - r.lost_s for r in good)
    return {
        "setup_s": speed.at_reference_speed(setup_s, setup_unit_s, "interp"),
        "run_s": speed.at_reference_speed(run_s, unit_s, kind),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(recorders: list, plain: list[Run], traced: list[Run]) -> dict:
    """Per-layer metrics per traced run; counts are exact per run."""
    stats = spans.aggregate(recorders)
    n_traced = len(recorders)

    def self_s(span):
        return stats[span].self_s / n_traced if span in stats else 0.0

    def calls(spans_):
        return sum(stats[s].calls for s in spans_ if s in stats) / n_traced

    metrics = {name: self_s(span) for name, span in SELF_TIME.items()}
    for name, span in PER_CALL.items():
        entry = stats.get(span, spans.SpanStats(0, 0.0, []))
        metrics[name] = self_s(span)
        metrics[f"{name}.p50"] = entry.quantile(0.5)
        metrics[f"{name}.p90"] = entry.quantile(0.9)
    metrics.update({name: calls(spans_) for name, spans_ in CALLS.items()})
    metrics.update({name: count / n_traced
                    for name, count in zip(SAMPLE_COUNTS, spans.ensemble_samples(recorders))})
    traced_run_s = statistics.fmean(r.run_s for r in traced)
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.self_sum_s"] = sum(s.self_s for s in stats.values()) / n_traced
    metrics["trace.overhead_s"] = traced_run_s - statistics.fmean(r.run_s for r in plain)
    # computed: spans per run times the measured cost of one wrapped call,
    # a steadier estimate of the overhead than the difference of two runs
    metrics["trace.spans"] = sum(s.calls for s in stats.values()) / n_traced
    metrics["trace.wrapper_s"] = metrics["trace.spans"] * spans.call_cost()
    devs = [r.max_dev for r in plain + traced if r.max_dev is not None]
    # -1: no reference is kept for this seed
    metrics["harness.max_output_dev"] = max(devs) if devs else -1.0
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mzdmd" / "__init__.py").is_file():
        print(f"perfbench: no mzdmd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mzdmd

    if Path(mzdmd.__file__).resolve().parent != SRC / "mzdmd":
        print(f"perfbench: imported mzdmd from {mzdmd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{os.getpid()}"
    overrides = workloads.overrides(args.workload, args.seed, run_dir)
    reference = checks.load_reference(args.workload, args.seed)
    print("env " + json.dumps(environment(), sort_keys=True))

    warmup = dict(workloads.WARMUP, seed=args.seed, output_dir=str(run_dir))
    if args.trace:
        _, build_s = measure_setup(args.workload, args.seed)
        warm_up(warmup)
        recorders = []

        def pair():
            plain = run_once(overrides, reference)
            recorder = spans.Recorder()
            with spans.installed(recorder):
                traced = run_once(overrides, reference, recorder)
            recorders.append(recorder)
            return plain, traced

        pairs = repeat(pair, args.seconds)
        plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        runs = plain + traced
        metrics = layer_metrics(recorders, plain, traced)
        metrics["oscillator.rk4_steps"], metrics["oscillator.state_bytes"] = rk4_counts(overrides)
        metrics["harness.csv_bytes"] = sum(p.stat().st_size for p in run_dir.glob("*.csv"))
        metrics["config.build_s"] = build_s
        units = PER_LAYER
        spans.dump(recorders, OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        with speed.Probe(run_dir.with_name(run_dir.name + ".probe")) as probe:
            # the probe's speed over the set-up, then over the runs
            mark = probe.read()
            setup_s, _ = measure_setup(args.workload, args.seed)
            setup_unit_s = probe.since(mark)
            warm_up(warmup)
            mark = probe.read()
            runs = repeat(lambda: run_once(overrides, reference, probe=probe), args.seconds)
            unit_s = probe.since(mark)
        print("speed probe, us per unit: " + "; ".join(
            f"{kind} {setup_unit_s[kind] * 1e6:.1f} over the set-up, {unit_s[kind] * 1e6:.1f} over the runs, "
            f"reference {speed.REFERENCE_UNIT_S[kind] * 1e6:.1f}" for kind in speed.KINDS))
        metrics = end_to_end_metrics(runs, setup_s, setup_unit_s, unit_s, workloads.SPEED_KIND[args.workload])
        units = END_TO_END
    shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    for i, r in enumerate(runs):
        methods = ", ".join(f"{m} {t:.3f}" for m, t in r.wall_times.items())
        print(f"run {i}: {r.run_s:.3f} s wall, {r.lost_s:.3f} s lost ({methods})"
              + ("" if r.ok else f"  FAILED: {'; '.join(r.problems)}"))
    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)}  "
          f"reference {'yes' if reference else 'no'}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]!s:>24} {unit}")
    print(f"{'failed_frac':<40} {failed / len(runs)!s:>24} 1")
    if args.trace:
        print(f"self times sum to {metrics['trace.self_sum_s']:.6f} s; traced run_s "
              f"{metrics['trace.run_s']:.6f} s; overhead {metrics['trace.overhead_s']:.6f} s")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
