"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the workload mirrors the benchmark protocol (dt = 0.1, t in [0, 50],
501 grid points, sigma = 1, 1000 projection samples, 100 memory
initializations, Adam at lr 1e-3 for 5 iterations).
"""

import time

import numpy as np
import pytest
from conftest import random_operator, random_snapshots
from memory_kernels import memory_kernel_closed, memory_kernel_trapezoid

from mzdmd import (
    Objective,
    SnapshotPair,
    default_config,
    dmd_fit,
    dmd_spectral_model,
    eig,
    fd_gradient,
    fit_transition,
    hamiltonian,
    integrate,
    monte_carlo_projection,
    objective_value_and_gradient,
    reconstruct,
    run_ensemble,
    simulate_measurement,
)
from mzdmd.cli import main
from mzdmd.ensemble import SpectralModel


def _report(num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(scope="module")
def bench_cfg():
    return default_config()


@pytest.fixture(scope="module")
def measurement(bench_cfg):
    return simulate_measurement(bench_cfg)


@pytest.fixture(scope="module")
def ensembles(bench_cfg, measurement):
    """Both ensembles on the benchmark workload, with fitting times.

    Each time is the least CPU time of the calling thread over three runs,
    not wall time, so time spent waiting for a CPU that another process
    holds is not counted.  A one-sample ensemble of each kind runs first, so
    neither time includes loading scipy.linalg for the first exponential.
    """
    _, snaps = measurement
    x0 = np.array(bench_cfg.resolved_init)
    times = bench_cfg.sim.times()

    def timed(kind, n_u):
        start = time.thread_time()
        result = run_ensemble(
            kind, snaps, bench_cfg.sim.sigma, n_u,
            bench_cfg.adam, bench_cfg.sim.seed, x0, times,
        )
        return result, time.thread_time() - start

    kinds = ("mz-dmd", "t-model")
    for kind in kinds:
        timed(kind, 1)
    runs = {kind: [] for kind in kinds}
    for _ in range(3):
        for kind in kinds:
            runs[kind].append(timed(kind, bench_cfg.n_u))
    return {kind: (runs[kind][0][0], min(cpu for _, cpu in runs[kind])) for kind in kinds}


def _window_max(states, times, lo, hi, coord=0):
    mask = (times >= lo) & (times <= hi)
    return float(np.abs(states[mask, coord]).max())


def test_criterion_1_exact_recovery():
    start = time.perf_counter()
    theta = 0.1
    a_true = np.array([
        [np.cos(theta), -np.sin(theta)],
        [np.sin(theta), np.cos(theta)],
    ])  # one-step map generated by the rotation generator [[0,-1],[1,0]]
    x = np.empty((2, 50))
    x[:, 0] = (1.0, 0.0)
    for k in range(1, 50):
        x[:, k] = a_true @ x[:, k - 1]
    a_hat = dmd_fit(SnapshotPair.from_snapshots(x, theta))
    err = np.linalg.norm(a_hat - a_true, "fro")
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8 and elapsed < 1.0
    assert _report(1, "exact recovery on noiseless linear data", ok,
                   f"error {err:.2e}, {elapsed:.2f} s")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = [(2, 8)] * 20 + [(4, 8)] * 5
    for d, cols in cases:
        snaps = random_snapshots(rng, d=d, cols=cols)
        mem = rng.standard_normal(d)
        a = random_operator(rng, d)
        for kind in ("plain-dmd", "mz-dmd", "t-model"):
            obj = Objective(kind, snaps, mem)
            analytic = objective_value_and_gradient(obj, a)[1]
            numeric = fd_gradient(obj, a, h=1e-6)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
            worst = max(worst, np.linalg.norm(analytic - numeric) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert _report(2, "analytic gradients match finite differences", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_memory_kernel_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        lam = -rng.uniform(0.1, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        m0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        closed = memory_kernel_closed(lam, m0, 50, 0.1)
        direct = memory_kernel_trapezoid(lam, m0, 50, 0.1)
        worst = max(worst, float(np.abs(closed - direct).max()))
    ok = worst <= 1e-10
    assert _report(3, "closed kernel recursion matches trapezoidal oracle", ok,
                   f"worst abs diff {worst:.2e}")


def test_criterion_4_telescoping_identity():
    rng = np.random.default_rng(4)
    dt = 0.1
    worst = 0.0
    for _ in range(5):
        lam = rng.uniform(0.1, 1.5, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        m = 1.0 - dt * lam / (1.0 + 0.5 * dt * lam)
        partial = np.zeros(4, dtype=complex)
        for k in range(1, 50):
            partial += m**k
            n = k + 1
            lhs = m**n + 1.0 + 2.0 * partial
            rhs = (m**n - 1.0) * (-2.0 / (dt * lam))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-10
    assert _report(4, "telescoped power-sum identity", ok, f"worst abs diff {worst:.2e}")


def test_criterion_5_integrator_quality(bench_cfg):
    rng = np.random.default_rng(5)
    y0 = np.vstack([
        np.full(100, 1.0),
        np.zeros(100),
        rng.standard_normal((2, 100)),  # sigma = 1 hidden initial conditions
    ])
    states = np.stack([integrate(s0, bench_cfg.sim).states for s0 in y0.T], axis=2)
    h = hamiltonian(np.moveaxis(states, 0, 1))
    drift = np.abs(h - h[0]) / np.abs(h[0])
    worst = float(drift.max())
    ok = worst <= 1e-6
    assert _report(5, "Hamiltonian conserved over 100 random states", ok,
                   f"worst rel drift {worst:.2e}")


def test_criterion_6_projection_vs_dmd(bench_cfg, measurement):
    start = time.perf_counter()
    _, snaps = measurement
    times = bench_cfg.sim.times()
    mean, _ = monte_carlo_projection(bench_cfg.sim, bench_cfg.resolved_init)
    decay = _window_max(mean.states, times, 40, 50) / _window_max(mean.states, times, 0, 10)

    traj = reconstruct(dmd_spectral_model(snaps), np.array(bench_cfg.resolved_init), times)
    base = _window_max(traj.states, times, 0, 10)
    ratios = [_window_max(traj.states, times, lo, lo + 10) / base for lo in (0, 10, 20, 30, 40)]
    elapsed = time.perf_counter() - start
    ok = decay <= 0.5 and all(0.8 <= r <= 1.2 for r in ratios) and elapsed < 120.0
    assert _report(6, "projection decays while the plain fit does not", ok,
                   f"decay {decay:.3f}, amp ratios {np.round(ratios, 3)}, {elapsed:.0f} s")


def test_criterion_7_ensemble_reproduction(bench_cfg, ensembles):
    times = bench_cfg.sim.times()
    details = []
    ok = True
    for kind in ("mz-dmd", "t-model"):
        result, cpu = ensembles[kind]
        decay = _window_max(result.mean_traj.states, times, 40, 50) / _window_max(
            result.mean_traj.states, times, 0, 10
        )
        var_max = float(result.variance_traj.states.max())
        ok = ok and decay <= 0.7 and var_max < 0.1 and cpu < 600.0
        details.append(f"{kind}: decay {decay:.3f}, var {var_max:.3f}, {cpu:.3f} s")
    assert _report(7, "memory ensembles decay with bounded variance", ok,
                   "; ".join(details))


def test_criterion_8_relative_runtime(ensembles):
    _, mz_cpu = ensembles["mz-dmd"]
    _, t_cpu = ensembles["t-model"]
    ok = t_cpu < mz_cpu
    assert _report(8, "first-order model fits faster than the full memory model", ok,
                   f"t-model {t_cpu:.3f} s < mz-dmd {mz_cpu:.3f} s")


def test_criterion_9_zero_memory_regression(bench_cfg):
    import dataclasses

    sim = dataclasses.replace(bench_cfg.sim, sigma=0.0)
    cfg = dataclasses.replace(bench_cfg, sim=sim, n_u=3)
    _, snaps = simulate_measurement(cfg)
    x0 = np.array(cfg.resolved_init)
    times = cfg.sim.times()

    # plain baseline fitted through the identical optimizer protocol
    a0 = dmd_fit(snaps)
    a_plain, _ = fit_transition(Objective("plain-dmd", snaps), a0, cfg.adam)
    plain_traj = reconstruct(SpectralModel(*eig(a_plain), snaps.dt), x0, times)

    trajs = [plain_traj.states]
    for kind in ("mz-dmd", "t-model"):
        result = run_ensemble(kind, snaps, 0.0, cfg.n_u, cfg.adam, cfg.sim.seed, x0, times)
        trajs.append(result.mean_traj.states)
    worst = 0.0
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            worst = max(worst, float(np.abs(trajs[i] - trajs[j]).max()))
    ok = worst <= 1e-6
    assert _report(9, "zero memory reduces both methods to the plain fit", ok,
                   f"worst pairwise diff {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "t_max = 10\n"
        "n_points = 101\n"
        "n_mc = 50\n"
        "n_u = 10\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["run", "--method", "all", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = ("measurement.csv", "dmd.csv", "mzdmd.csv", "tmodel.csv",
             "projection.csv", "comparison.csv")
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    assert _report(10, "same seed gives bitwise-identical CSV outputs", identical,
                   f"{len(names)} files compared")
