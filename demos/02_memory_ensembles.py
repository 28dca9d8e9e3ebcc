#!/usr/bin/env python3
"""Memory-aware fitting: the full recursion versus its first-order model.

Both memory objectives depend on a random initialization of the memory
term, so each is fitted once per sampled vector and the resulting spectra
are aligned, averaged, and turned back into continuous-time dynamics. The
script reports the decay of the averaged reconstruction, the empirical
variance across memory initializations, and the fitting wall time of the
two objectives.

Expect a few seconds, most of them in the Monte Carlo projection.  Each
ensemble's fits run as one stacked computation; the full-memory objective
differentiates through the transfer-map powers and the (A - I) inverse,
which is exactly why its first-order simplification is cheaper.
"""

import time
from pathlib import Path

import numpy as np

import mzdmd

out = Path("demo_output/02_memory_ensembles")
out.mkdir(parents=True, exist_ok=True)

cfg = mzdmd.default_config()
times = cfg.sim.times()
x0 = np.array(cfg.resolved_init)

print(f"simulating the shared measurement (seed {cfg.sim.seed}) ...")
_, snapshots = mzdmd.simulate_measurement(cfg)

print(f"reference: Monte Carlo projection over {cfg.sim.n_mc} samples ...")
proj_mean, proj_var = mzdmd.monte_carlo_projection(cfg.sim, cfg.resolved_init)


def window_amp(states, lo, hi):
    return np.abs(states[(times >= lo) & (times <= hi), 0]).max()


results = {}
for kind in ("mz-dmd", "t-model"):
    print(f"\nfitting {kind} over {cfg.n_u} memory initializations "
          f"({cfg.adam.iterations} Adam steps each, lr {cfg.adam.learning_rate}) ...")
    start = time.perf_counter()
    result = mzdmd.run_ensemble(
        kind, snapshots, cfg.sim.sigma, cfg.n_u, cfg.adam, cfg.sim.seed, x0, times
    )
    wall = time.perf_counter() - start
    results[kind] = result
    decay = window_amp(result.mean_traj.states, 40, 50) / window_amp(
        result.mean_traj.states, 0, 10
    )
    spread = np.abs(result.per_sample.values).std(axis=0)
    print(f"  averaged |lambda|     : {np.abs(result.averaged.values)}")
    print(f"  per-sample |lambda| sd: {spread}")
    print(f"  amplitude decay ratio : {decay:.3f}")
    print(f"  max ensemble variance : {result.variance_traj.states.max():.4f}")
    print(f"  imaginary residue     : {result.mean_traj.max_imag:.2e}")
    print(f"  wall time             : {wall * 1e3:.0f} ms")
    mzdmd.write_csv(result.mean_traj, result.variance_traj,
                    out / f"{kind.replace('-', '')}.csv")

print("\nboth ensembles capture the decay trend of the projection, and the")
print("first-order model does it at a fraction of the fitting cost")

for coord, label in enumerate(("y1", "y2")):
    series = {"projection": (proj_mean.states[:, coord], proj_var.states[:, coord])}
    for kind, result in results.items():
        series[kind] = (
            result.mean_traj.states[:, coord],
            result.variance_traj.states[:, coord],
        )
    mzdmd.emit_plot(times, series, out / f"{label}.svg", ylabel=label)

print(f"\nwrote CSVs and plots to {out}/")
