#!/usr/bin/env python3
"""Why a plain one-step fit misses hidden coupling.

One oscillator pair is measured while the other is hidden. Three views of
the resolved dynamics are compared:

  measurement - a single integration with one random draw of the hidden
                initial conditions
  dmd         - spectral reconstruction from the analytic least-squares
                one-step operator fitted to that measurement
  projection  - the Monte Carlo average over many hidden initial conditions

The plain fit tracks the measurement's oscillation and keeps its amplitude,
while the averaged dynamics decays as the hidden phase decorrelates. The
gap between the two curves is the effect the memory-aware objectives are
built to capture.
"""

from pathlib import Path

import numpy as np

import mzdmd

out = Path("demo_output/01_dmd_vs_projection")  # the first CSV write makes it

cfg = mzdmd.default_config()
times = cfg.sim.times()
x0 = np.array(cfg.resolved_init)

print(f"simulating one measurement draw (seed {cfg.sim.seed}, sigma {cfg.sim.sigma}) ...")
measurement, snapshots = mzdmd.simulate_measurement(cfg)

print("fitting the one-step operator and reconstructing ...")
model = mzdmd.dmd_spectral_model(snapshots)
for lam in model.values:
    print(f"  eigenvalue {lam:+.6f}, |lambda| = {abs(lam):.6f}")
dmd_traj = mzdmd.reconstruct(model, x0, times)

print(f"averaging {cfg.sim.n_mc} hidden-initial-condition samples ...")
proj_mean, proj_var = mzdmd.monte_carlo_projection(cfg.sim, cfg.resolved_init)


def window_amp(states, lo, hi):
    return np.abs(states[(times >= lo) & (times <= hi), 0]).max()


print()
print(f"projection amplitude, t in [0,10] : {window_amp(proj_mean.states, 0, 10):.3f}")
print(f"projection amplitude, t in [40,50]: {window_amp(proj_mean.states, 40, 50):.3f}")
print(f"dmd amplitude,        t in [40,50]: {window_amp(dmd_traj.states, 40, 50):.3f}")
print("the averaged dynamics decays; the plain fit does not")

for name, traj, var in (
    ("measurement", measurement, None),
    ("dmd", dmd_traj, None),
    ("projection", proj_mean, proj_var),
):
    mzdmd.write_csv(traj, var, out / f"{name}.csv")

for coord, label in enumerate(("y1", "y2")):
    mzdmd.emit_plot(
        times,
        {
            "measurement": (measurement.states[:, coord], None),
            "dmd": (dmd_traj.states[:, coord], None),
            "projection": (proj_mean.states[:, coord], proj_var.states[:, coord]),
        },
        out / f"{label}.svg",
        ylabel=label,
    )

print(f"\nwrote CSVs and plots to {out}/")
