"""Workload definitions: config keys laid over ``default_config()``.

Importing this module does not import mzdmd, so the set-up probe can time
``import mzdmd`` on its own.
"""

from __future__ import annotations

WORKLOADS = {
    # the paper's protocol: dt 0.1, 501 points, sigma 1, n_u 100, n_mc 1000,
    # 5 Adam steps, every method
    "protocol": {"method": "all", "emit_plots": True},
    # one sample on a long record: 100 dependent Adam steps over 2000 columns
    "long-fit": {
        "method": "all",
        "n_u": 1,
        "iterations": 100,
        "t_max": 200.0,
        "n_points": 2001,
        "n_mc": 100,
        "emit_plots": True,
    },
    # the Monte Carlo reference alone, on the protocol grid: no fit at all
    "monte-carlo": {"method": "projection", "n_mc": 10000, "emit_plots": True},
}

# the speed probe's unit kind (speed.KINDS) that each workload's run time is
# scaled by: the kind of work that dominates its runs; set-up, importing and
# compiling Python, is scaled by "interp"
SPEED_KIND = {"protocol": "interp", "long-fit": "interp", "monte-carlo": "array"}

# a tiny run touching every code path, so lazy imports and first-call costs
# are paid before timing starts
WARMUP = {
    "method": "all",
    "n_u": 2,
    "iterations": 2,
    "t_max": 2.0,
    "n_points": 21,
    "n_mc": 20,
    "emit_plots": True,
}

# the methods a run executes, in report order
METHODS = ("dmd", "mz-dmd", "t-model", "projection")


def overrides(workload: str, seed: int, output_dir) -> dict:
    """Config overrides for one run of ``workload`` with the given seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return dict(WORKLOADS[workload], seed=int(seed), output_dir=str(output_dir))
