"""Run the benchmark once per seed and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload protocol --seeds 1-10 [--trace 1] [--out FILE]

Each seed is a separate ``run.py`` process with ``run_seconds`` from
BENCHMARK.json.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound.  With ``--out``, every run's environment stamp
and result are appended to FILE as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
        failures += result["failed"] + (not result["correct"])
        run_s = result["metrics"].get("run_s") or result["metrics"]["trace.run_s"]
        probe = next((ln for ln in lines if ln.startswith("speed probe")), "")
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"run_s {run_s['value']}" + (f"; {probe}" if probe else ""), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.out:
            record = {"workload": args.workload, "seed": seed, "trace": args.trace,
                      "env": env, "result": result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
