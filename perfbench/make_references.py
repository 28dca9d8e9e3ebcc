"""Write the output references the benchmark checks runs against.

Usage (from the root of a checkout):

    python3 perfbench/make_references.py --seeds 0-10 [workload ...]

For each workload and seed it runs the pipeline once and keeps every
``checks.STRIDE``-th row of ``comparison.csv`` in
``perfbench/references/<workload>.json``.  The committed files were made
from the unmodified seed code; regenerate them only to define new expected
outputs, never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads
from spread import seed_range


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-10")
    parser.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    out_dir = run.OUT / "references"
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload:
        seeds = {}
        header = None
        for seed in args.seeds:
            result = run.run_once(workloads.overrides(workload, seed, out_dir))
            if not result.ok:
                print(f"{workload} seed {seed}: {result.problems}", file=sys.stderr)
                return 1
            header, rows = checks.read_table(out_dir / "comparison.csv")
            seeds[str(seed)] = checks.reference_rows(rows)
            print(f"{workload} seed {seed}: {result.run_s:.1f} s", flush=True)
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"header": header, "seeds": seeds}) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
