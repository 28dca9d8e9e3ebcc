"""Set-up probe: a fresh interpreter imports mzdmd and builds a workload config.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <output_dir>

Prints the config build time in seconds; the caller times the whole process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mzdmd.config  # noqa: E402
from workloads import overrides  # noqa: E402

start = time.perf_counter()
mzdmd.config.build_config(overrides(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
print(time.perf_counter() - start)
