"""Output check for one pipeline run.

Every run must leave finite CSVs with the documented schema (``t,y1,y2`` plus
``var1,var2`` for methods carrying a variance estimate), a ``comparison.csv``
whose columns repeat the per-method CSVs exactly, and a report naming every
method.  For the seeds with a committed reference, ``comparison.csv`` must
also match that reference within ``TOLERANCE``.  The CSVs are parsed here,
not by mzdmd, so a parser change in the program cannot hide a defect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
# largest accepted |value - reference|, relative to the reference column's
# largest magnitude
TOLERANCE = 1e-6
# comparison.csv rows kept in a reference: every STRIDE-th, from the first
STRIDE = 25

# method -> (CSV file, comparison.csv column prefix, carries a variance)
METHOD_FILES = {
    "dmd": ("dmd.csv", "dmd", False),
    "mz-dmd": ("mzdmd.csv", "mzdmd", True),
    "t-model": ("tmodel.csv", "tmodel", True),
    "projection": ("projection.csv", "projection", True),
}
BASE_HEADER = ["t", "y1", "y2"]
VAR_HEADER = ["var1", "var2"]


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    max_dev: float | None = None  # None: no reference kept for this seed

    @property
    def ok(self) -> bool:
        return not self.problems


def read_table(path) -> tuple[list[str], list[list[float]]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def comparison_header(methods) -> list[str]:
    header = ["t", "measurement_y1", "measurement_y2"]
    for method in methods:
        _, prefix, has_var = METHOD_FILES[method]
        header += [f"{prefix}_y1", f"{prefix}_y2"]
        if has_var:
            header += [f"{prefix}_var1", f"{prefix}_var2"]
    return header


def _check_table(path, header, n_points, dt, problems) -> list[list[float]] | None:
    name = Path(path).name
    try:
        got_header, rows = read_table(path)
    except (OSError, ValueError) as exc:
        problems.append(f"{name}: unreadable ({exc})")
        return None
    if got_header != header:
        problems.append(f"{name}: header {got_header} != {header}")
        return None
    if len(rows) != n_points or any(len(row) != len(header) for row in rows):
        problems.append(f"{name}: expected {n_points} rows of {len(header)} cells")
        return None
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append(f"{name}: non-finite cell")
        return None
    # the harness writes t_k = k * dt computed as one product
    if any(row[0] != k * dt for k, row in enumerate(rows)):
        problems.append(f"{name}: time column is not k * dt")
    for col, label in enumerate(header):
        if "var" in label and any(row[col] < 0 for row in rows):
            problems.append(f"{name}: negative variance in {label}")
    return rows


def load_reference(workload: str, seed: int):
    """(header, rows) kept for (workload, seed), or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    rows = data["seeds"].get(str(seed))
    return None if rows is None else (data["header"], rows)


def reference_rows(rows: list[list[float]]) -> list[list[float]]:
    return rows[::STRIDE]


def max_deviation(rows, ref_rows) -> float:
    """Largest |value - reference| over the kept rows, each column scaled by
    its largest reference magnitude."""
    kept = reference_rows(rows)
    if len(kept) != len(ref_rows):
        return math.inf
    dev = 0.0
    for col in range(len(ref_rows[0])):
        scale = max(abs(r[col]) for r in ref_rows) or 1.0
        for got, ref in zip(kept, ref_rows):
            dev = max(dev, abs(got[col] - ref[col]) / scale)
    return dev


def check_run(out_dir, methods, n_points: int, dt: float, plots: bool, reference=None) -> CheckResult:
    """Check the files one ``run_experiment`` call left in ``out_dir``."""
    out = Path(out_dir)
    result = CheckResult()
    problems = result.problems
    columns = {}
    meas = _check_table(out / "measurement.csv", BASE_HEADER, n_points, dt, problems)
    if meas is not None:
        columns["measurement"] = meas
    for method in methods:
        name, _, has_var = METHOD_FILES[method]
        header = BASE_HEADER + (VAR_HEADER if has_var else [])
        rows = _check_table(out / name, header, n_points, dt, problems)
        if rows is not None:
            columns[method] = rows
    header = comparison_header(methods)
    comparison = _check_table(out / "comparison.csv", header, n_points, dt, problems)
    if comparison is not None and len(columns) == len(methods) + 1:
        col = 1
        for source in ["measurement", *methods]:
            rows = columns[source]
            width = len(rows[0]) - 1
            if any(c[col:col + width] != r[1:] for c, r in zip(comparison, rows)):
                problems.append(f"comparison.csv: {source} columns differ from its own CSV")
            col += width
    try:
        report = json.loads((out / "report.json").read_text())
        if sorted(report["wall_times"]) != sorted(methods):
            problems.append(f"report.json: wall_times names {sorted(report['wall_times'])}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"report.json: unreadable ({exc})")
    if plots:
        for name in ("y1.svg", "y2.svg"):
            if not (out / name).is_file():
                problems.append(f"{name}: missing")
    if reference is not None and comparison is not None:
        ref_header, ref_rows = reference
        if ref_header != header:
            problems.append("comparison.csv: header differs from the reference")
        else:
            result.max_dev = max_deviation(comparison, ref_rows)
            if not result.max_dev <= TOLERANCE:
                problems.append(
                    f"comparison.csv: deviates from the reference by {result.max_dev:.3e} "
                    f"(tolerance {TOLERANCE:.0e})"
                )
    return result
