"""Tests of the benchmark itself: span arithmetic, the output check, the
shape of the load, and agreement with BENCHMARK.json.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import speed
import workloads

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"
METHODS = list(checks.METHOD_FILES)
# 51 points keep rows 0, 25 and 50 in a reference
TINY = dict(workloads.WARMUP, t_max=5.0, n_points=51, seed=3)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_is_span_minus_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),
        _span("c", 8.0, 12.0, 0),
    ]
    # the children cover [1, 6] and [8, 10] of the root
    assert spans.self_times(tree)[0] == 3.0


def test_aggregate_sums_self_time_by_name_over_recorders():
    first, second = spans.Recorder(), spans.Recorder()
    first.spans = [_span("root", 0.0, 10.0), _span("leaf", 2.0, 5.0, 0)]
    second.spans = [_span("root", 0.0, 4.0), _span("leaf", 1.0, 2.0, 0), _span("leaf", 2.0, 3.0, 0)]
    stats = spans.aggregate([first, second])
    assert stats["root"].calls == 2 and stats["root"].self_s == 7.0 + 2.0
    assert stats["leaf"].per_call == [3.0, 1.0, 1.0]
    assert stats["leaf"].quantile(0.5) == 1.0


def test_recorder_links_parents():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x + 1, "inner")
    outer = recorder.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 0.0, 3.0, None),
        ("inner", 1.0, 2.0, 0),
    ]


def test_recorder_marks_a_raising_call_and_unwinds():
    recorder = spans.Recorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap(fail, "fail")()
    recorder.wrap(lambda: None, "after")()
    assert [(s.name, s.ok, s.parent) for s in recorder.spans] == [("fail", False, None), ("after", True, None)]


def test_ensemble_samples_are_counted_from_the_spans():
    recorder = spans.Recorder()
    recorder.spans = [
        _span("ensemble.fit_ensemble", 0.0, 10.0),
        _span("optim.fit_transition", 1.0, 2.0, 0),
        _span("linalg.eig", 2.0, 3.0, 0),
        _span("optim.fit_transition", 3.0, 4.0, 0),
        _span("linalg.eig", 3.5, 3.6, 3),  # inside a fit, not a sample's end
    ]
    recorder.spans[3].ok = False
    assert spans.ensemble_samples([recorder]) == (1, 1)


def test_installed_wrappers_nest_and_are_removed():
    import mzdmd.linalg

    originals = (mzdmd.linalg.expm, mzdmd.linalg.expm_frechet)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        mzdmd.linalg.expm_frechet(np.zeros((2, 2)), np.eye(2))
    assert (mzdmd.linalg.expm, mzdmd.linalg.expm_frechet) == originals
    assert [(s.name, s.parent) for s in recorder.spans] == [("linalg.expm_frechet", None), ("linalg.expm", 0)]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Files of one tiny run, and a reference made from them."""
    out = tmp_path_factory.mktemp("clean")
    result = run.run_once(dict(TINY, output_dir=str(out)))
    assert result.ok, result.problems
    header, rows = checks.read_table(out / "comparison.csv")
    return out, (header, checks.reference_rows(rows))


@pytest.fixture
def run_copy(clean_run, tmp_path):
    out, reference = clean_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return copy, reference


def _check(out, reference):
    return checks.check_run(out, METHODS, TINY["n_points"], 0.1, True, reference)


def _edit_cell(path, row, column, edit):
    lines = Path(path).read_text().splitlines()
    cells = lines[row + 1].split(",")
    col = lines[0].split(",").index(column)
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_output_check_accepts_an_unchanged_run(run_copy):
    result = _check(*run_copy)
    assert result.ok, result.problems
    assert result.max_dev == 0.0


def test_output_check_rejects_a_perturbed_output(run_copy):
    out, reference = run_copy
    # the same change in both files, as a program change would make it
    bump = lambda cell: repr(float(cell) * (1 + 1e-4))  # noqa: E731
    _edit_cell(out / "comparison.csv", 25, "mzdmd_y1", bump)
    _edit_cell(out / "mzdmd.csv", 25, "y1", bump)
    result = _check(out, reference)
    assert not result.ok
    assert 1e-6 < result.max_dev < 1e-3
    assert any("deviates from the reference" in p for p in result.problems)


def test_output_check_rejects_a_nan_cell(run_copy):
    out, reference = run_copy
    _edit_cell(out / "tmodel.csv", 7, "var2", lambda cell: "nan")
    result = _check(out, reference)
    assert any(p == "tmodel.csv: non-finite cell" for p in result.problems)


def test_output_check_rejects_a_wrong_schema_and_missing_files(run_copy):
    out, _ = run_copy
    text = (out / "projection.csv").read_text()
    (out / "projection.csv").write_text(text.replace("var1,var2", "v1,v2", 1))
    (out / "y2.svg").unlink()
    problems = _check(out, None).problems
    assert any(p.startswith("projection.csv: header") for p in problems)
    assert "y2.svg: missing" in problems


def test_a_raising_run_counts_as_failed(tmp_path, monkeypatch):
    import mzdmd.harness

    def broken(cfg):
        raise RuntimeError("no result")

    monkeypatch.setattr(mzdmd.harness, "run_experiment", broken)
    result = run.run_once(dict(TINY, output_dir=str(tmp_path)))
    assert not result.ok
    assert result.problems == ["RuntimeError: no result"]


def test_the_load_is_one_process_without_extra_threads(tmp_path):
    threads = set(threading.enumerate())
    run.run_once(dict(TINY, output_dir=str(tmp_path)))
    assert set(threading.enumerate()) == threads
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_traced_self_times_account_for_the_whole_run(tmp_path):
    recorder = spans.Recorder()
    with spans.installed(recorder):
        traced = run.run_once(dict(TINY, output_dir=str(tmp_path)), recorder=recorder)
    assert traced.ok, traced.problems
    stats = spans.aggregate([recorder])
    named = set(run.SELF_TIME.values()) | set(run.PER_CALL.values())
    assert set(stats) <= named
    total = sum(s.self_s for s in stats.values())
    assert math.isclose(total, recorder.spans[0].end - recorder.spans[0].start, rel_tol=1e-9)
    assert traced.run_s >= total
    metrics = run.layer_metrics([recorder], [traced], [traced])
    assert metrics["ensemble.samples_fitted"] == 2 * TINY["n_u"]
    assert metrics["optim.adam_steps"] == 2 * TINY["n_u"] * TINY["iterations"]
    assert metrics["trace.spans"] == len(recorder.spans)
    assert metrics["trace.wrapper_s"] > 0


def test_speed_probe_reads_units_and_stops(tmp_path):
    affinity = os.sched_getaffinity(0)
    with speed.Probe(tmp_path / "probe") as probe:
        assert os.sched_getaffinity(0) == {min(affinity)}
        mark, lost = probe.read(), probe.lost_s()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        unit_s = probe.since(mark)
        lost = probe.lost_s() - lost
        assert probe.read()[0] > mark[0]
    assert set(unit_s) == set(speed.KINDS)
    assert all(0 < u < 0.1 for u in unit_s.values())
    assert 0 <= lost < 0.2
    assert os.sched_getaffinity(0) == affinity
    assert not (tmp_path / "probe").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_times_are_scaled_by_the_probe_speed_after_lost_time():
    ref = speed.REFERENCE_UNIT_S
    assert speed.at_reference_speed(3.0, ref, "array") == 3.0
    assert math.isclose(speed.at_reference_speed(3.0, {"array": 2 * ref["array"]}, "array"), 1.5)
    runs = [run.Run(4.0, {}, [], None), run.Run(3.0, {}, [], None, 1.0), run.Run(2.5, {}, [], None)]
    setup_unit = {"interp": 4 * ref["interp"], "array": ref["array"]}
    unit = {"interp": ref["interp"], "array": 2 * ref["array"]}
    metrics = run.end_to_end_metrics(runs, 0.5, setup_unit, unit, "array")
    assert metrics["run_s"] == 1.25
    assert metrics["setup_s"] == 0.125
    assert run.end_to_end_metrics(runs, 0.5, setup_unit, unit, "interp")["run_s"] == 2.5


def test_every_workload_names_a_probe_kind():
    assert set(workloads.SPEED_KIND) == set(workloads.WORKLOADS)
    assert set(workloads.SPEED_KIND.values()) <= set(speed.KINDS)


def test_repeat_makes_at_least_one_run():
    assert len(run.repeat(lambda: None, 0.0)) == 1


def test_rk4_counts_are_computed_from_the_config():
    steps, state_bytes = run.rk4_counts(workloads.overrides("protocol", 0, "unused"))
    assert steps == 500 * 10 * 1001
    assert state_bytes == 501 * 4 * 1001 * 8


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_committed_references_have_the_documented_schema(workload):
    path = checks.REFERENCE_DIR / f"{workload}.json"
    data = json.loads(path.read_text())
    from mzdmd.config import build_config

    cfg = build_config(workloads.overrides(workload, 0, "unused"))
    assert data["header"] == checks.comparison_header(METHODS if cfg.method == "all" else [cfg.method])
    n_points = cfg.sim.n_points
    expected_rows = len(range(0, n_points, checks.STRIDE))
    assert data["seeds"]
    assert all(len(rows) == expected_rows for rows in data["seeds"].values())


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
