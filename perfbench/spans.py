"""Span recorder for the traced run.

The recorder wraps public mzdmd functions from outside the package, at the
module attribute where each caller looks the name up, so nested calls
(``linalg.expm`` inside ``linalg.expm_frechet``) are seen too.  Spans stay in
memory; the runner writes them out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    ok: bool = True


class Recorder:
    """Collects one span (name, start, end, parent) per call; the spans of a
    name also count its calls."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._clock(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record.ok = False
            raise
        finally:
            record.end = self._clock()
            self._stack.pop()

    def wrap(self, fn, name: str, label=None):
        """Return ``fn`` recording one span per call; ``label(*args,
        **kwargs)``, when given, appends a suffix to the span name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            with self.span(span_name):
                return fn(*args, **kwargs)

        return traced


def _objective_kind(obj, *args, **kwargs):
    return obj.kind


# (module, attribute, span name, label); a name wrapped in two modules is
# the same function looked up by two callers
TARGETS = (
    ("harness", "integrate", "oscillator.simulate", None),
    ("harness", "monte_carlo_projection", "oscillator.projection", None),
    ("harness", "dmd_fit", "objectives.dmd_fit", None),
    ("harness", "run_ensemble", "ensemble.run_ensemble", None),
    ("harness", "reconstruct", "ensemble.reconstruct", None),
    ("harness", "write_csv", "harness.write_csv", None),
    ("harness", "_write_comparison", "harness.write_csv", None),
    ("harness", "emit_plot", "plots.emit_plot", None),
    ("ensemble", "fit_ensemble", "ensemble.fit_ensemble", None),
    ("ensemble", "dmd_fit", "objectives.dmd_fit", None),
    ("ensemble", "fit_transition", "optim.fit_transition", None),
    ("ensemble", "match_and_average", "ensemble.match_and_average", None),
    ("ensemble", "reconstruct", "ensemble.reconstruct", None),
    ("ensemble", "ensemble_variance", "ensemble.variance", None),
    ("optim", "objective_value_and_gradient", "objectives.value_grad", _objective_kind),
    ("optim", "objective_value", "objectives.value", None),
    ("optim", "adam_step", "optim.adam_step", None),
    ("linalg", "expm", "linalg.expm", None),
    ("linalg", "expm_frechet", "linalg.expm_frechet", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "eig", "linalg.eig", None),
    ("linalg", "pinv", "linalg.pinv", None),
)


@contextlib.contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Replace every target with its traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, label in targets:
            module = importlib.import_module(f"mzdmd.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(original, name, label))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if run_end is not None and lo <= run_end:
                run_end = max(run_end, hi)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class SpanStats:
    calls: int
    self_s: float  # summed over calls
    per_call: list[float]  # self time of each call

    def quantile(self, q: float) -> float:
        """Per-call self-time quantile; 0 when the span never ran."""
        if not self.per_call:
            return 0.0
        if len(self.per_call) == 1:
            return self.per_call[0]
        return statistics.quantiles(self.per_call, n=100, method="inclusive")[round(q * 100) - 1]


def aggregate(recorders) -> dict[str, SpanStats]:
    """Calls, total self time and per-call self times, by span name, over
    the spans of every recorder."""
    stats: dict[str, SpanStats] = {}
    for recorder in recorders:
        for span, own in zip(recorder.spans, self_times(recorder.spans)):
            entry = stats.setdefault(span.name, SpanStats(0, 0.0, []))
            entry.calls += 1
            entry.self_s += own
            entry.per_call.append(own)
    return stats


def ensemble_samples(recorders) -> tuple[int, int]:
    """Samples fitted and failed inside ``ensemble.fit_ensemble``: a fitted
    sample ends with a ``linalg.eig`` that returned; a failed one with a
    child span that raised."""
    fitted = failed = 0
    for recorder in recorders:
        for span in recorder.spans:
            if span.parent is None or recorder.spans[span.parent].name != "ensemble.fit_ensemble":
                continue
            fitted += span.ok and span.name == "linalg.eig"
            failed += not span.ok
    return fitted, failed


def call_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op timed against the bare
    no-op."""
    def noop():
        return None

    traced = Recorder().wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - bare) / calls


def dump(recorders, path) -> None:
    """Write the spans of every recorder, one list per run, as JSON."""
    with open(path, "w") as fh:
        json.dump([[asdict(s) for s in r.spans] for r in recorders], fh)
