"""Span tracing of ``decegy`` from outside the package.

The traced run wraps public functions of each module at the place their
caller binds them (``decegy.cli.load_dataset``, ``decegy.evaluation.fit_hl1``,
...), so no file of the package changes.  Each call records a span (name,
start, end, parent) in memory; counters record work done at the same
boundaries.  A span's self time is its duration minus that of its child spans,
which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _cv_span(args, kwargs) -> str:
    kind = kwargs.get("model_kind", args[1] if len(args) > 1 else None)
    options = kwargs.get("fit_options") or {}
    return f"evaluation.cross_validate.{kind}{'_nonneg' if options.get('nonneg') else ''}"


def _ls_span(args, kwargs) -> str:
    nonneg = kwargs.get("nonneg", args[1] if len(args) > 1 else False)
    return "fitting.fit_linear_ls_nonneg" if nonneg else "fitting.fit_linear_ls"


def _count_loaded(counts, args, kwargs, result):
    counts["dataset.rows_loaded"] += len(result)


def _count_written(counts, args, kwargs, result):
    counts["dataset.rows_written"] += len(args[0])


def _count_events(counts, args, kwargs, result):
    counts["trace.events"] += len(result.events)


def _count_iterations(counts, args, kwargs, result):
    counts["fitting.fit_hl1_iterations"] += result[1].iterations


def _count_failed_folds(counts, args, kwargs, result):
    counts["evaluation.folds_failed"] += len(result.failed_folds)


# (span name or namer, hook or None, "module.attribute" bindings wrapped)
WRAPPED = (
    ("taxonomy.validate_vector", None, ("dataset.validate_vector",)),
    ("trace.parse_trace", _count_events, ("cli.parse_trace",)),
    ("trace.analyze", None, ("cli.analyze",)),
    ("dataset.load_dataset", _count_loaded, ("cli.load_dataset",)),
    ("dataset.synth_dataset", None, ("cli.synth_dataset",)),
    ("dataset.export_dataset", None, ("cli.export_dataset",)),
    ("dataset.dataset_to_csv", _count_written, ("cli.dataset_to_csv",)),
    ("fitting.feature_linear_system", None,
     ("cli.feature_linear_system", "evaluation.feature_linear_system")),
    (_ls_span, None, ("cli.fit_linear_ls", "evaluation.fit_linear_ls", "fitting.fit_linear_ls")),
    ("fitting.fit_hl1", _count_iterations, ("cli.fit_hl1", "evaluation.fit_hl1")),
    ("fitting.fit_hl2", None, ("cli.fit_hl2", "evaluation.fit_hl2")),
    ("models.predict_feature_model", None,
     ("cli.predict_feature_model", "evaluation.predict_feature_model")),
    ("models.predict_hl1", None, ("cli.predict_hl1", "evaluation.predict_hl1")),
    ("models.predict_hl2", None, ("cli.predict_hl2", "evaluation.predict_hl2")),
    ("models.category_breakdown", None, ("evaluation.category_breakdown",)),
    (_cv_span, _count_failed_folds, ("cli.cross_validate",)),
    ("evaluation.breakdown_report", None, ("cli.breakdown_report",)),
    ("evaluation.breakdown_csv", None, ("cli.breakdown_csv",)),
    ("evaluation.breakdown_svg", None, ("cli.breakdown_svg",)),
)


class Tracer:
    """Records spans and counters of wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            self.spans.append([span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in WRAPPED by a tracing wrapper; restore on exit."""
        saved = []
        try:
            for name, hook, bindings in WRAPPED:
                for binding in bindings:
                    module_name, attr = binding.split(".")
                    module = importlib.import_module(f"decegy.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total seconds, self seconds and call counts per span name."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration
            calls[name] += 1
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_time[parent_name] = self_time.get(parent_name, 0.0) - duration
        return total, self_time, calls

    def write(self, path: Path, environment: dict) -> None:
        """Write all spans as JSON Lines after a line with the environment."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"environment": environment}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


# Per-layer metrics of one traced pass: total seconds of these spans ...
TIMED = (
    "taxonomy.validate_vector",
    "trace.parse_trace",
    "trace.analyze",
    "dataset.load_dataset",
    "dataset.synth_dataset",
    "dataset.export_dataset",
    "dataset.dataset_to_csv",
    "fitting.feature_linear_system",
    "fitting.fit_linear_ls",
    "fitting.fit_linear_ls_nonneg",
    "fitting.fit_hl1",
    "fitting.fit_hl2",
    "models.predict_feature_model",
    "models.predict_hl1",
    "models.predict_hl2",
    "models.category_breakdown",
    "evaluation.cross_validate.feature",
    "evaluation.cross_validate.feature_nonneg",
    "evaluation.cross_validate.hl1",
    "evaluation.cross_validate.hl2",
    "evaluation.breakdown_report",
    "evaluation.breakdown_csv",
    "evaluation.breakdown_svg",
)
# ... self seconds of the spans that contain other spans ...
SELF_TIMED = {
    "cli.main": "cli.self_s",
    "dataset.load_dataset": "dataset.load_dataset_self_s",
    "dataset.synth_dataset": "dataset.synth_dataset_self_s",
    "fitting.fit_hl2": "fitting.fit_hl2_self_s",
    "evaluation.cross_validate.feature": "evaluation.cross_validate.feature_self_s",
    "evaluation.cross_validate.feature_nonneg": "evaluation.cross_validate.feature_nonneg_self_s",
    "evaluation.cross_validate.hl1": "evaluation.cross_validate.hl1_self_s",
    "evaluation.cross_validate.hl2": "evaluation.cross_validate.hl2_self_s",
    "evaluation.breakdown_report": "evaluation.breakdown_report_self_s",
}
# ... call counts of span groups ...
CALLED = {
    "cli.commands": ("cli.main",),
    "taxonomy.validate_vector_calls": ("taxonomy.validate_vector",),
    "trace.files": ("trace.parse_trace",),
    "fitting.fit_linear_ls_calls": ("fitting.fit_linear_ls", "fitting.fit_linear_ls_nonneg"),
    "models.predict_calls": (
        "models.predict_feature_model", "models.predict_hl1", "models.predict_hl2",
    ),
}
# ... and the counters the hooks keep.
COUNTED = (
    "trace.events",
    "dataset.rows_loaded",
    "dataset.rows_written",
    "fitting.fit_hl1_iterations",
    "evaluation.folds_failed",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals, self times and counts of one traced pass, as (value, unit)."""
    total, self_time, calls = tracer.totals()
    metrics = {f"{name}_s": (total.get(name, 0.0), "s") for name in TIMED}
    metrics.update({out: (self_time.get(name, 0.0), "s") for name, out in SELF_TIMED.items()})
    metrics.update({out: (sum(calls[n] for n in names), "count") for out, names in CALLED.items()})
    metrics.update({name: (tracer.counts[name], "count") for name in COUNTED})
    return metrics
