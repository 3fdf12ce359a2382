"""The benchmark's workloads: inputs made in set-up, one pass of commands, checks.

A pass is a list of ``decegy`` commands run back to back by one client, each
followed by a check of its output.  Why each workload exists is written in
``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from decegy.dataset import BASE_COLUMNS, default_specific_energies
from decegy.models import save_params
from decegy.taxonomy import Category, Codec, build_feature_set

from inputs import CODECS, Trace, make_trace, write_dataset


class CheckError(Exception):
    """A command's output is not what the inputs require."""


@dataclass
class Command:
    """One CLI invocation, the end-to-end metric it adds to, and its check."""

    group: str
    argv: list[str]
    check: Callable[[], None]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CheckError(f"{path.name}: empty output")
    return rows[0], rows[1:]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Workload:
    name: ClassVar[str] = ""
    #: end-to-end metric groups, in print order; each sums its commands' time
    groups: ClassVar[tuple[str, ...]] = ()
    #: variables set for the untraced children on top of the inherited ones
    child_env: ClassVar[dict[str, str]] = {}

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def pass_metrics(self, group_seconds: dict[str, float]) -> dict[str, float]:
        """Workload-specific end-to-end values of one pass (besides group times)."""
        return {}


# ---------------------------------------------------------------------------
# trace-analyze


@dataclass
class TraceAnalyze(Workload):
    long_events: int = 100_000
    batch_traces: int = 50
    batch_events: int = 1_000
    name: ClassVar[str] = "trace-analyze"
    groups: ClassVar[tuple[str, ...]] = ("analyze_s",)
    _jobs: list = field(default_factory=list)

    def setup(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self._jobs = []
        for codec in CODECS:
            stream = f"long-{codec.value}"
            long = make_trace(rng, codec, self.long_events, work / f"{stream}.jsonl", stream, True)
            self._jobs.append((work / f"{stream}.csv", None, [long]))
            batch_dir = work / f"batch-{codec.value}"
            batch_dir.mkdir()
            batch = []
            for i in range(self.batch_traces):
                stream = f"b-{codec.value}-{i:03d}"
                path = batch_dir / f"{stream}.jsonl"
                batch.append(make_trace(rng, codec, self.batch_events, path, stream, False))
            self._jobs.append((work / f"batch-{codec.value}.csv", codec, batch))

    def commands(self) -> list[Command]:
        out = []
        for csv_path, codec, traces in self._jobs:
            argv = ["analyze", *(str(t.path) for t in traces), "--out", str(csv_path)]
            if codec is not None:
                argv += ["--codec", codec.value]
            out.append(Command("analyze_s", argv, _analyze_check(csv_path, traces)))
        return out

    def pass_metrics(self, group_seconds):
        events = sum(t.events for _, _, traces in self._jobs for t in traces)
        return {"analyze_events_per_s": events / group_seconds["analyze_s"]}


def _analyze_check(csv_path: Path, traces: list[Trace]):
    def check() -> None:
        names = build_feature_set(traces[0].codec).names
        header, rows = _read_csv(csv_path)
        _require(header == list(BASE_COLUMNS) + list(names), f"{csv_path.name}: bad header")
        _require(len(rows) == len(traces),
                 f"{csv_path.name}: {len(rows)} rows for {len(traces)} traces")
        for row, trace in zip(rows, traces):
            sid = trace.stream_id
            _require(row[0] == sid, f"{csv_path.name}: id {row[0]!r} != {sid!r}")
            _require(row[1] == trace.codec.value, f"{sid}: codec {row[1]!r}")
            frames = int(trace.expected["frame"])
            _require(row[4] == (str(frames) if frames else ""), f"{sid}: frames {row[4]!r}")
            counts = row[len(BASE_COLUMNS):]
            for name, cell in zip(names, counts):
                _require(
                    float(cell) == trace.expected[name],
                    f"{sid}: {name} = {cell}, expected {trace.expected[name]!r}",
                )

    return check


# ---------------------------------------------------------------------------
# fit-crossval

SIGMA = 0.05
K = 10
# Acceptance criterion 3: the feature model's CV error sits at the noise
# floor, SIGMA * sqrt(2/pi) = 0.0399.
NOISE_FLOOR_BAND = (0.03, 0.05)
FIT_MODELS = (("feature",), ("feature", "--nonneg"), ("hl1",), ("hl2",))
HL_FIELDS = {
    "hl1": ("base_joules", "per_pixel_joules", "rate_coeff", "rate_power"),
    "hl2": ("intra_bytes_coeff", "intra_coeff", "bytes_coeff", "base_coeff"),
}


@dataclass
class FitCrossval(Workload):
    count: int = 5000
    name: ClassVar[str] = "fit-crossval"
    groups: ClassVar[tuple[str, ...]] = ("fit_s", "crossval_s")
    # Under OpenBLAS's default of one thread per core, the pivoted QR in
    # fit_linear_ls takes 2-4 ms in some processes and 190-250 ms in others.
    # On a 2-core machine that split whole runs into two clusters about 4 s
    # apart: pass_s spread 0.12 and 0.16 (interquartile range over median, two
    # sets of ten runs) against 0.08 and 0.04 with one thread.  WORKLOADS.md
    # has the figures.  The traced run keeps the inherited threading, so the
    # QR's cost still shows in fitting.fit_linear_ls_s.
    child_env: ClassVar[dict[str, str]] = {"OPENBLAS_NUM_THREADS": "1"}
    _work: Path | None = None
    _seed: int = 0
    _feature_error: dict = field(default_factory=dict)

    def setup(self, work: Path, seed: int) -> None:
        self._work, self._seed = work, seed
        write_dataset(np.random.default_rng(seed), Codec.HEVC, self.count, SIGMA,
                      work / "data.csv")

    def commands(self) -> list[Command]:
        data = str(self._work / "data.csv")
        out = []
        for model in FIT_MODELS:
            label = "-".join(m.lstrip("-") for m in model)
            path = self._work / f"fit-{label}.json"
            argv = ["fit", "--dataset", data, "--model", *model, "--out", str(path)]
            out.append(Command("fit_s", argv, self._fit_check(path, model[0])))
        for model in FIT_MODELS:
            label = "-".join(m.lstrip("-") for m in model)
            path = self._work / f"cv-{label}.json"
            argv = ["crossval", "--dataset", data, "--model", *model, "--k", str(K),
                    "--seed", str(self._seed), "--out", str(path)]
            out.append(Command("crossval_s", argv, self._cv_check(path, label)))
        return out

    def _fit_check(self, path: Path, model: str):
        def check() -> None:
            doc = json.loads(path.read_text(encoding="utf-8"))
            _require(doc.get("model") == model and doc.get("codec") == "hevc",
                     f"{path.name}: model {doc.get('model')!r} codec {doc.get('codec')!r}")
            if model == "feature":
                energies = doc.get("specific_energies", {})
                _require(list(energies) == list(build_feature_set(Codec.HEVC).names),
                         f"{path.name}: feature names {list(energies)}")
                values = list(energies.values())
            else:
                _require(all(key in doc for key in HL_FIELDS[model]),
                         f"{path.name}: missing fields")
                values = [doc[key] for key in HL_FIELDS[model]]
            _require(all(math.isfinite(v) for v in values), f"{path.name}: non-finite parameter")
            _require("diagnostics" in doc, f"{path.name}: no diagnostics")

        return check

    def _cv_check(self, path: Path, label: str):
        def check() -> None:
            doc = json.loads(path.read_text(encoding="utf-8"))
            _require(doc["k"] == K and len(doc["fold_errors"]) == K,
                     f"{path.name}: {len(doc['fold_errors'])} folds")
            _require(doc["failed_folds"] == [], f"{path.name}: failed folds {doc['failed_folds']}")
            _require(sum(doc["fold_sizes"]) == self.count == len(doc["per_stream"]),
                     f"{path.name}: folds cover {sum(doc['fold_sizes'])} of {self.count} rows")
            error = doc["overall_error"]
            if label.startswith("feature"):
                lo, hi = NOISE_FLOOR_BAND
                _require(lo <= error <= hi,
                         f"{path.name}: feature error {error} off the noise floor")
                self._feature_error[label] = error
            else:
                # acceptance criterion 6: the feature model beats both baselines
                worst = max(self._feature_error.values(), default=math.inf)
                _require(error > worst, f"{path.name}: {label} error {error} <= feature {worst}")

        return check


# ---------------------------------------------------------------------------
# synth-predict-report

REPORT_HEADER = ["stream_id", "E_dec", "E_hat"] + [c.value for c in Category]


@dataclass
class SynthPredictReport(Workload):
    count: int = 5000
    name: ClassVar[str] = "synth-predict-report"
    groups: ClassVar[tuple[str, ...]] = ("synth_s", "predict_s", "report_s")
    _work: Path | None = None
    _seed: int = 0
    _synth: tuple = ()

    def setup(self, work: Path, seed: int) -> None:
        self._work, self._seed = work, seed
        save_params(default_specific_energies(Codec.H264), Codec.H264, work / "true.json")

    def commands(self) -> list[Command]:
        w = self._work
        synth, params = str(w / "synth.csv"), str(w / "true.json")
        return [
            Command("synth_s", ["synth", "--codec", "h264", "--count", str(self.count),
                                "--sigma", "0", "--seed", str(self._seed), "--out", synth],
                    self._synth_check),
            Command("predict_s", ["predict", "--dataset", synth, "--params", params,
                                  "--out", str(w / "predicted.csv")], self._predict_check),
            Command("report_s", ["report", "--dataset", synth, "--params", params,
                                 "--out", str(w / "breakdown.csv"),
                                 "--svg", str(w / "breakdown.svg")], self._report_check),
        ]

    def _synth_check(self) -> None:
        header, rows = _read_csv(self._work / "synth.csv")
        names = build_feature_set(Codec.H264).names
        _require(header == list(BASE_COLUMNS) + list(names), "synth.csv: bad header")
        _require(len(rows) == self.count, f"synth.csv: {len(rows)} rows, expected {self.count}")
        ids = [row[0] for row in rows]
        _require(len(set(ids)) == len(ids), "synth.csv: duplicate stream ids")
        _require(all(row[1] == "h264" for row in rows), "synth.csv: codec is not h264")
        energies = [float(row[7]) for row in rows]
        _require(all(e > 0 for e in energies), "synth.csv: nonpositive energy")
        self._synth = (ids, energies)

    def _predict_check(self) -> None:
        ids, energies = self._synth
        header, rows = _read_csv(self._work / "predicted.csv")
        synth_header, _ = _read_csv(self._work / "synth.csv")
        _require(header == synth_header + ["E_hat"], f"predicted.csv: header {header}")
        _require([row[0] for row in rows] == ids, "predicted.csv: rows differ from the input")
        for row, energy in zip(rows, energies):
            # sigma = 0 and the true parameters: the estimate is the energy, bit for bit
            _require(len(row) == len(header) and float(row[-1]) == energy,
                     f"predicted.csv: {row[0]} E_hat {row[-1]} != {energy!r}")

    def _report_check(self) -> None:
        ids, energies = self._synth
        header, rows = _read_csv(self._work / "breakdown.csv")
        _require(header == REPORT_HEADER, f"breakdown.csv: header {header}")
        _require([row[0] for row in rows] == ids, "breakdown.csv: rows differ from the input")
        for row, energy in zip(rows, energies):
            measured, estimate = float(row[1]), float(row[2])
            parts = math.fsum(float(c) for c in row[3:])
            _require(measured == energy, f"breakdown.csv: {row[0]} E_dec {measured} != {energy!r}")
            _require(abs(parts - estimate) <= 1e-12 * abs(estimate),
                     f"breakdown.csv: {row[0]} categories sum to {parts}, E_hat {estimate}")
        root = ElementTree.parse(self._work / "breakdown.svg").getroot()
        bars = [e for e in root.iter() if e.get("class") == "bar-measured"]
        _require(len(bars) == self.count, f"breakdown.svg: {len(bars)} bars for {self.count} rows")


WORKLOADS = {w.name: w for w in (TraceAnalyze, FitCrossval, SynthPredictReport)}
