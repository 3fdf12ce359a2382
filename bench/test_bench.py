"""Generator self-check and small-size smoke runs of every workload.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from decegy import analyze, parse_trace
from inputs import CODECS, make_trace
from workloads import WORKLOADS, FitCrossval, SynthPredictReport, TraceAnalyze

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "trace-analyze": lambda: TraceAnalyze(long_events=3000, batch_traces=3, batch_events=200),
    "fit-crossval": lambda: FitCrossval(count=500),
    "synth-predict-report": lambda: SynthPredictReport(count=40),
}


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_counts_match_analyze(tmp_path, codec, seed):
    rng = np.random.default_rng(seed)
    for header in (True, False):
        trace = make_trace(rng, codec, 2000, tmp_path / "t.jsonl", "t", header)
        with open(trace.path, encoding="utf-8") as handle:
            parsed = parse_trace(handle, codec=codec)
        assert len(parsed.events) == trace.events
        vector = analyze(parsed)
        assert vector.as_dict() == trace.expected


def test_workload_names_match_benchmark_json():
    assert sorted(SMALL) == sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_smoke(tmp_path, name):
    metrics, attempted, failed = run.untraced_run(SMALL[name](), tmp_path / "w", 3, 0.0)
    assert failed == 0 and attempted > 0
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_smoke(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path / "out")
    metrics, attempted, failed = run.traced_run(SMALL[name](), tmp_path / "w", 3, 0.0, {})
    assert failed == 0 and attempted > 0
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["cli.commands"]["value"] == attempted // 3  # warm-up, traced, untraced
    spans = (tmp_path / "out").glob("spans-*.jsonl")
    assert len(list(spans)) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-crossval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_environment_reports_inherited_and_applied_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    env = run.environment(FitCrossval.child_env)
    assert env["blas_threads_inherited"]["OPENBLAS_NUM_THREADS"] == "2"
    assert env["blas_threads_set_for_children"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert run.environment({})["blas_threads_set_for_children"] == "none"
