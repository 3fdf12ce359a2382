"""Benchmark of the ``decegy`` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark makes all inputs from the seed,
then runs passes of ``decegy`` commands back to back, one command in flight
(a closed loop with one client), and checks every output.

``--trace 0`` runs each command as its own ``python -m decegy`` process, as
users do, and reports the end-to-end metrics.  Its times are scaled by a
fixed reference loop timed by this process around each set-up and command,
so that the shared machine's changes of speed cancel out (see WORKLOADS.md).  ``--trace 1`` runs the same commands in this process through
``decegy.cli.main``, with the span wrappers of ``spans.py`` installed on
alternate passes, and reports per-layer metrics and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPEATS = 5
STARTUP_REPEATS = 3
COMMAND_TIMEOUT_S = 90.0
REFERENCE_CHUNKS = 5
REFERENCE_ITERATIONS = 200_000
# Times are scaled to a machine on which the reference loop takes this long
# (it takes 12-19 ms on the 2-core machine the bounds were set on).
REFERENCE_NOMINAL_S = 0.015
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(child_env: dict) -> dict:
    """Versions, BLAS and its thread settings, CPU count and source revision.

    ``child_env`` is what the benchmark sets for the measured children, on top
    of the variables it inherited.
    """
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unavailable"
    if (ROOT / ".git").exists():  # a directory, or a file in a worktree
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        # "unset" means the library default, one thread per core for OpenBLAS
        "blas_threads_inherited": {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
        "blas_threads_set_for_children": {
            v: child_env[v] for v in THREAD_VARIABLES if v in child_env
        } or "none",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# running one command


def _child_env(overrides: dict) -> dict:
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(
    argv: list[str], log: Path, overrides: dict | None = None
) -> tuple[float, float, float, str | None]:
    """Run ``python -m decegy argv``; returns (wall s, CPU s, max RSS MB, error or None)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "decegy", *argv],
            stdout=out, stderr=subprocess.STDOUT, env=_child_env(overrides or {}), cwd=ROOT,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        error = f"exit {proc.returncode}: {tail}"
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, error


def run_in_process(main, argv: list[str]) -> tuple[float, float, float, str | None]:
    """Run ``decegy.cli.main(argv)`` here; returns (wall s, nan, nan, error or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception:  # the harness counts the failure and keeps running
        return time.perf_counter() - start, math.nan, math.nan, traceback.format_exc()
    wall = time.perf_counter() - start
    error = None if code == 0 else f"exit {code}: {sink.getvalue()[-2000:]}"
    return wall, math.nan, math.nan, error


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs now.

    The benchmark's host is shared, and its cores change speed by up to 1.7x
    for stretches of 10 to 60 s.  Timing this loop right before and after a
    command and dividing the command's time by it removes most of that.  A
    loop that also parsed JSON and sorted a numpy array did no better.
    """
    times = []
    for _ in range(REFERENCE_CHUNKS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledClock:
    """Scales measured times to a machine of ``REFERENCE_NOMINAL_S``."""

    def __init__(self):
        self.references = [reference_s()]

    def factor(self) -> float:
        """Scale for what ran since the last call: nominal over the loop's time around it."""
        self.references.append(reference_s())
        return REFERENCE_NOMINAL_S / ((self.references[-2] + self.references[-1]) / 2)


def run_pass(workload, execute, clock: ScaledClock | None = None) -> dict:
    """Run one pass of the workload's commands, checking each output.

    With a ``clock``, also sum the commands' wall and CPU times scaled by it.
    """
    groups = dict.fromkeys(workload.groups, 0.0)
    attempted = failed = 0
    cpu, rss = [], []
    scaled = scaled_cpu = 0.0 if clock is not None else math.nan
    for command in workload.commands():
        wall, cpu_s, rss_mb, error = execute(command.argv)
        if clock is not None:
            factor = clock.factor()
            scaled += wall * factor
            scaled_cpu += cpu_s * factor
        if error is None:
            try:
                command.check()
            except Exception:  # any exception is a failed check, counted below
                error = "output check failed: " + traceback.format_exc(limit=2)
        attempted += 1
        groups[command.group] += wall
        cpu.append(cpu_s)
        rss.append(rss_mb)
        if error is not None:
            failed += 1
            print(f"FAILED decegy {' '.join(command.argv)[:200]}\n{error}", file=sys.stderr)
    return {
        "groups": groups,
        "pass_s": sum(groups.values()),
        "pass_cpu_s": sum(cpu),
        "scaled_pass_s": scaled,
        "scaled_pass_cpu_s": scaled_cpu,
        "peak_rss_mb": max(rss),
        "attempted": attempted,
        "failed": failed,
    }


def _passes(run_one, seconds: float) -> list:
    """Repeat ``run_one`` while another repeat still fits in ``seconds`` (at least once)."""
    results = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return results


# ---------------------------------------------------------------------------
# the two kinds of run


def setup(workload, work: Path, seed: int, child_env: dict) -> float:
    """Make the inputs and warm the interpreter and file caches; returns seconds."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.setup(work, seed)
    error = run_child(["--help"], work / "warmup.log", child_env)[-1]
    if error is not None:
        raise RuntimeError(f"warm-up failed: {error}")
    return time.perf_counter() - start


def untraced_run(workload, work: Path, seed: int, seconds: float) -> tuple[dict, int, int]:
    env = workload.child_env
    clock = ScaledClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        wall = setup(workload, work, seed, env)
        setups.append((wall * clock.factor(), wall))
    passes = _passes(
        lambda: run_pass(workload, lambda argv: run_child(argv, work / "child.log", env), clock),
        seconds,
    )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def median_of(key):
        return statistics.median(p[key] for p in passes)

    figures = [dict(p["groups"], **workload.pass_metrics(p["groups"])) for p in passes]
    report = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "pass_s": (median_of("scaled_pass_s"), "s"),
        "pass_cpu_s": (median_of("scaled_pass_cpu_s"), "s"),
        "peak_rss_mb": (median_of("peak_rss_mb"), "MB"),
    }
    samples = dict.fromkeys(report, len(passes))
    # the same times unscaled, which the machine's changes of speed move
    report["setup_s_unscaled"] = statistics.median(wall for _, wall in setups)
    report["pass_s_unscaled"] = median_of("pass_s")
    report["pass_cpu_s_unscaled"] = median_of("pass_cpu_s")
    report["reference_s"] = statistics.median(clock.references)
    samples.update(setup_s=SETUP_REPEATS, setup_s_unscaled=SETUP_REPEATS,
                   reference_s=len(clock.references))
    print(f"workload {workload.name}: seed {seed}, {len(passes)} pass(es) of "
          f"{passes[0]['attempted']} commands, {SETUP_REPEATS} set-ups; medians:")
    for name, value in report.items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name:<22} {value:.6g} {unit}  (n={samples.get(name, len(passes))})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:.6g} {unit}  (n={samples.get(name, len(passes))})")
    print(f"  {'error_rate':<22} {failed}/{attempted} = {failed / attempted:g}")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, attempted, failed


def traced_run(
    workload, work: Path, seed: int, seconds: float, env: dict
) -> tuple[dict, int, int]:
    import decegy.cli
    from spans import Tracer, layer_metrics

    setup(workload, work, seed, {})  # in process: the inherited threading, not child_env
    started = time.perf_counter()  # start-up timing and warm-up count against ``seconds``
    startup = statistics.median(
        run_child(["--help"], work / "startup.log")[0] for _ in range(STARTUP_REPEATS)
    )
    plain = lambda argv: run_in_process(decegy.cli.main, argv)  # noqa: E731
    warm = run_pass(workload, plain)  # first calls pay one-off costs; not timed

    tracers: list[Tracer] = []

    def traced_pass():
        tracer = Tracer()
        main = tracer.wrap("cli.main", decegy.cli.main)
        with tracer.installed():
            traced = run_pass(workload, lambda argv: run_in_process(main, argv))
        tracers.append(tracer)
        return traced

    def traced_pair():
        # alternate which side runs first, so drift does not read as overhead
        if len(tracers) % 2:
            untraced = run_pass(workload, plain)
            return traced_pass(), untraced
        return traced_pass(), run_pass(workload, plain)

    pairs = _passes(traced_pair, seconds - (time.perf_counter() - started))
    passes = [warm] + [p for pair in pairs for p in pair]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    per_pass = [layer_metrics(t) for t in tracers]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "count" and len(set(values)) > 1:
            print(f"FAILED count {name} differs between passes: {values}", file=sys.stderr)
            failed += 1
        metrics[name] = (statistics.median(values), unit)
    traced_s = statistics.median(p[0]["pass_s"] for p in pairs)
    plain_s = statistics.median(p[1]["pass_s"] for p in pairs)
    metrics["cli.startup_s"] = (startup, "s")
    metrics["tracing.overhead_s"] = (traced_s - plain_s, "s")
    metrics["tracing.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")

    spans_path = OUT_ROOT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracers[-1].write(spans_path, env)
    print(f"workload {workload.name}: seed {seed}, traced in process, {len(pairs)} traced "
          f"and {len(pairs) + 1} untraced pass(es); spans of the last traced pass in "
          f"{os.path.relpath(spans_path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"  {'error_rate':<44} {failed}/{attempted} = {failed / attempted:g}")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decegy" / "__init__.py").is_file():
        print(f"error: the decegy sources are missing ({SRC / 'decegy'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]()
    env = environment({} if args.trace else workload.child_env)
    print("environment: " + json.dumps(env))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(workload, work, args.seed, args.seconds, env)
        else:
            metrics, attempted, failed = untraced_run(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
