"""Pinned outputs: the benchmark's seed-1 commands give the recorded results.

The three workloads of ``bench/workloads.py`` make their seed-1 inputs, and the
19 commands of one pass run here, in order, through ``decegy.cli.main``.  For
each command the exit code, stdout and stderr (with the work directory written
as ``{work}`` and each warning as the CLI prints it: ``warning: <message>``)
must equal its entry in ``PINNED``, and so must each file it writes.

The files of ``analyze``, ``synth``, ``predict`` and ``report`` are pinned by
their sha256.  The JSON of ``fit`` and ``crossval`` is pinned as its fitted
parameters and its errors, each float within a relative ``RTOL`` of the pinned
one and all else equal; the solver's diagnostics, the per-fold parameters and
the per-stream errors are left out.  Those bytes depend on the BLAS kernel that
OpenBLAS picks for the CPU at run time: under other kernels on one machine
(``OPENBLAS_CORETYPE``) the linear fits moved by up to 1e-13, HL1's parameters
by up to 4e-7, its iteration count by a step or four, and ``gradient_norm`` and
``kkt.max_free_gradient`` by tens of percent.

An output that changes on purpose: the failure names the command and the file
and prints the new entry, which replaces the old one here.  The inputs come
from ``bench/workloads.py``, so a change to the workloads updates this table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from decegy.cli import main

# the benchmark's modules import each other by name
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402

# HL1 stops at its step tolerance, a step earlier or later under another kernel
RTOL = 1e-6
LEFT_OUT = ("diagnostics", "fold_params", "per_stream")


class Pin(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict[str, str | dict]


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


PINNED: dict[str, Pin] = {
    "analyze long-h263.csv": Pin(
        0, "analyzed 1 trace(s) [h263] -> {work}/long-h263.csv\n", "",
        {"long-h263.csv": "ce4877432fd7a6cfe687750c3b46b8df25971704a93e87702c091acfad25b03b"}),
    "analyze batch-h263.csv": Pin(
        0, "analyzed 50 trace(s) [h263] -> {work}/batch-h263.csv\n", "",
        {"batch-h263.csv": "11ee82c26d0ee98889ebd8503df3ec90f19d996bbf0cb8b2ab84ef8ba37ca0c9"}),
    "analyze long-h264.csv": Pin(
        0, "analyzed 1 trace(s) [h264] -> {work}/long-h264.csv\n", "",
        {"long-h264.csv": "c62f263212d3cd0a9f68f11c7a5a1c2ad762a829cc0b505428f552769b1e92d7"}),
    "analyze batch-h264.csv": Pin(
        0, "analyzed 50 trace(s) [h264] -> {work}/batch-h264.csv\n", "",
        {"batch-h264.csv": "f105a384babc99b7461521da29ca2ddc2ab4002abdad4dcf57a4835daa683510"}),
    "analyze long-hevc.csv": Pin(
        0, "analyzed 1 trace(s) [hevc] -> {work}/long-hevc.csv\n", "",
        {"long-hevc.csv": "ed20bfa24a392f63adfe7ee2d08dd611c0a41576e533f5bcbac33d2bfe83a2e7"}),
    "analyze batch-hevc.csv": Pin(
        0, "analyzed 50 trace(s) [hevc] -> {work}/batch-hevc.csv\n", "",
        {"batch-hevc.csv": "712b4b639e2276c6c2705481e75c985f94eba2201357b277c1c3f13646d585b7"}),
    "analyze long-vp9.csv": Pin(
        0, "analyzed 1 trace(s) [vp9] -> {work}/long-vp9.csv\n", "",
        {"long-vp9.csv": "dd61b707ed42eaf0fa70dbad85138f4beeb3a0e2bb6d85e64b19adddc5d6ddde"}),
    "analyze batch-vp9.csv": Pin(
        0, "analyzed 50 trace(s) [vp9] -> {work}/batch-vp9.csv\n", "",
        {"batch-vp9.csv": "e21b66e3efa46e553e534dd915f41844e47b3d0c5056aa535d14a51e2f2cfeca"}),
    "fit fit-feature.json": Pin(
        0, "fitted feature model on 5000 records (residual norm 2.023e+00)\n", "",
        {"fit-feature.json":
            {'model': 'feature', 'codec': 'hevc',
            'specific_energies': {'e0': 0.05531364171182494, 'frame': 0.0017623207050995395,
            'intra32': 6.1992737683589326e-06, 'intra16': 2.098269330985175e-06,
            'intra8': 6.086139241037675e-07, 'intra4': 1.8728608307443848e-07,
            'inter64': 1.4366823149011175e-05, 'inter32': 3.804132535921403e-06,
            'inter16': 1.5995153180880419e-06, 'inter8': 4.823326058388414e-07,
            'pel': 3.53577121152758e-09, 'frac': 6.02411239134631e-09,
            'trans32': 2.843033406187335e-06, 'trans16': 9.292206118850498e-07,
            'trans8': 3.4565197378702303e-07, 'trans4': 1.4226075615526e-07,
            'coeff': 7.274424325869911e-08, 'val': 2.4673627530077513e-08,
            'sao': 2.2600566458249236e-06}}}),
    "fit fit-feature-nonneg.json": Pin(
        0, "fitted feature model on 5000 records (residual norm 2.023e+00)\n"
           "nonneg fit: clamped at zero: (none)\n", "",
        {"fit-feature-nonneg.json":
            {'model': 'feature', 'codec': 'hevc',
            'specific_energies': {'e0': 0.05531364171182551, 'frame': 0.0017623207050995395,
            'intra32': 6.199273768358873e-06, 'intra16': 2.0982693309851957e-06,
            'intra8': 6.086139241037607e-07, 'intra4': 1.872860830744377e-07,
            'inter64': 1.4366823149011107e-05, 'inter32': 3.80413253592142e-06,
            'inter16': 1.5995153180880383e-06, 'inter8': 4.823326058388423e-07,
            'pel': 3.535771211527579e-09, 'frac': 6.024112391346309e-09,
            'trans32': 2.8430334061873052e-06, 'trans16': 9.292206118850115e-07,
            'trans8': 3.456519737870178e-07, 'trans4': 1.4226075615525753e-07,
            'coeff': 7.274424325869886e-08, 'val': 2.4673627530077493e-08,
            'sao': 2.2600566458248906e-06}}}),
    "fit fit-hl1.json": Pin(
        0, "fitted hl1 model on 5000 records (residual norm 1.566e+01)\n", "",
        {"fit-hl1.json":
            {'model': 'hl1', 'codec': 'hevc', 'base_joules': 0.48290601542156253,
            'per_pixel_joules': 1.5560344944958823e-10, 'rate_coeff': 1.3559040090955249e-08,
            'rate_power': 0.9146482540387445}}),
    "fit fit-hl2.json": Pin(
        0, "fitted hl2 model on 5000 records (residual norm 1.612e+01)\n", "",
        {"fit-hl2.json":
            {'model': 'hl2', 'codec': 'hevc', 'intra_bytes_coeff': -1.5602137710664806e-09,
            'intra_coeff': -2.0865282845690474e-10, 'bytes_coeff': 8.104203848949723e-08,
            'base_coeff': 2.6933521342125684e-09}}),
    "crossval cv-feature.json": Pin(
        0, "model      eps_mean   (k=10, seed=1, M=5000)\nfeature      3.96%\n", "",
        {"cv-feature.json":
            {'model': 'feature', 'k': 10, 'seed': 1, 'overall_error': 0.039584697307060955,
            'fold_errors': [0.038621924879240065, 0.03845234263757412, 0.038956229959106296,
            0.039878813031754626, 0.03959729486532327, 0.040424116001910954,
            0.039882564684431715, 0.03978575892340231, 0.03938469648667025, 0.040863231601196],
            'fold_sizes': [500, 500, 500, 500, 500, 500, 500, 500, 500, 500],
            'failed_folds': []}}),
    "crossval cv-feature-nonneg.json": Pin(
        0, "model      eps_mean   (k=10, seed=1, M=5000)\nfeature      3.96%\n", "",
        {"cv-feature-nonneg.json":
            {'model': 'feature', 'k': 10, 'seed': 1, 'overall_error': 0.03958469730706102,
            'fold_errors': [0.038621924879240085, 0.03845234263757412, 0.0389562299591065,
            0.03987881303175455, 0.039597294865323304, 0.040424116001911044,
            0.03988256468443172, 0.03978575892340234, 0.03938469648667049,
            0.040863231601196044], 'fold_sizes': [500, 500, 500, 500, 500, 500, 500, 500, 500,
            500], 'failed_folds': []}}),
    "crossval cv-hl1.json": Pin(
        0, "model      eps_mean   (k=10, seed=1, M=5000)\nhl1         20.20%\n", "",
        {"cv-hl1.json":
            {'model': 'hl1', 'k': 10, 'seed': 1, 'overall_error': 0.20204438365726693,
            'fold_errors': [0.20371631971584145, 0.2063143531640319, 0.20405053011948945,
            0.19668648096448488, 0.20102274750463664, 0.19903161901398728, 0.21142189405179312,
            0.19887123221506198, 0.20234814345184252, 0.19698051637150013], 'fold_sizes': [500,
            500, 500, 500, 500, 500, 500, 500, 500, 500], 'failed_folds': []}}),
    "crossval cv-hl2.json": Pin(
        0, "model      eps_mean   (k=10, seed=1, M=5000)\nhl2         33.96%\n", "",
        {"cv-hl2.json":
            {'model': 'hl2', 'k': 10, 'seed': 1, 'overall_error': 0.33964287698039014,
            'fold_errors': [0.34828519590403173, 0.3391048652108569, 0.32934404613698737,
            0.3334084221533156, 0.34655148631846316, 0.3430697962026611, 0.3570130426423026,
            0.3417086331224432, 0.33717754461349536, 0.32076573749934484], 'fold_sizes': [500,
            500, 500, 500, 500, 500, 500, 500, 500, 500], 'failed_folds': []}}),
    "synth synth.csv": Pin(
        0, "wrote 5000 synthetic h264 records to {work}/synth.csv (sigma=0.0, seed=1)\n", "",
        {"synth.csv": "4e34fee8a79c5f3bc21ef286078be05a298e64e2c2be3ba7f12025c0742a19f0"}),
    "predict predicted.csv": Pin(
        0, "predicted 5000 stream(s) with the feature model -> {work}/predicted.csv\n", "",
        {"predicted.csv": "1cc40aa6df6dda21363a7210bb18f730f07d21eb90522831b0b2593785b4832e"}),
    "report breakdown.csv": Pin(
        0, "reported 5000 stream(s)\n", "",
        {"breakdown.csv": "954fa2b5e4df0fa78c4b0122b9a31c3fb97118337044e571cebd74d20e3046cd",
         "breakdown.svg": "7d560ddfddf5c6e7e75d949b5964055be3e6d58c418962fa466a3af51a10213e"}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fitted(data: bytes) -> dict:
    """A ``fit`` or ``crossval`` JSON without the entries in ``LEFT_OUT``."""
    return {key: value for key, value in json.loads(data).items() if key not in LEFT_OUT}


def _close(new, old) -> bool:
    """Whether ``new`` equals ``old`` but for floats, which must be within ``RTOL``."""
    if isinstance(old, float):
        return isinstance(new, float) and math.isclose(new, old, rel_tol=RTOL)
    if isinstance(old, dict):
        return isinstance(new, dict) and list(new) == list(old) and all(
            _close(new[key], value) for key, value in old.items())
    if isinstance(old, list):
        return isinstance(new, list) and len(new) == len(old) and all(map(_close, new, old))
    return type(new) is type(old) and new == old


def _stamps(work: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in work.rglob("*") if p.is_file()}


def _run_pass(root: Path) -> dict[str, Run]:
    """Each command's result, keyed by its name and the file its ``--out`` names."""
    results = {}
    for name, workload_type in WORKLOADS.items():
        work = root / name
        work.mkdir()
        workload = workload_type()
        workload.setup(work, 1)
        for command in workload.commands():
            argv = command.argv
            before = _stamps(work)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")  # as in a new process
                code = main(argv)
            stderr.writelines(f"warning: {w.message}\n" for w in caught)
            written = sorted(p for p, stamp in _stamps(work).items() if before.get(p) != stamp)
            label = f"{argv[0]} {Path(argv[argv.index('--out') + 1]).name}"
            results[label] = Run(
                code, *(s.getvalue().replace(str(work), "{work}") for s in (stdout, stderr)),
                {p.relative_to(work).as_posix(): p.read_bytes() for p in written})
    return results


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, Run]:
    return _run_pass(tmp_path_factory.mktemp("pinned"))


def test_floats_may_move_by_rtol_and_nothing_else():
    old = {"a": [0.5, -2e-7, 0.0, 3], "b": "hevc"}
    assert _close({"a": [0.5 * (1 + 0.99 * RTOL), -2e-7, 0.0, 3], "b": "hevc"}, old)
    for new in [{"a": [0.5 * (1 + 1.01 * RTOL), -2e-7, 0.0, 3], "b": "hevc"},
                {"a": [0.5, 2e-7, 0.0, 3], "b": "hevc"}, {"a": [0.5, -2e-7, 0.0, 3.0], "b": "hevc"},
                {"a": [0.5, -2e-7, 0.0], "b": "hevc"}, {"b": "hevc", "a": [0.5, -2e-7, 0.0, 3]}]:
        assert not _close(new, old)


def test_every_command_is_pinned(runs):
    assert list(runs) == list(PINNED)


@pytest.mark.parametrize("label", PINNED)
def test_command_output_is_pinned(runs, label):
    run, pin = runs[label], PINNED[label]
    problems = [f"{label}: {field} is now {new!r}" for field, new, old
                in zip(("code", "stdout", "stderr"), run, pin) if new != old]
    if list(run.files) != list(pin.files):
        problems.append(f"{label}: writes {list(run.files)}, pinned {list(pin.files)}")
    for name, data in run.files.items():
        old = pin.files.get(name)
        if label.startswith(("fit ", "crossval ")):
            new = _fitted(data)
            same = _close(new, old)
        else:
            new = _sha256(data)
            same = new == old
        if not same:
            problems.append(f"{label}: {name} is now {new!r}")
    assert not problems, "\n".join(problems)

