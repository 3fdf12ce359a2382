"""Whole-CLI fuzz: mutated input files and drawn argument values must end in an
exit code, never a traceback, and every file written must be a strict document.

Every example runs one of the six subcommands in-process on valid synthetic
datasets (CSV or JSON), parameter files of the three models, or random decode
traces, with one input file mutated by a byte or CSV-cell edit (delete,
duplicate, flip, truncate, swap).  ``main`` must return 0-3 without raising;
a failing run ends stderr with one ``error:``, ``fit error:`` or
``usage error:`` line, which names a mutated dataset or parameter file exactly
when that file cannot be read alone, and a successful ``predict`` or
``analyze`` writes one row per input stream with its id.  In both kinds of run,
an exit-2 message of a command that read a file names one of the files given,
unless it is about an argument's value, which it then names.

Other examples run ``synth``, ``fit``, ``crossval``, ``predict`` and ``report`` on
valid files with drawn values of ``--count``, ``--k``, ``--seed``, ``--sigma``
(negative, NaN, huge), ``--streams`` and ``--model``/``--nonneg``.  Sizes are drawn
huge only where they are rejected before anything is allocated.  In both kinds of
run, every JSON file written parses strictly (no NaN or Infinity), and every number
cell of a CSV file written parses as a finite float.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decegy import (  # noqa: E402
    Category,
    Codec,
    Coefficient,
    DecegyError,
    FrameStart,
    HL1Params,
    HL2Params,
    InterBlock,
    IntraBlock,
    SaoBlock,
    SpecificEnergies,
    SynthSpec,
    TransformBlock,
    build_feature_set,
    default_specific_energies,
    load_dataset,
    load_params,
    synth_dataset,
)
from decegy.cli import main  # noqa: E402
from decegy.dataset import BASE_COLUMNS, MAX_SYNTH_COUNT, dataset_to_csv  # noqa: E402
from decegy.dataset import dataset_to_json  # noqa: E402
from decegy.models import params_to_json  # noqa: E402
from util import random_trace  # noqa: E402

_EVENT_NAMES = {
    IntraBlock: "intra", InterBlock: "inter", TransformBlock: "transform", SaoBlock: "sao",
}


def _trace_text(trace) -> str:
    """A decode trace as the JSON Lines file ``decegy analyze`` reads."""
    lines = [{"codec": trace.codec.value, "stream_id": trace.stream_id}]
    for ev in trace.events:
        if isinstance(ev, FrameStart):
            lines.append({"event": "frame_start"})
        elif isinstance(ev, Coefficient):
            entropy = ev.entropy.value if ev.entropy else "na"
            lines.append({"event": "coeff", "value": ev.value, "bits": ev.coded_bits,
                          "entropy": entropy})
        else:
            fields = {name: getattr(ev, name) for name in ev.__slots__}
            lines.append({"event": _EVENT_NAMES[type(ev)], **fields})
    return "".join(f"{json.dumps(line)}\n" for line in lines)


@lru_cache(maxsize=None)
def _files(codec: Codec) -> dict[str, bytes]:
    """Valid input files of one codec, by file name."""
    dataset = synth_dataset(SynthSpec(codec, 6, noise_sigma=0.05, seed=3))
    fs = dataset.feature_set
    hl1 = HL1Params(0.4, 2.1e-8, 1.3e-7, 0.7)
    hl2 = HL2Params(2e-9, 5e-8, 3e-9, 1e-8)
    texts = {
        "data.csv": dataset_to_csv(dataset),
        "data.json": dataset_to_json(dataset),
        "feature.json": params_to_json(default_specific_energies(codec), codec),
        "hl1.json": params_to_json(hl1, codec),
        "hl2.json": params_to_json(hl2, codec),
        "trace.jsonl": _trace_text(random_trace(codec, np.random.default_rng(7), 2, 5)),
    }
    # valid files whose estimate of the second stream is past the float range: a count
    # near its top and a specific energy far above the defaults
    texts["wide.csv"] = _write_cells(_cells(texts["data.csv"]), (2, "pel", "1e300"))
    energies = {**default_specific_energies(codec).as_dict(), "pel": 1e10}
    texts["wide.json"] = params_to_json(SpecificEnergies.from_dict(fs, energies), codec)
    return {name: text.encode("utf-8") for name, text in texts.items()}


def _cells(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _write_cells(rows: list[list[str]], *edits: tuple[int, str, str]) -> str:
    """CSV text of ``rows``, each ``(row, column name, cell)`` of ``edits`` set first."""
    for r, name, cell in edits:
        rows[r][rows[0].index(name)] = cell
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _commands(codec: Codec, data: str, params: str) -> dict[str, list[list[str]]]:
    return {
        "analyze": [["analyze", "trace.jsonl", "--out", "out.csv"]],
        "fit": [["fit", "--dataset", data, "--model", m, "--out", "fit.json"]
                for m in ("feature", "hl1", "hl2")],
        "predict": [["predict", "--dataset", data, "--params", params, "--out", "out.csv"]],
        "crossval": [["crossval", "--dataset", data, "--model", m, "--k", "3"]
                     for m in ("feature", "hl1", "hl2")],
        "report": [["report", "--dataset", data, "--params", "feature.json",
                    "--out", "out.csv", "--svg", "out.svg"]],
        "synth": [["synth", "--codec", codec.value, "--count", "3", "--params", "feature.json",
                   "--out", "s.csv"]],
    }


def _mutate_bytes(raw: bytes, op: str, i: int, j: int, byte: int) -> bytes:
    i, j = i % (len(raw) + 1), j % (len(raw) + 1)
    if op == "delete":
        return raw[:i] + raw[i + 1:]
    if op == "duplicate":
        return raw[:i] + raw[i:i + 1] + raw[i:]
    if op == "flip":
        return raw[:i] + bytes([byte]) + raw[i + 1:]
    if op == "truncate":
        return raw[:i]
    i, j = sorted((i, j))
    return raw[:i] + raw[j:j + 1] + raw[i + 1:j] + raw[i:i + 1] + raw[j + 1:]  # swap


def _mutate_cells(raw: bytes, op: str, i: int, j: int, byte: int) -> bytes:
    rows = _cells(raw.decode("utf-8"))
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    (r, c), (r2, c2) = cells[i % len(cells)], cells[j % len(cells)]
    cell = rows[r][c]
    if op == "delete":
        del rows[r][c]
    elif op == "duplicate":
        rows[r].insert(c, cell)
    elif op == "flip":
        rows[r][c] = ["", "-1", "0", "nan", "inf", "1e400", "9" * 30, chr(byte)][byte % 8]
    elif op == "truncate":
        rows[r][c] = cell[: j % (len(cell) + 1)]
    else:
        rows[r][c], rows[r2][c2] = rows[r2][c2], cell
    return _write_cells(rows).encode("utf-8")


_OPS = ("delete", "duplicate", "flip", "truncate", "swap")


@st.composite
def runs(draw):
    """(argv, files): one command and its input files, one of them mutated."""
    codec = draw(st.sampled_from(list(Codec)))
    data = draw(st.sampled_from(["data.csv", "data.json"]))
    params = draw(st.sampled_from(["feature.json", "hl1.json", "hl2.json"]))
    commands = _commands(codec, data, params)
    argv = draw(st.sampled_from(commands[draw(st.sampled_from(sorted(commands)))]))
    files = dict(_files(codec))
    target = draw(st.sampled_from([arg for arg in argv if arg in files]))
    op = draw(st.sampled_from(_OPS))
    i, j = draw(st.integers(0, 2**16)), draw(st.integers(0, 2**16))
    byte = draw(st.integers(0, 255))
    by_cell = target.endswith(".csv") and draw(st.booleans())
    files[target] = (_mutate_cells if by_cell else _mutate_bytes)(files[target], op, i, j, byte)
    return argv, files, target


def _run(argv, files, workdir: Path):
    for name, raw in files.items():
        (workdir / name).write_bytes(raw)
    argv = [str(workdir / arg) if arg in files or arg.startswith(("out.", "fit.", "s.", "cv."))
            else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _unreadable(path: Path, require_energy: bool) -> bool:
    """Whether loading a dataset or parameter file alone fails."""
    try:
        if path.name.startswith("data."):
            load_dataset(path, require_energy=require_energy)
        else:
            load_params(path)
    except DecegyError:
        return True
    return False


#: The CSV columns that hold numbers; any other column holds text (ids, codecs, tags).
_NUMBER_COLUMNS = {
    *BASE_COLUMNS[2:], "E_hat", "E_dec", *(c.value for c in Category),
    *(name for codec in Codec for name in build_feature_set(codec).names),
}


def _reject(constant: str):
    raise ValueError(f"not JSON: {constant}")


def _check_outputs(workdir: Path, inputs) -> None:
    """Every JSON file written parses strictly; every number cell written is a finite float."""
    for path in sorted(workdir.iterdir()):
        if path.name in inputs:
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject)
        elif path.suffix == ".csv":
            header, *rows = csv.reader(io.StringIO(text))
            for row in rows:
                for name, cell in zip(header, row):
                    if name in _NUMBER_COLUMNS and cell:
                        assert math.isfinite(float(cell)), (path.name, name, cell)


#: The words with which an error about an argument's value names the argument.
_ARGUMENT_NAMES = {"--count": "count ", "--k": "k ", "--seed": "seed ",
                   "--sigma": "noise_sigma ", "--streams": "unknown stream id(s): "}


def _names_its_input(message: str, argv, files, workdir: Path) -> bool:
    """Whether an exit-2 message names a file that the command was given, or the argument
    whose value it rejects."""
    if any(str(workdir / arg) in message for arg in argv if arg in files):
        return True
    given = {arg.split("=", 1)[0] for arg in argv}
    return any(message.startswith(f"error: {words}")
               for option, words in _ARGUMENT_NAMES.items() if option in given)


def _ids_in(csv_path: Path) -> list[str]:
    rows = list(csv.reader(csv_path.open(encoding="utf-8", newline="")))
    return [row[0] for row in rows[1:]]


@settings(max_examples=200)
@given(runs())
def test_mutated_inputs_end_in_an_exit_code(run):
    argv, files, target = run
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        rc, _, err = _run(argv, files, workdir)
        assert rc in (0, 1, 2, 3)
        if rc:
            last = err.splitlines()[-1]
            assert last.startswith(("error:", "fit error:", "usage error:"))
            assert rc != 2 or _names_its_input(last, argv, files, workdir), last
            if target != "trace.jsonl":
                path = workdir / target
                named = last.startswith(f"error: {path}: ")
                assert named == _unreadable(path, require_energy=argv[0] != "predict")
        elif argv[0] == "predict":
            dataset = load_dataset(workdir / argv[2], require_energy=False)
            assert _ids_in(workdir / "out.csv") == [rec.stream_id for rec in dataset]
        elif argv[0] == "analyze":
            assert len(_ids_in(workdir / "out.csv")) == 1
        _check_outputs(workdir, files)


_SIGMAS = ("0", "0.05", "2.5", "-1", "-0.0", "nan", "-nan", "inf", "1e308", "5e-324", "x")
#: Sizes far past any dataset here; every command rejects them before allocating anything.
_HUGE = (MAX_SYNTH_COUNT + 1, 10**12, 2**63, 10**40)


def _seeds():
    return st.one_of(st.integers(-3, 50), st.sampled_from((2**63, 10**40, -(10**40))))


@st.composite
def argument_runs(draw):
    """(argv, files): one command on valid input files, with drawn argument values."""
    codec = draw(st.sampled_from(list(Codec)))
    data = draw(st.sampled_from(["data.csv", "data.json", "wide.csv"]))
    feature = draw(st.sampled_from(["feature.json", "wide.json"]))
    command = draw(st.sampled_from(["synth", "fit", "crossval", "predict", "report"]))
    if command == "synth":
        count = draw(st.one_of(st.integers(1, 8), st.integers(-2, 0), st.sampled_from(_HUGE)))
        argv = ["synth", "--codec", codec.value, "--count", str(count),
                f"--sigma={draw(st.sampled_from(_SIGMAS[:5] + _SIGMAS))}",
                "--seed", str(draw(_seeds())),
                *(["--params", feature] if draw(st.booleans()) else []), "--out", "s.csv"]
    elif command in ("fit", "crossval"):
        model = draw(st.sampled_from(["feature", "feature", "hl1", "hl2", "nnls"]))
        argv = [command, "--dataset", data, "--model", model]
        argv += ["--nonneg"] if draw(st.booleans()) else []
        if command == "fit":
            argv += ["--out", "fit.json"]
        else:
            k = draw(st.one_of(st.integers(2, 6), st.integers(-2, 8), st.sampled_from(_HUGE)))
            argv += ["--k", str(k), "--seed", str(draw(_seeds())), "--out", "cv.json"]
    elif command == "predict":
        params = draw(st.sampled_from([feature, "hl1.json", "hl2.json"]))
        argv = ["predict", "--dataset", data, "--params", params, "--out", "out.csv"]
    else:
        ids = [f"synth-{codec.value}-{i:04d}" for i in range(6)]
        some = st.lists(st.sampled_from([*ids, "", "nope"]), max_size=3).map(",".join)
        streams = draw(st.lists(st.one_of(st.sampled_from(ids), some), max_size=3))
        argv = ["report", "--dataset", data, "--params", feature, "--out", "out.csv",
                "--svg", "out.svg", *(arg for s in streams for arg in ("--streams", s))]
    return argv, _files(codec)


@settings(max_examples=300)
@given(argument_runs())
def test_drawn_arguments_end_in_an_exit_code_and_strict_outputs(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        rc, _, err = _run(argv, files, workdir)
        assert rc in (0, 1, 2, 3)
        if rc:
            last = err.splitlines()[-1]
            assert last.startswith(("error:", "fit error:", "usage error:"))
            read_a_file = any(arg in files for arg in argv)  # synth reads none without --params
            assert rc != 2 or not read_a_file or _names_its_input(last, argv, files, workdir), last
        _check_outputs(workdir, files)
