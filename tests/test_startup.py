"""Modules each command loads, each run in a fresh interpreter, and what runs where numpy
or scipy cannot be imported.

No command, and not ``--help``, loads scipy or the ``xml.sax``/``urllib.request``
chain; the fitting commands solve with numpy alone, so they also run where
scipy cannot be imported.  ``--help``, ``analyze``, ``predict`` (of every model)
and ``report`` do not load numpy, through the console script's
``decegy.cli:main`` or ``python -m decegy``, and run where numpy cannot be
imported, with the same output and files.  So do ``predict`` and ``report --svg`` for
each codec, of a dataset that ``synth --sigma 0.9`` drew (some rows' noise is drawn
again) with the parameters that ``fit`` found for it.  Where numpy cannot be imported,
``predict`` of a JSON dataset with mixed tag keys exits 2 and writes no CSV, and a
loaded CSV dataset survives a pickle round trip and a deep copy and equals both the
dataset of its records and its JSON export loaded back.  Only ``analyze`` loads
``decegy.trace``, only ``report --svg`` loads ``html``, only ``synth`` loads
``numpy.random``, and no command loads ``numpy.ma`` or ``dataclasses``; ``--help``,
``analyze``, ``predict`` and ``report`` do not load ``inspect`` either (numpy, which the
other commands load, does).  The package serves its public names lazily.

Each subprocess runs ``sys.executable`` with the directory ``decegy`` was imported from
on its path, so under an interpreter where ``pip install .`` put numpy as the only
dependency, the module checks the installed package there.
"""

import argparse
import functools
import importlib
import json
import os
import subprocess
import sys
from itertools import cycle
from pathlib import Path

import pytest

import decegy
from decegy import cli, evaluation, models
from decegy import (
    Codec,
    HL1Params,
    HL2Params,
    SynthSpec,
    default_specific_energies,
    export_dataset,
    save_params,
    synth_dataset,
)

HEAVY = ("scipy", "xml.sax", "urllib.request")

_PROBE = """
import sys
from decegy.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(rc)
print(" ".join(sorted(sys.modules)))
"""


# the same through python -m decegy, which runs decegy/__main__.py
_MODULE_PROBE = """
import runpy
import sys
rc = 0
try:
    runpy.run_module("decegy", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
print(rc)
print(" ".join(sorted(sys.modules)))
"""

_ENV = dict(os.environ, PYTHONPATH=str(Path(decegy.__file__).parents[1]))


def _run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=_ENV, capture_output=True, text=True)


def _loaded_modules(args, cwd, probe) -> set[str]:
    done = _run([sys.executable, "-c", probe, *args], cwd)
    assert done.returncode == 0, done.stderr
    rc, modules = done.stdout.splitlines()[-2:]
    assert rc == "0", done.stderr
    return set(modules.split())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    (root / "t.jsonl").write_text(
        "\n".join(json.dumps(e) for e in [{"codec": "hevc"}, {"event": "frame_start"},
                                          {"event": "intra", "w": 8, "h": 8}]) + "\n",
        encoding="utf-8",
    )
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 12, seed=3))
    export_dataset(dataset, root / "d.csv")
    export_dataset(dataset, root / "mixed.json")
    doc = json.loads((root / "mixed.json").read_text(encoding="utf-8"))
    for record, tags in zip(doc["records"], cycle([{"qp": "1"}, {}, {"qp": 32}])):
        record["tags"] = tags
    (root / "mixed.json").write_text(json.dumps(doc), encoding="utf-8")
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, root / "p.json")
    save_params(HL1Params(0.4, 2.1e-8, 1.3e-7, 0.7), Codec.HEVC, root / "hl1.json")
    save_params(HL2Params(2e-9, 5e-8, 3e-9, 1e-8), Codec.HEVC, root / "hl2.json")
    for codec in Codec:
        events = [{"event": "frame_start"}, {"event": "intra", "w": 16, "h": 8},
                  {"event": "inter", "w": 8, "h": 8, "bipred": True, "frac_h": True},
                  {"event": "transform", "w": 8, "h": 8},
                  {"event": "coeff", "value": -5, "bits": 7,
                   **({"entropy": "cabac"} if codec is Codec.H264 else {})}]
        events += [{"event": "sao"}] if codec is Codec.HEVC else []
        lines = [{"codec": codec.value, "stream_id": f"s-{codec.value}"}, *events, *events]
        (root / f"{codec.value}.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        data, params = str(root / f"{codec.value}.csv"), str(root / f"{codec.value}.json")
        assert cli.main(["synth", "--codec", codec.value, "--count", "200", "--sigma", "0.9",
                         "--out", data]) == 0
        assert cli.main(["fit", "--dataset", data, "--out", params]) == 0
    return root


_MODELS = (["feature"], ["feature", "--nonneg"], ["hl1"], ["hl2"])

#: One run of each command, with and without the chart, and every model of fit and crossval.
_EVERY_COMMAND = [
    ["--help"],
    ["analyze", "t.jsonl", "--out", "a.csv"],
    ["synth", "--codec", "hevc", "--count", "5", "--sigma", "0.05", "--out", "s.csv"],
    *(["fit", "--dataset", "d.csv", "--model", *model, "--out", "f.json"] for model in _MODELS),
    *(["crossval", "--dataset", "d.csv", "--k", "3", "--model", *model, "--out", "c.json"]
      for model in _MODELS),
    ["predict", "--dataset", "d.csv", "--params", "hl1.json", "--out", "e.csv"],
    ["report", "--dataset", "d.csv", "--params", "p.json", "--out", "r.csv"],
    ["report", "--dataset", "d.csv", "--params", "p.json", "--svg", "r.svg", "--out", "r.csv"],
]

#: predict and report, each to files and to standard output.
_PREDICT_AND_REPORT = [
    ["predict", "--dataset", "d.csv", "--params", "p.json", "--out", "e.csv"],
    ["predict", "--dataset", "d.csv", "--params", "p.json"],
    ["predict", "--dataset", "d.csv", "--params", "hl1.json", "--out", "e1.csv"],
    ["predict", "--dataset", "d.csv", "--params", "hl2.json"],
    ["report", "--dataset", "d.csv", "--params", "p.json", "--svg", "r.svg", "--out", "r.csv"],
    ["report", "--dataset", "d.csv", "--params", "p.json", "--streams", "synth-hevc-0003"],
]


def _command_id(args) -> str:
    return " ".join(a.lstrip("-") for a in args if a in ("--help", "--nonneg", "--svg")
                    or a.isalnum() and not a.isdigit())


def _label(args) -> str:
    output = "out" if "--out" in args else "stdout"
    return "-".join([args[0], args[4].removesuffix(".json"), output])


#: Every command that a probe runs, each once.
_PROBED = [*_EVERY_COMMAND, *(a for a in _PREDICT_AND_REPORT if a not in _EVERY_COMMAND)]
_PROBED_IDS = [_command_id(args) if args in _EVERY_COMMAND else _label(args) for args in _PROBED]


@pytest.fixture(scope="module")
def modules_of(inputs):
    """The modules that a probe (``_PROBE`` or ``_MODULE_PROBE``) running a command (a
    tuple of arguments) finds loaded at its end, each pair run once."""
    return functools.cache(lambda probe, args: _loaded_modules(args, inputs, probe))


@pytest.mark.parametrize("args", _PROBED, ids=_PROBED_IDS)
def test_commands_start_without_scipy(modules_of, args):
    modules = modules_of(_PROBE, tuple(args))
    assert not [m for m in modules if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))]


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from decegy.cli import main
for command in ("fit", "crossval"):
    for model in (["feature"], ["feature", "--nonneg"], ["hl1"], ["hl2"]):
        argv = [command, "--dataset", "d.csv", "--model", *model, "--out", "o.json"]
        if command == "crossval":
            argv += ["--k", "3"]
        print(" ".join(argv), main(argv))
"""


def test_fit_and_crossval_run_every_model_where_scipy_cannot_be_imported(inputs):
    done = _run([sys.executable, "-c", _WITHOUT_SCIPY], inputs)
    assert done.returncode == 0, done.stderr
    runs = [line for line in done.stdout.splitlines() if line.startswith(("fit ", "crossval "))]
    assert len(runs) == 8, done.stdout + done.stderr
    assert all(line.endswith(" 0") for line in runs), done.stdout + done.stderr


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=_command_id)
def test_only_analyze_loads_the_trace_layer(modules_of, args):
    assert ("decegy.trace" in modules_of(_PROBE, tuple(args))) == (args[0] == "analyze")


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=_command_id)
def test_only_report_with_a_chart_loads_html(modules_of, args):
    assert ("html" in modules_of(_PROBE, tuple(args))) == ("--svg" in args)


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=_command_id)
def test_no_command_loads_numpy_ma(modules_of, args):
    assert "numpy.ma" not in modules_of(_PROBE, tuple(args))


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=_command_id)
def test_only_synth_loads_numpy_random(modules_of, args):
    """crossval deals its folds without it."""
    assert ("numpy.random" in modules_of(_PROBE, tuple(args))) == (args[0] == "synth")


@pytest.mark.parametrize("probe", [_PROBE, _MODULE_PROBE], ids=["console_script", "python_m"])
@pytest.mark.parametrize("args", _EVERY_COMMAND[:2], ids=["help", "analyze"])
def test_help_and_analyze_start_without_numpy(modules_of, args, probe):
    assert "numpy" not in modules_of(probe, tuple(args))


@pytest.mark.parametrize("probe", [_PROBE, _MODULE_PROBE], ids=["console_script", "python_m"])
@pytest.mark.parametrize("args", _PREDICT_AND_REPORT, ids=_label)
def test_predict_and_report_start_without_numpy(modules_of, args, probe):
    assert "numpy" not in modules_of(probe, tuple(args))


@pytest.mark.parametrize(
    "args", [*_EVERY_COMMAND[:2], *_PREDICT_AND_REPORT],
    ids=[*map(_command_id, _EVERY_COMMAND[:2]), *map(_label, _PREDICT_AND_REPORT)],
)
def test_help_and_analyze_load_neither_dataclasses_nor_inspect(modules_of, args):
    """Nor do predict (of every model) and report, with and without a chart."""
    assert not {"dataclasses", "inspect"} & modules_of(_PROBE, tuple(args))


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=_command_id)
def test_no_command_loads_dataclasses(modules_of, args):
    assert "dataclasses" not in modules_of(_PROBE, tuple(args))


_WITHOUT_NUMPY_COMMANDS = [["--help"], *(["analyze", f"{c.value}.jsonl"] for c in Codec)]

#: For each codec, predict and report with a chart, of the dataset that the inputs drew at
#: sigma 0.9 with the parameters fitted to it.
_PER_CODEC = [
    [command, "--dataset", f"{c.value}.csv", "--params", f"{c.value}.json", *outputs]
    for c in Codec
    for command, outputs in (("predict", ["--out", "e.csv"]),
                             ("report", ["--out", "r.csv", "--svg", "r.svg"]))
]

_MIXED_TAGS = ["predict", "--dataset", "mixed.json", "--params", "p.json", "--out", "mixed.csv"]

#: Runs each command of the JSON list in its second argument, where numpy cannot be imported
#: if its first is "blocked", and prints as JSON, for each in turn, the exit code (or the
#: traceback that ended it), standard output and error, and the text of the files it wrote of
#: those named after --out or --svg.
_RUN_EACH = """
import contextlib, io, json, os, sys, traceback
from pathlib import Path
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now fails
runs = []
for args in json.loads(sys.argv[2]):
    named = [args[i + 1] for i, arg in enumerate(args) if arg in ("--out", "--svg")]
    for name in filter(os.path.exists, named):
        os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            from decegy.cli import main  # an import that fails fails each command
            rc = main(args)
        except SystemExit as exc:  # --help
            rc = exc.code
        except Exception:
            rc = traceback.format_exc()
    written = {name: Path(name).read_bytes().decode() for name in filter(os.path.exists, named)}
    runs.append([rc, out.getvalue(), err.getvalue(), written])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def runs(inputs):
    """For "blocked" (numpy cannot be imported) and "normal", each in one process: by the
    command, its exit code, standard output and error, and the files it wrote."""
    commands = [*_WITHOUT_NUMPY_COMMANDS, *_PREDICT_AND_REPORT, *_PER_CODEC, _MIXED_TAGS]
    by_way = {}
    for way in ("blocked", "normal"):
        done = _run([sys.executable, "-c", _RUN_EACH, way, json.dumps(commands)], inputs)
        assert (done.returncode, done.stderr) == (0, "")
        by_way[way] = dict(zip(map(tuple, commands), json.loads(done.stdout), strict=True))
    return by_way


@pytest.mark.parametrize("args", _WITHOUT_NUMPY_COMMANDS, ids=lambda args: " ".join(args))
def test_help_and_analyze_run_where_numpy_cannot_be_imported(runs, args):
    rc, stdout, stderr, _ = blocked = runs["blocked"][tuple(args)]
    assert (rc, stderr) == (0, "")
    assert blocked == runs["normal"][tuple(args)]
    assert stdout.startswith("usage: decegy" if args == ["--help"] else "stream_id,")


@pytest.mark.parametrize("args", [*_PREDICT_AND_REPORT, *_PER_CODEC], ids=_label)
def test_predict_and_report_run_where_numpy_cannot_be_imported(runs, args):
    rc, stdout, stderr, written = blocked = runs["blocked"][tuple(args)]
    assert (rc, stderr) == (0, "")
    assert blocked == runs["normal"][tuple(args)]
    assert set(written) == {args[i + 1] for i, arg in enumerate(args) if arg in ("--out", "--svg")}
    assert stdout.startswith(("predicted", "reported", "stream_id,"))


def test_predict_of_mixed_tag_keys_exits_2_where_numpy_cannot_be_imported(runs):
    """And writes no CSV."""
    message = ("error: mixed.csv: a CSV file cannot hold the tag 'qp', which is missing from "
               "some rows\n")
    assert runs["blocked"][tuple(_MIXED_TAGS)] == [2, "", message, {}]
    assert runs["normal"][tuple(_MIXED_TAGS)] == [2, "", message, {}]


_ROUND_TRIPS = """
import copy, pickle, sys
sys.modules["numpy"] = None  # any import of numpy now fails
from decegy.dataset import Dataset, export_dataset, load_dataset
for name in sys.argv[1:]:
    dataset = load_dataset(name)
    export_dataset(dataset, "export.json")
    print(name, len(dataset), pickle.loads(pickle.dumps(dataset)) == dataset,
          copy.deepcopy(dataset) == dataset, Dataset(dataset.records) == dataset,
          load_dataset("export.json") == dataset)
"""


def test_a_loaded_dataset_round_trips_where_numpy_cannot_be_imported(inputs):
    """Through pickle, a deep copy, its records and its JSON export."""
    names = {"d.csv": 12, **{f"{c.value}.csv": 200 for c in Codec}}
    done = _run([sys.executable, "-c", _ROUND_TRIPS, *names], inputs)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [f"{name} {n} True True True True"
                                        for name, n in names.items()]


#: Every name decegy/__init__.py imported from its modules when it loaded them all at once.
OLD_EXPORTS = {
    "dataset": ("BitstreamRecord", "Dataset", "SynthSpec", "default_count_ranges",
                "default_specific_energies", "export_dataset", "load_dataset", "synth_dataset"),
    "errors": ("DataValidationError", "DecegyError", "FitError", "IllegalEventError",
               "TraceParseError"),
    "evaluation": ("BreakdownRow", "CVReport", "FoldPartition", "breakdown_csv",
                   "breakdown_report", "breakdown_svg", "cross_validate", "make_folds",
                   "mean_relative_error"),
    "fitting": ("CollinearityWarning", "FitDiagnostics", "LinearSystem", "TrustRegionOptions",
                "feature_linear_system", "fit_hl1", "fit_hl2", "fit_linear_ls",
                "fit_trust_region", "hl1_residuals_jacobian"),
    "models": ("HL1Params", "HL2Params", "HighLevelInfo", "SpecificEnergies",
               "category_breakdown", "load_params", "params_from_json", "params_to_json",
               "predict_feature_model", "predict_hl1", "predict_hl2", "save_params"),
    "taxonomy": ("BLOCK_SIZES", "Category", "Codec", "EntropyMode", "FeatureId", "FeatureSet",
                 "FeatureVector", "Kind", "build_feature_set", "counted_sizes",
                 "feature_category", "validate_vector"),
    "trace": ("Coefficient", "DecodeTrace", "FrameStart", "InterBlock", "IntraBlock",
              "SaoBlock", "TransformBlock", "analyze", "coeff_value_contribution",
              "map_inter_block", "parse_trace", "pel_and_frac_counts"),
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in OLD_EXPORTS.items() for n in names],
    ids=lambda value: value,
)
def test_every_old_public_name_imports_from_the_package(module, name):
    namespace = {}
    exec(f"from decegy import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"decegy.{module}"), name)


def test_all_lists_exactly_the_old_public_names():
    expected = [name for names in OLD_EXPORTS.values() for name in names]
    assert sorted(decegy.__all__) == sorted(expected)
    assert len(set(decegy.__all__)) == len(decegy.__all__)
    assert set(decegy.__all__) <= set(dir(decegy))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        decegy.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name  # noqa: B018


def test_model_choices_are_the_model_table_keys():
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    for command in ("fit", "crossval"):
        model = next(a for a in commands.choices[command]._actions if a.dest == "model")
        assert tuple(model.choices) == tuple(evaluation.MODELS) == tuple(models.PARAMS_TYPES)
        assert model.default == next(iter(evaluation.MODELS))


_WRAPPED_BEFORE_FIRST_USE = """
import decegy.cli as cli
calls = []
original = cli.load_dataset  # binds the dataset names in the module
cli.load_dataset = lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
print(cli.main(["fit", "--dataset", "d.csv", "--out", "f.json"]), len(calls))
"""


def test_a_wrapper_on_a_lazily_bound_cli_name_stays_bound_and_sees_the_call(inputs):
    done = _run([sys.executable, "-c", _WRAPPED_BEFORE_FIRST_USE], inputs)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1"


#: The names of decegy.cli that bench/spans.py wraps, by the module they come from.
SPAN_NAMES = {
    "trace": ("parse_trace", "analyze"),
    "dataset": ("load_dataset", "synth_dataset", "export_dataset", "dataset_to_csv"),
    "fitting": ("feature_linear_system", "fit_linear_ls", "fit_hl1", "fit_hl2"),
    "models": ("predict_feature_model", "predict_hl1", "predict_hl2"),
    "evaluation": ("cross_validate", "breakdown_report", "breakdown_csv", "breakdown_svg",
                   "MODELS"),
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in SPAN_NAMES.items() for n in names],
    ids=lambda value: value,
)
def test_cli_serves_each_name_the_span_tracer_wraps(module, name):
    assert getattr(cli, name) is getattr(importlib.import_module(f"decegy.{module}"), name)
