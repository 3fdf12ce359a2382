"""Modules each command loads, each run in a fresh interpreter.

No command, and not ``--help``, loads scipy or the ``xml.sax``/``urllib.request``
chain; the fitting commands solve with numpy alone, so they also run where
scipy cannot be imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import decegy
from decegy import (
    Codec,
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


def _loaded_modules(args, cwd) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(decegy.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
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
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 12, seed=3)), root / "d.csv")
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, root / "p.json")
    return root


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["analyze", "t.jsonl", "--out", "a.csv"],
        ["synth", "--codec", "vp9", "--count", "5", "--out", "s.csv"],
        ["predict", "--dataset", "d.csv", "--params", "p.json", "--out", "e.csv"],
        ["report", "--dataset", "d.csv", "--params", "p.json", "--svg", "r.svg", "--out", "r.csv"],
        ["fit", "--dataset", "d.csv", "--out", "f.json"],
        ["crossval", "--dataset", "d.csv", "--k", "3", "--out", "c.json"],
    ],
    ids=lambda args: args[0].lstrip("-"),
)
def test_commands_start_without_scipy(inputs, args):
    modules = _loaded_modules(args, inputs)
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
    env = dict(os.environ, PYTHONPATH=str(Path(decegy.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        cwd=inputs, env=env, capture_output=True, text=True, check=True,
    )
    runs = [line for line in done.stdout.splitlines() if line.startswith(("fit ", "crossval "))]
    assert len(runs) == 8, done.stdout + done.stderr
    assert all(line.endswith(" 0") for line in runs), done.stdout + done.stderr
