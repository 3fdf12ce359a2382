"""End-to-end command-line behavior and exit codes."""

import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import decegy
from decegy import (
    Codec,
    HL2Params,
    SpecificEnergies,
    SynthSpec,
    build_feature_set,
    default_specific_energies,
    export_dataset,
    load_dataset,
    predict_feature_model,
    save_params,
    synth_dataset,
)
from decegy.cli import main
from decegy.dataset import BitstreamRecord, Dataset, dataset_to_csv
from decegy.taxonomy import FeatureVector
from util import replace

_OVERFLOW = "estimated energy overflows the float range"

HEVC = build_feature_set(Codec.HEVC)


def _write_trace(path, codec="hevc", stream_id=None, events=()):
    lines = []
    header = {"codec": codec}
    if stream_id:
        header["stream_id"] = stream_id
    lines.append(json.dumps(header))
    lines.extend(json.dumps(ev) for ev in events)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_empty_trace_yields_offset_only_row(tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("", encoding="utf-8")
    out = tmp_path / "features.csv"
    rc = main(["analyze", str(trace), "--codec", "hevc", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    header = lines[0].split(",")
    counts = {name: cells[i] for i, name in enumerate(header)}
    assert counts["e0"] == "1.0"
    assert all(counts[n] == "0.0" for n in HEVC.names if n != "e0")


def test_analyze_multiple_traces_keeps_input_order(tmp_path):
    paths = []
    for i in range(3):
        p = tmp_path / f"t{i}.jsonl"
        _write_trace(
            p,
            stream_id=f"stream-{i}",
            events=[{"event": "frame_start"}] * (i + 1),
        )
        paths.append(str(p))
    out = tmp_path / "features.csv"
    assert main(["analyze", *paths, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "stream-0",
        "stream-1",
        "stream-2",
    ]
    frame_col = lines[0].split(",").index("frame")
    assert [line.split(",")[frame_col] for line in lines[1:]] == ["1.0", "2.0", "3.0"]


def test_analyze_mixed_codecs_exits_with_data_error(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _write_trace(a, codec="hevc")
    _write_trace(b, codec="vp9")
    rc = main(["analyze", str(a), str(b), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "mixed codecs" in capsys.readouterr().err


def test_analyze_duplicate_stream_ids_exit_2(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    traces = [tmp_path / "a" / "x.jsonl", tmp_path / "b" / "x.jsonl"]
    for path in traces:
        _write_trace(path, events=[{"event": "frame_start"}])
    out = tmp_path / "x.csv"
    assert main(["analyze", *map(str, traces), "--out", str(out)]) == 2
    assert "duplicate stream_id 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_duplicate_stream_id_names_the_repeating_and_the_first_file(tmp_path, capsys):
    paths = [tmp_path / d / "t.jsonl" for d in ("a", "b", "c")]
    for path in paths:
        path.parent.mkdir()
        path.write_text('{"event": "frame_start"}\n', encoding="utf-8")
    assert main(["analyze", *map(str, paths), "--codec", "hevc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {paths[1]}: duplicate stream_id 't' (first in {paths[0]})\n"


def test_analyze_reports_a_bad_trace_before_an_earlier_duplicate_id(tmp_path, capsys):
    a, b, bad = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "bad.jsonl"
    _write_trace(a, stream_id="x")
    _write_trace(b, stream_id="x")
    bad.write_text('{"codec": "hevc"}\n{"event": "teleport"}\n', encoding="utf-8")
    assert main(["analyze", str(a), str(b), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: ") and "duplicate" not in err


def test_analyze_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"coeff","value":0,"bits":3}\n',
        encoding="utf-8",
    )
    rc = main(["analyze", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.jsonl" in err and "line 3" in err and "zero coefficient" in err
    bad.write_text('{"codec":"hevc"}\n{"event":"frame_start"}\n{"codec":"hevc"}\n')
    assert main(["analyze", str(bad)]) == 2
    message = "missing 'event' field (a header line is only allowed first)"
    assert capsys.readouterr().err == f"error: {bad}: line 3: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"event":"coeff","value":3,"bits":1' + "0" * 400 + "}", "field 'bits' too large"),
        ('{"event":"coeff","value":1' + "0" * 5000 + ',"bits":3}', "unreadable number"),
        ("[" * 100_000, "malformed JSON: nested too deeply"),
    ],
    ids=["huge-bits", "over-long-integer", "deep-nesting"],
)
def test_analyze_unreadable_numbers_name_file_and_line(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"codec":"vp9"}\n{"event":"frame_start"}\n' + line + "\n", encoding="utf-8")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 3: {message}")


def test_analyze_non_utf8_trace_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"sao"}\xff\n')
    assert main(["analyze", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 3: not valid UTF-8: byte 0xff at column 16\n"


def test_analyze_codec_mismatch_names_the_header_line(tmp_path, capsys):
    trace = tmp_path / "h.jsonl"
    trace.write_text('\n\n{"stream_id":"x","codec":"hevc"}\n{"event":"frame_start"}\n')
    assert main(["analyze", str(trace), "--codec", "vp9"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {trace}: line 3: codec mismatch: header says hevc, caller says vp9\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("last", ['{"event":"sao"}', '{"event":"zap"}'], ids=["valid", "bad"])
def test_analyze_reads_a_pipe_once(tmp_path, capsys, last):
    fifo = tmp_path / "t.jsonl"
    os.mkfifo(fifo)
    text = '{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"sao"}\n' + last + "\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    rc = main(["analyze", str(fifo)])
    writer.join()
    captured = capsys.readouterr()
    if last == '{"event":"sao"}':
        assert rc == 0 and captured.out.splitlines()[1].startswith("t,hevc,")
        assert ",2.0" in captured.out  # both sao events
    else:
        assert rc == 2 and captured.err == f"error: {fifo}: line 4: unknown event name 'zap'\n"


def test_analyze_is_idempotent(tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, events=[{"event": "frame_start"}, {"event": "sao"}])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analyze", str(trace), "--out", str(out1)]) == 0
    assert main(["analyze", str(trace), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_writes_ids_that_need_quoting_as_the_dataset_writer_does(tmp_path):
    """Ids from file stems and a header that CSV must quote, and a header-less trace under
    --codec: the output loads back to the same ids and is written again byte for byte."""
    note = json.dumps({"event": "sao", "note": "a\x85b\u2028c\x0cd"}, ensure_ascii=False)
    header_id = 'a "b", c\nd\r\u00e9'
    texts = {
        "s,1": '\n{"event": "frame_start"}\r\n{"event": "intra", "w": 8, "h": 8}\n',
        'q"': '{"codec": "hevc"}\n{"event": "frame_start"}\n' + note + "\n",
        "t": json.dumps({"codec": "hevc", "stream_id": header_id}) + '\n{"event": "frame_start"}',
    }
    paths = []
    for stem, text in texts.items():
        paths.append(tmp_path / f"{stem}.jsonl")
        paths[-1].write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "features.csv"
    assert main(["analyze", *map(str, paths), "--codec", "hevc", "--out", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    dataset = load_dataset(out, require_energy=False)
    assert dataset.ids == ("s,1", 'q"', header_id)
    assert [dataset.get(i).features["sao"] for i in dataset.ids] == [0.0, 1.0, 0.0]
    assert dataset_to_csv(dataset) == text


# ---------------------------------------------------------------------------
# fit / predict


def test_fit_recovers_generator_parameters(tmp_path):
    data = tmp_path / "data.csv"
    params_out = tmp_path / "params.json"
    assert main(["synth", "--codec", "hevc", "--count", "150", "--seed", "4", "--out", str(data)]) == 0
    assert main(["fit", "--dataset", str(data), "--model", "feature", "--out", str(params_out)]) == 0
    doc = json.loads(params_out.read_text())
    true = default_specific_energies(Codec.HEVC).as_dict()
    for name, value in doc["specific_energies"].items():
        assert value == pytest.approx(true[name], rel=1e-9)
    assert doc["diagnostics"]["residual_norm"] < 1e-9


def test_fit_hl1_underdetermined_exits_3(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    rc = main(["fit", "--dataset", str(data), "--model", "hl1"])
    assert rc == 3
    assert "under-determined" in capsys.readouterr().err


def test_fit_nonneg_clamps_and_reports_kkt(tmp_path, capsys):
    rng = np.random.default_rng(3)
    fs = build_feature_set(Codec.H263)
    true = default_specific_energies(Codec.H263).as_dict()
    true["val"] = -2e-8  # implies a negative coefficient in the free fit
    energies = SpecificEnergies.from_dict(fs, true)
    records = []
    for i in range(60):
        counts = np.concatenate([[1.0], rng.uniform(10, 1e5, size=10)])
        vector = FeatureVector(fs, counts)
        records.append(
            BitstreamRecord(
                stream_id=f"r{i}",
                codec=Codec.H263,
                features=vector,
                energy_joules=predict_feature_model(energies, vector),
            )
        )
    data = tmp_path / "neg.csv"
    export_dataset(Dataset(tuple(records)), data)
    params_out = tmp_path / "p.json"
    rc = main(
        ["fit", "--dataset", str(data), "--nonneg", "--out", str(params_out)]
    )
    assert rc == 0
    doc = json.loads(params_out.read_text())
    assert doc["specific_energies"]["val"] == 0.0
    clamped = [c["label"] for c in doc["diagnostics"]["kkt"]["clamped"]]
    assert "val" in clamped
    assert "clamped at zero" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fit", "crossval"])
@pytest.mark.parametrize("model", ["hl1", "hl2"])
def test_nonneg_with_an_hl_model_is_a_usage_error(tmp_path, capsys, command, model):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 40, seed=1)), data)
    out = tmp_path / "out.json"
    rc = main([command, "--dataset", str(data), "--model", model, "--nonneg", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"usage error: --nonneg applies to the feature model only, not {model}\n"
    )
    assert captured.out == "" and not out.exists()


def test_predict_reproduces_noiseless_energies_exactly(tmp_path):
    data = tmp_path / "data.csv"
    pred = tmp_path / "pred.csv"
    true_params = tmp_path / "true.json"
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, true_params)
    assert main(["synth", "--codec", "hevc", "--count", "40", "--seed", "2", "--out", str(data)]) == 0
    assert main(["predict", "--dataset", str(data), "--params", str(true_params), "--out", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    header = lines[0].split(",")
    assert header[-1] == "E_hat"
    energy_col = header.index("energy_joules")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == cells[energy_col]


def test_predict_with_high_level_params(tmp_path):
    data = tmp_path / "data.csv"
    params = tmp_path / "hl1.json"
    pred = tmp_path / "pred.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 30, seed=6)), data)
    assert main(["fit", "--dataset", str(data), "--model", "hl1", "--out", str(params)]) == 0
    assert main(["predict", "--dataset", str(data), "--params", str(params), "--out", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert lines[0].endswith(",E_hat")
    assert all(float(line.split(",")[-1]) > 0 for line in lines[1:])


def test_fit_is_idempotent(tmp_path):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.VP9, 40, noise_sigma=0.02, seed=3)), data)
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(["fit", "--dataset", str(data), "--out", str(p1)]) == 0
    assert main(["fit", "--dataset", str(data), "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_predict_codec_mismatch_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 5, seed=1)), data)
    wrong = tmp_path / "wrong.json"
    save_params(default_specific_energies(Codec.VP9), Codec.VP9, wrong)
    rc = main(["predict", "--dataset", str(data), "--params", str(wrong), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "codec mismatch" in capsys.readouterr().err


def test_predict_keeps_one_row_per_stream_when_tags_hold_newlines(tmp_path):
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 4, seed=3))
    notes = ["plain", "first line\nsecond line", "x", "a,b"]
    tagged = Dataset(tuple(replace(rec, tags={"note": n}) for rec, n in zip(dataset, notes)))
    data, params, pred = tmp_path / "tagged.csv", tmp_path / "true.json", tmp_path / "pred.csv"
    export_dataset(tagged, data)
    energies = default_specific_energies(Codec.HEVC)
    save_params(energies, Codec.HEVC, params)
    assert main(["predict", "--dataset", str(data), "--params", str(params), "--out", str(pred)]) == 0
    with open(pred, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header[-2:] == ["note", "E_hat"]
    assert [row[0] for row in rows] == [rec.stream_id for rec in dataset]
    assert [row[-2] for row in rows] == notes
    for row, rec in zip(rows, dataset):
        assert float(row[-1]) == predict_feature_model(energies, rec.features)


def test_predict_of_its_own_output_writes_one_estimate_column(tmp_path, capsys):
    """The second run's E_hat replaces the first one's, so what it writes loads again."""
    data, params = _hevc_files(tmp_path, count=4)
    doubled = tmp_path / "doubled.json"
    energies = SpecificEnergies(HEVC, [2 * e for e in default_specific_energies(Codec.HEVC).floats])
    save_params(energies, Codec.HEVC, doubled)
    first, second = tmp_path / "e1.csv", tmp_path / "e2.csv"
    for dataset, values, out in ((data, params, first), (first, doubled, second)):
        argv = ["predict", "--dataset", str(dataset), "--params", str(values), "--out", str(out)]
        assert main(argv) == 0
    with open(second, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header.count("E_hat") == 1 and header[-1] == "E_hat"
    expected = [predict_feature_model(energies, rec.features) for rec in load_dataset(data)]
    assert [float(row[-1]) for row in rows] == expected
    assert main(["fit", "--dataset", str(second)]) == 0, capsys.readouterr().err


def test_json_record_that_is_not_an_object_exits_2(tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"codec": "hevc", "records": [1]}))
    assert main(["fit", "--dataset", str(data)]) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "Traceback" not in err


def test_predict_with_malformed_params_exits_2(tmp_path, capsys):
    data, params = tmp_path / "data.csv", tmp_path / "p.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    params.write_text(json.dumps({"model": "hl1", "codec": "hevc", "base_joules": 0.4,
                                  "per_pixel_joules": 1e-8, "rate_coeff": 1e-7, "rate_power": [1]}))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert "'rate_power'" in capsys.readouterr().err


def test_json_metadata_of_wrong_type_exits_2(tmp_path, capsys):
    data = tmp_path / "data.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    doc = json.loads(data.read_text())
    doc["records"][1]["width"] = "abc"
    data.write_text(json.dumps(doc))
    assert main(["fit", "--dataset", str(data)]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "'width'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "value, message",
    [([1], "not a number: [1]"), ("x", "not a number: 'x'"), (True, "not a number: True"),
     (10**400, "too large for a float")],
    ids=["list", "string", "bool", "huge"],
)
def test_json_feature_value_that_is_not_a_number_exits_2(tmp_path, capsys, value, message):
    data = tmp_path / "data.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    doc = json.loads(data.read_text())
    doc["records"][1]["features"]["pel"] = value
    data.write_text(json.dumps(doc))
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 2: 'pel': {message}\n"


# ---------------------------------------------------------------------------
# crossval


def test_crossval_noiseless_prints_zero_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 60, seed=8)), data)
    rc = main(["crossval", "--dataset", str(data), "--model", "feature", "--k", "10", "--seed", "42"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.00%" in out
    assert "feature" in out


def test_crossval_whose_every_fold_fails_exits_3_and_writes_nothing(tmp_path, capsys):
    data, report = tmp_path / "t.csv", tmp_path / "r.json"
    assert main(["synth", "--codec", "hevc", "--count", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    with pytest.warns(UserWarning, match="fold 0 failed"):
        rc = main(["crossval", "--dataset", str(data), "--k", "3", "--model", "hl2",
                   "--out", str(report)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "fit error: every fold failed\n"
    assert "nan" not in captured.out and not report.exists()


def test_crossval_feature_model_beats_hl2_on_feature_generated_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 120, noise_sigma=0.05, seed=6)), data)

    def eps_for(model):
        assert main(["crossval", "--dataset", str(data), "--model", model]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        return float(line.split()[1].rstrip("%"))

    assert eps_for("feature") < eps_for("hl2")


@pytest.mark.parametrize("model", ["hl1", "hl2"])
def test_highlevel_models_without_metadata_exit_2_in_fit_and_crossval(tmp_path, capsys, model):
    records = list(synth_dataset(SynthSpec(Codec.HEVC, 20, seed=2)))
    records[7] = replace(records[7], intra_frames=None)
    data = tmp_path / "partial.csv"
    export_dataset(Dataset(tuple(records)), data)
    for command in (["fit"], ["crossval", "--k", "5"]):
        assert main([*command, "--dataset", str(data), "--model", model]) == 2
        captured = capsys.readouterr()
        assert "'synth-hevc-0007' lacks high-level metadata" in captured.err
        assert "nan" not in captured.out


def test_crossval_reports_are_reproducible(tmp_path):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.VP9, 50, noise_sigma=0.05, seed=5)), data)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["crossval", "--dataset", str(data), "--model", "hl2", "--k", "5", "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# report


def test_report_single_stream_csv_and_svg(tmp_path):
    data = tmp_path / "data.csv"
    params = tmp_path / "params.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 8, seed=3)), data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    out_csv = tmp_path / "breakdown.csv"
    out_svg = tmp_path / "breakdown.svg"
    rc = main(
        [
            "report",
            "--dataset", str(data),
            "--params", str(params),
            "--streams", "synth-hevc-0002",
            "--out", str(out_csv),
            "--svg", str(out_svg),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "stream_id,E_dec,E_hat,OFFSET,INTRA,INTER,TRANS,COEFF,SAO"
    assert len(lines) == 2
    assert lines[1].startswith("synth-hevc-0002,")
    svg = out_svg.read_text()
    assert svg.count('class="bar-measured"') == 1


def test_report_unknown_stream_id_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    params = tmp_path / "params.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 4, seed=3)), data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    rc = main(
        ["report", "--dataset", str(data), "--params", str(params), "--streams", "nope",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "unknown stream id" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", ",", ",,"])
def test_report_streams_value_that_names_no_id_is_a_usage_error(tmp_path, capsys, value):
    data, params = _hevc_files(tmp_path)
    out = tmp_path / "b.csv"
    argv = ["report", "--dataset", str(data), "--params", str(params), "--out", str(out)]
    assert main([*argv, "--streams", "synth-hevc-0001", "--streams", value]) == 1
    assert capsys.readouterr() == ("", f"usage error: --streams {value!r} names no stream id\n")
    assert not out.exists()


def test_report_with_high_level_params_exits_2_and_names_the_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    params = tmp_path / "hl2.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 4, seed=3)), data)
    save_params(HL2Params(1e-9, 1e-9, 1e-9, 1e-9), Codec.HEVC, params)
    assert main(["report", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == (
        f"error: {params}: breakdown reports need feature-model parameters\n"
    )


def test_report_four_codecs_renders_paired_bars(tmp_path):
    args = ["report"]
    for codec in Codec:
        data = tmp_path / f"{codec.value}.csv"
        params = tmp_path / f"{codec.value}.json"
        export_dataset(synth_dataset(SynthSpec(codec, 2, seed=1)), data)
        save_params(default_specific_energies(codec), codec, params)
        args += ["--dataset", str(data), "--params", str(params)]
        args += ["--streams", f"synth-{codec.value}-0000"]
    svg_path = tmp_path / "all.svg"
    args += ["--out", str(tmp_path / "all.csv"), "--svg", str(svg_path)]
    assert main(args) == 0
    svg = svg_path.read_text()
    assert svg.count('class="bar-measured"') == 4


def test_report_csv_reads_back_one_row_per_stream_with_the_exact_ids(tmp_path):
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 3, seed=3))
    ids = ["clip,qp32", 'say "hi"', "two\nlines"]
    renamed = Dataset(tuple(replace(rec, stream_id=i) for rec, i in zip(dataset, ids)))
    data, params, out = tmp_path / "data.csv", tmp_path / "true.json", tmp_path / "b.csv"
    export_dataset(renamed, data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    assert main(["report", "--dataset", str(data), "--params", str(params), "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert [row[0] for row in rows] == ids
    assert all(len(row) == len(header) == 9 for row in rows)


def test_report_streams_value_that_is_a_whole_id_selects_that_id(tmp_path):
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 4, seed=3))
    ids = ["clip,qp32", "clip", "qp32", "other"]
    renamed = Dataset(tuple(replace(rec, stream_id=i) for rec, i in zip(dataset, ids)))
    data, params, out = tmp_path / "data.csv", tmp_path / "true.json", tmp_path / "b.csv"
    export_dataset(renamed, data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    base = ["report", "--dataset", str(data), "--params", str(params), "--out", str(out)]

    def reported(*values):
        streams = [arg for value in values for arg in ("--streams", value)]
        assert main(base + streams) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            return [row[0] for row in list(csv.reader(handle))[1:]]

    assert reported("clip,qp32") == ["clip,qp32"]
    assert reported("other,clip") == ["clip", "other"]  # not an id: a list, as before
    assert reported("clip,qp32", "qp32,other") == ["clip,qp32", "qp32", "other"]


# ---------------------------------------------------------------------------
# synth + misc


def test_synth_is_reproducible_per_seed(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["synth", "--codec", "vp9", "--count", "20", "--sigma", "0.05", "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "codec, hevc_params",
    [("hevc", HL2Params(1e-9, 1e-9, 1e-9, 1e-9)), ("h264", default_specific_energies(Codec.HEVC))],
    ids=["hl2-params", "other-codec"],
)
def test_synth_with_params_it_cannot_use_exits_2_and_names_the_file(
    tmp_path, capsys, codec, hevc_params
):
    params, out = tmp_path / "params.json", tmp_path / "d.csv"
    save_params(hevc_params, Codec.HEVC, params)
    assert main(["synth", "--codec", codec, "--params", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {params}: synth needs feature-model parameters for the codec\n"
    )
    assert not out.exists()


def test_synth_output_loads_cleanly(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["synth", "--codec", "h263", "--count", "10", "--seed", "1", "--out", str(out)]) == 0
    dataset = load_dataset(out)
    assert len(dataset) == 10
    assert dataset.codec is Codec.H263


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["fit"]) == 1  # --dataset missing
    assert main(["crossval", "--dataset", "x.csv", "--model", "nonsense"]) == 1
    assert main(["report", "--dataset", "a.csv", "--dataset", "b.csv", "--params", "p.json"]) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["fit", "--dataset", str(tmp_path / "absent.csv")])
    assert rc == 2


def test_analyze_illegal_event_names_the_trace(tmp_path, capsys):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    _write_trace(good, codec="h263", events=[{"event": "frame_start"}])
    events = [{"event": "frame_start"}, {"event": "intra", "w": 4, "h": 4}]
    _write_trace(bad, codec="h263", events=events)
    assert main(["analyze", str(good), str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: 4x4 block illegal for h263")


def test_analyze_coded_bits_summing_past_the_float_range_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    coeff = {"event": "coeff", "value": 3, "bits": 10**308}
    _write_trace(bad, codec="vp9", events=[{"event": "frame_start"}, coeff, coeff])
    assert main(["analyze", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: val sums past the float range\n"


@pytest.mark.parametrize(
    "fmt, field", [("csv", "width"), ("csv", "file_size_bytes"), ("json", "width")]
)
@pytest.mark.parametrize("model", ["hl1", "hl2"])
def test_metadata_integer_above_2_53_exits_2_with_the_row(tmp_path, capsys, fmt, field, model):
    data = tmp_path / f"data.{fmt}"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 6, seed=1)), data)
    if fmt == "csv":
        rows = list(csv.reader(data.open(encoding="utf-8")))
        rows[2][rows[0].index(field)] = "9" * 400
        with data.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        row = 3  # CSV rows count the header line
    else:
        doc = json.loads(data.read_text())
        doc["records"][1][field] = 10**400
        data.write_text(json.dumps(doc))
        row = 2  # JSON rows count records
    assert main(["fit", "--dataset", str(data), "--model", model]) == 2
    assert capsys.readouterr().err == f"error: {data}: row {row}: {field} must be at most 2**53\n"


def test_deeply_nested_json_files_exit_2(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    data, params = tmp_path / "data.csv", tmp_path / "p.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    assert main(["fit", "--dataset", str(nested)]) == 2
    assert capsys.readouterr().err == f"error: {nested}: malformed JSON: nested too deeply\n"
    assert main(["predict", "--dataset", str(data), "--params", str(nested)]) == 2
    assert capsys.readouterr().err == f"error: {nested}: malformed JSON: nested too deeply\n"


# ---------------------------------------------------------------------------
# input boundary: every bad input ends as a decegy error with exit 2 or 3


def _hevc_files(tmp_path, count=3):
    data, params = tmp_path / "data.json", tmp_path / "p.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, count, seed=1)), data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    return data, params


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize("command", ["fit", "crossval", "predict", "report"])
def test_dataset_file_without_rows_exits_2_and_names_the_file(tmp_path, capsys, command, suffix):
    data, params = _hevc_files(tmp_path)
    empty = tmp_path / f"empty.{suffix}"
    if suffix == "csv":
        export_dataset(load_dataset(data), empty)
        empty.write_text(empty.read_text().splitlines()[0] + "\n")
    else:
        empty.write_text(json.dumps({"codec": "hevc", "records": []}))
    argv = [command, "--dataset", str(empty)]
    if command in ("predict", "report"):
        argv += ["--params", str(params)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {empty}: empty dataset\n"


def test_repeated_csv_column_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.H263, 12, seed=1)), data)
    lines = data.read_text().splitlines()
    data.write_text("\n".join([lines[0] + ",pel"] + [line + ",5" for line in lines[1:]]) + "\n")
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: repeated column 'pel'\n"


def test_blank_csv_lines_do_not_count_as_rows(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.H263, 3, seed=1)), data)
    lines = data.read_text().splitlines()
    lines[2] = lines[2].replace("synth-h263-0001", "")
    data.write_text("\n".join([lines[0], "", lines[1], "", lines[2], lines[3]]) + "\n")
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 3: empty stream_id\n"


def test_huge_integer_in_a_feature_parameter_file_exits_2(tmp_path, capsys):
    data, params = _hevc_files(tmp_path)
    doc = json.loads(params.read_text())
    doc["specific_energies"]["pel"] = "@big@"
    params.write_text(json.dumps(doc).replace('"@big@"', "1" + "0" * 400))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {params}: 'pel': too large for a float\n"


@pytest.mark.parametrize(
    "literal, message",
    [("1" + "0" * 400, "'base_joules': too large for a float"),
     ("NaN", "base_joules must be finite, got nan"),
     ("-Infinity", "base_joules must be finite, got -inf")],
    ids=["huge", "nan", "-inf"],
)
def test_hl1_parameter_file_with_unusable_base_exits_2(tmp_path, capsys, literal, message):
    data, _ = _hevc_files(tmp_path)
    params = tmp_path / "hl1.json"
    params.write_text(f'{{"model": "hl1", "codec": "hevc", "base_joules": {literal}, '
                      '"per_pixel_joules": 1e-8, "rate_coeff": 1e-7, "rate_power": 0.7}')
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {params}: {message}\n"


def test_unknown_feature_in_a_parameter_file_exits_2(tmp_path, capsys):
    data, params = _hevc_files(tmp_path)
    doc = json.loads(params.read_text())
    doc["specific_energies"]["bogus"] = 1.0
    params.write_text(json.dumps(doc))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {params}: unknown features: bogus\n"


@pytest.mark.parametrize(
    "doc, message",
    [({"codec": "hevc"}, "parameter file must carry 'model' and 'codec' fields"),
     ({"model": "hl3", "codec": "hevc"}, "unknown model kind 'hl3'")],
    ids=["no-model", "hl3"],
)
def test_parameter_file_without_a_known_model_exits_2(tmp_path, capsys, doc, message):
    data, _ = _hevc_files(tmp_path)
    params = tmp_path / "model.json"
    params.write_text(json.dumps(doc))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {params}: {message}\n"


def test_csv_row_with_more_intra_frames_than_frames_exits_2_with_the_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 5, seed=1)), data)
    lines = data.read_text().splitlines()
    header, cells = lines[0].split(","), lines[3].split(",")
    cells[header.index("intra_frames")] = str(int(cells[header.index("frames")]) + 1)
    data.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]) + "\n")
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 4: intra_frames exceeds frames\n"


def test_truncated_json_files_report_line_and_column(tmp_path, capsys):
    data, params = _hevc_files(tmp_path)
    short_data, short_params = tmp_path / "short.json", tmp_path / "short-p.json"
    short_data.write_text(data.read_text()[:300])
    short_params.write_text(params.read_text()[:100])
    assert main(["fit", "--dataset", str(short_data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {short_data}: malformed JSON at line 14 column ")
    assert err.count("\n") == 1
    assert main(["predict", "--dataset", str(data), "--params", str(short_params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {short_params}: malformed JSON at line 6 column ")
    assert err.count("\n") == 1


def test_over_long_integer_in_a_dataset_is_unreadable(tmp_path, capsys):
    data, _ = _hevc_files(tmp_path)
    data.write_text(data.read_text().replace('"frames": ', '"frames": 1' + "0" * 5000, 1))
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}: unreadable number: Exceeds the limit")


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_non_utf8_dataset_gives_byte_and_offset(tmp_path, capsys, suffix):
    data = tmp_path / f"data.{suffix}"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    raw = bytearray(data.read_bytes())
    raw[200] = 0xFF
    data.write_bytes(bytes(raw))
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: not valid UTF-8: byte 0xff at offset 200\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["synth", "--codec", "xyz"], "unknown codec 'xyz'; expected one of h263, h264, hevc, vp9"),
     (["synth", "--codec", "hevc", "--count", "0"], "count must be >= 1"),
     (["synth", "--codec", "hevc", "--count", "1000000000000"],
      "count must be <= 1000000, got 1000000000000"),
     (["synth", "--codec", "hevc", "--sigma", "nan"], "noise_sigma must be >= 0"),
     (["synth", "--codec", "hevc", "--count", "3", "--sigma=inf"],
      "noise_sigma must be finite, got inf"),
     (["synth", "--codec", "hevc", "--seed", "-1"], "seed must be >= 0, got -1"),
     (["crossval", "--k", "1"], "k must be >= 2, got 1"),
     (["crossval", "--k", "4"], "{data}: dataset has 3 records, fewer than k=4"),
     (["crossval", "--k", "2", "--seed", "-1"], "seed must be >= 0, got -1")],
    ids=["codec", "count", "count-huge", "sigma-nan", "sigma-inf", "synth-seed", "k-1", "k-above-m",
         "crossval-seed"],
)
def test_bad_command_values_exit_2(tmp_path, capsys, argv, message):
    data, _ = _hevc_files(tmp_path)
    where = ["--out", str(tmp_path / "s.csv")]
    if argv[0] == "crossval":
        where = ["--dataset", str(data)]
    assert main(argv + where) == 2
    assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"


_NOT_A_STRING = "line 2: field 'stream_id' must be a string"
_PADDED = "stream_id has leading or trailing whitespace: ' padded\\t'"


@pytest.mark.parametrize(
    "value, row_error, header_error",
    [('"\\ud800"', "not valid Unicode: '\\ud800'", "not valid Unicode: '\\ud800'"),
     ('" padded\\t"', _PADDED, _PADDED),
     ("null", "'stream_id': not a string: None", _NOT_A_STRING),
     ("5", "'stream_id': not a string: 5", _NOT_A_STRING),
     ('{"a": 1}', "'stream_id': not a string: {'a': 1}", _NOT_A_STRING)],
    ids=["surrogate", "whitespace", "null", "number", "object"],
)
def test_a_bad_stream_id_exits_2(tmp_path, capsys, value, row_error, header_error):
    """The same JSON value as a dataset row's stream id and as a trace header's."""
    data, params = _hevc_files(tmp_path)
    data.write_text(data.read_text().replace('"synth-hevc-0001"', value))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 2: {row_error}\n"
    trace = tmp_path / "t.jsonl"
    trace.write_text(f'\n{{"codec": "vp9", "stream_id": {value}}}\n', encoding="utf-8")
    assert main(["analyze", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: {trace}: {header_error}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_estimates_past_the_float_range_exit_2(tmp_path, capsys):
    data, params = _hevc_files(tmp_path)
    doc = json.loads(data.read_text())
    doc["records"][0]["features"].update(pel=1e10, frac=1e10)
    data.write_text(json.dumps(doc))
    doc = json.loads(params.read_text())
    doc["specific_energies"].update(pel=1e300, frac=-1e300)
    params.write_text(json.dumps(doc))
    assert main(["predict", "--dataset", str(data), "--params", str(params)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 1: {_OVERFLOW}\n"


@pytest.mark.parametrize("command", ["predict", "report"])
def test_an_estimate_that_overflows_to_infinity_exits_2(tmp_path, capsys, command):
    # products of one sign past the float range sum to an infinity, which no fsum rejects
    data, params, out = tmp_path / "data.csv", tmp_path / "params.json", tmp_path / "out.csv"
    assert main(["synth", "--codec", "h264", "--count", "3", "--out", str(data)]) == 0
    rows = list(csv.reader(data.open(encoding="utf-8", newline="")))
    rows[2][rows[0].index("pel")] = "1e300"
    with data.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    save_params(default_specific_energies(Codec.H264), Codec.H264, params)
    doc = json.loads(params.read_text())
    doc["specific_energies"]["pel"] = 1e10
    params.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--dataset", str(data), "--params", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {data}: row 3: {_OVERFLOW}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "params, file_size, row",
    [({"model": "hl1", "base_joules": 0.0, "per_pixel_joules": 0.0, "rate_coeff": 1.0,
       "rate_power": 1e6}, 2**53, 2),
     ({"model": "hl1", "base_joules": 0.0, "per_pixel_joules": 1e308, "rate_coeff": 0.0,
       "rate_power": 1.0}, None, 1),
     ({"model": "hl2", "intra_bytes_coeff": 0.0, "intra_coeff": 0.0, "bytes_coeff": 0.0,
       "base_coeff": 1e308}, None, 1)],
    ids=["hl1-power", "hl1-product", "hl2-product"],
)
def test_highlevel_estimates_past_the_float_range_exit_2(tmp_path, capsys, params, file_size,
                                                         row):
    data, path = _hevc_files(tmp_path)
    if file_size is not None:  # bytes per pixel far above one, raised to the millionth power
        doc = json.loads(data.read_text())
        doc["records"][1]["file_size_bytes"] = file_size
        data.write_text(json.dumps(doc))
    path.write_text(json.dumps({**params, "codec": "hevc"}))
    assert main(["predict", "--dataset", str(data), "--params", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row {row}: {_OVERFLOW}\n"


def test_csv_cell_over_the_field_limit_exits_2_with_the_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    rows = list(csv.reader(data.open(encoding="utf-8")))
    rows[2][0] = "x" * 200_000  # the csv module reads fields of up to 131072 characters

    def fit():
        with data.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        return main(["fit", "--dataset", str(data)])

    assert fit() == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: row 3: field larger than field limit (131072)\n"
    rows[1][rows[0].index("energy_joules")] = "0"  # a bad row before it is reported first
    assert fit() == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: row 2: non-finite or nonpositive energy: 0.0\n"


def test_csv_header_cell_over_the_field_limit_exits_2_as_row_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    data.write_text("x" * 200_000 + "," + data.read_text(), encoding="utf-8")
    assert main(["fit", "--dataset", str(data)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {data}: row 1: field larger than field limit (131072)\n"
    )


def test_each_warning_is_one_line_on_stderr(tmp_path):
    # 8 training rows for 11 features: every fold of a 3-fold crossval is rank-deficient
    fs = build_feature_set(Codec.H263)
    rng = np.random.default_rng(2)  # each fold zeroes other features: no message repeats
    records = [
        BitstreamRecord(f"r{i}", Codec.H263, FeatureVector(fs, [1.0, *rng.uniform(10, 1e5, 10)]),
                        energy_joules=1.0 + i)
        for i in range(12)
    ]
    data = tmp_path / "data.csv"
    export_dataset(Dataset(records), data)
    env = dict(os.environ, PYTHONPATH=str(Path(decegy.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    argv = [sys.executable, "-m", "decegy", "crossval", "--dataset", str(data), "--k", "3"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    lines = done.stderr.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: rank-deficient system: zeroed ") for line in lines)


def test_category_sum_past_the_float_range_exits_2(tmp_path, capsys):
    # the total cancels to a finite estimate; the INTER terms alone overflow
    data, params = _hevc_files(tmp_path, count=1)
    counts = load_dataset(data)[0].features
    doc = json.loads(params.read_text())
    doc["specific_energies"] = {name: 0.0 for name in doc["specific_energies"]}
    doc["specific_energies"].update(
        e0=-1.7e308, inter64=1e308 / counts["inter64"], inter32=1e308 / counts["inter32"]
    )
    params.write_text(json.dumps(doc))
    argv = ["report", "--dataset", str(data), "--params", str(params)]
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 1: {_OVERFLOW}\n"


@pytest.mark.parametrize("command", ["predict", "report"])
def test_codec_mismatch_names_the_parameter_file(tmp_path, capsys, command):
    data, _ = _hevc_files(tmp_path)
    wrong = tmp_path / "vp9.json"
    save_params(default_specific_energies(Codec.VP9), Codec.VP9, wrong)
    assert main([command, "--dataset", str(data), "--params", str(wrong)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {wrong}: codec mismatch: dataset is hevc, params are vp9\n"
    )


@pytest.mark.parametrize("suffix, row", [("csv", 9), ("json", 8)])
@pytest.mark.parametrize("model", ["hl1", "hl2"])
def test_rows_without_metadata_name_the_dataset_file_and_row(tmp_path, capsys, model, suffix, row):
    records = list(synth_dataset(SynthSpec(Codec.HEVC, 20, seed=2)))
    records[7] = replace(records[7], intra_frames=None)
    data, params = tmp_path / f"partial.{suffix}", tmp_path / "params.json"
    export_dataset(Dataset(tuple(records)), data)
    export_dataset(Dataset(tuple(records[:7])), tmp_path / "whole.csv")
    assert main(["fit", "--dataset", str(tmp_path / "whole.csv"), "--model", model,
                 "--out", str(params)]) == 0
    capsys.readouterr()
    lacks = "'synth-hevc-0007' lacks high-level metadata"
    lacks += " (width/height/frames/file_size_bytes/intra_frames)"
    for command, *options in (["predict", "--params", str(params)], ["fit", "--model", model],
                              ["crossval", "--model", model, "--k", "5"]):
        assert main([command, "--dataset", str(data), *options]) == 2
        assert capsys.readouterr() == ("", f"error: {data}: row {row}: record {lacks}\n")


def test_chart_of_energies_outside_its_range_exits_2(tmp_path, capsys):
    data, params = _hevc_files(tmp_path)
    doc = json.loads(data.read_text())
    for record in doc["records"]:
        record["energy_joules"] = 5e-324
    data.write_text(json.dumps(doc))
    doc = json.loads(params.read_text())
    doc["specific_energies"] = {name: 0.0 for name in doc["specific_energies"]}
    params.write_text(json.dumps(doc))
    svg, out = tmp_path / "r.svg", tmp_path / "r.csv"
    argv = ["report", "--dataset", str(data), "--params", str(params), "--svg", str(svg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: energy 5e-324 J is outside the chart's range\n"
    assert not out.exists() and not svg.exists()
    assert main(argv) == 2  # nor a CSV on standard output
    assert capsys.readouterr() == ("", "error: energy 5e-324 J is outside the chart's range\n")


def test_report_with_a_chart_and_no_out_writes_the_csv_alone_to_stdout(tmp_path, capsys):
    data, params = _hevc_files(tmp_path, count=5)
    out = tmp_path / "r.csv"
    argv = ["report", "--dataset", str(data), "--params", str(params)]
    assert main(argv + ["--svg", str(tmp_path / "r.svg")]) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert stdout == out.read_text(encoding="utf-8")


def _h263_with_energies(path, energies, seed):
    records = synth_dataset(SynthSpec(Codec.H263, len(energies), seed=seed)).records
    export_dataset(Dataset(tuple(
        replace(rec, energy_joules=float(e)) for rec, e in zip(records, energies)
    )), path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hl2_fit_with_non_finite_coefficients_exits_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    # energies of 1e308 and up: Q'y then exceeds the float range, whatever the summation order
    _h263_with_energies(data, 10.0 ** np.random.default_rng(4).uniform(308, 308.2, 12), seed=4)
    assert main(["fit", "--dataset", str(data), "--model", "hl2"]) == 3
    assert capsys.readouterr().err == "fit error: coefficients overflow the float range\n"


def test_fit_residual_norm_past_the_range_of_its_squares_is_finite(tmp_path):
    data, out = tmp_path / "data.csv", tmp_path / "params.json"
    _h263_with_energies(data, 10.0 ** np.random.default_rng(4).uniform(200, 202, 12), seed=4)
    for model in ("feature", "hl2"):
        assert main(["fit", "--dataset", str(data), "--model", model, "--out", str(out)]) == 0
        residual_norm = json.loads(out.read_text())["diagnostics"]["residual_norm"]
        assert 1e200 < residual_norm < 1e204


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hl1_crossval_over_extreme_energies_reports_failed_folds(tmp_path, capsys):
    records = synth_dataset(SynthSpec(Codec.H263, 24, seed=8)).records
    bytes_per_pixel = [r.file_size_bytes / (r.width * r.height * r.frames) for r in records]
    energies = np.logspace(-300, 300, 24)[np.argsort(np.argsort(bytes_per_pixel))]
    data = tmp_path / "data.csv"
    _h263_with_energies(data, energies, seed=8)
    argv = ["crossval", "--dataset", str(data), "--model", "hl1", "--k", "4"]
    with pytest.warns(UserWarning, match="Jacobian not finite"):
        assert main(argv) == 0
    assert "warning: folds failed and were excluded" in capsys.readouterr().out


def test_main_lets_non_decegy_exceptions_through(monkeypatch, tmp_path):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr("decegy.cli.cmd_fit", broken)
    with pytest.raises(KeyError):
        main(["fit", "--dataset", str(tmp_path / "x.csv")])


def test_a_tag_that_holds_cr_survives_predict_and_fit(tmp_path, capsys):
    """A CSV cell that holds CR is quoted, so the CSV that ``predict`` writes loads again."""
    data, params = _hevc_files(tmp_path, count=4)
    doc = json.loads(data.read_text())
    for record in doc["records"]:
        record["tags"] = {"note": "a\rb"}
    data.write_text(json.dumps(doc))
    predicted = tmp_path / "p.csv"
    assert main(["predict", "--dataset", str(data), "--params", str(params),
                 "--out", str(predicted)]) == 0
    assert main(["fit", "--dataset", str(predicted)]) == 0, capsys.readouterr().err
    assert [tags["note"] for tags in load_dataset(predicted).tags] == ["a\rb"] * 4


def test_predict_refuses_tags_that_a_csv_file_cannot_hold(tmp_path, capsys):
    """Rows with different tag keys or a number tag would load back with other tags: the
    error names --out, or the dataset when the CSV goes to stdout, and nothing is written."""
    data, params = _hevc_files(tmp_path)
    doc = json.loads(data.read_text())
    for record, tags in zip(doc["records"], [{"qp": "1"}, {}, {"qp": 32}]):
        record["tags"] = tags
    data.write_text(json.dumps(doc))
    out = tmp_path / "mixed.csv"
    argv = ["predict", "--dataset", str(data), "--params", str(params)]
    message = "a CSV file cannot hold the tag 'qp', which is missing from some rows\n"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {out}: {message}")
    assert not out.exists()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {data}: {message}")


def test_synth_errors_name_the_parameter_file_or_the_noise_level(tmp_path, capsys):
    """An energy that synth cannot make names the parameter file it came from, and a
    noise level that draws an infinite energy names noise_sigma."""
    out = str(tmp_path / "s.csv")
    for name, energy, message in (("neg", -100.0, "true parameters produce nonpositive energy"),
                                  ("big", 1e308, _OVERFLOW)):
        values = {**default_specific_energies(Codec.HEVC).as_dict(), "e0": energy, "frame": energy}
        params = tmp_path / f"{name}.json"
        save_params(SpecificEnergies.from_dict(HEVC, values), Codec.HEVC, params)
        assert main(["synth", "--codec", "hevc", "--params", str(params), "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {params}: {message}")
    assert main(["synth", "--codec", "h263", "--count", "1", "--sigma=1e308", "--seed", "15",
                 "--out", out]) == 2
    assert capsys.readouterr().err == "error: noise_sigma 1e+308 draws an infinite energy\n"
