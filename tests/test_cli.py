"""End-to-end command-line behavior and exit codes."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from decegy import (
    Codec,
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
from decegy.dataset import BitstreamRecord, Dataset
from decegy.taxonomy import FeatureVector

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


def test_analyze_is_idempotent(tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, events=[{"event": "frame_start"}, {"event": "sao"}])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analyze", str(trace), "--out", str(out1)]) == 0
    assert main(["analyze", str(trace), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    assert capsys.readouterr().err == f"error: row 2: 'pel': {message}\n"


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


# ---------------------------------------------------------------------------
# synth + misc


def test_synth_is_reproducible_per_seed(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["synth", "--codec", "vp9", "--count", "20", "--sigma", "0.05", "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    assert capsys.readouterr().err == f"error: row {row}: {field} must be at most 2**53\n"


def test_deeply_nested_json_files_exit_2(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    data, params = tmp_path / "data.csv", tmp_path / "p.json"
    export_dataset(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1)), data)
    save_params(default_specific_energies(Codec.HEVC), Codec.HEVC, params)
    assert main(["fit", "--dataset", str(nested)]) == 2
    assert capsys.readouterr().err == "error: malformed JSON: nested too deeply\n"
    assert main(["predict", "--dataset", str(data), "--params", str(nested)]) == 2
    assert capsys.readouterr().err == "error: malformed JSON: nested too deeply\n"
