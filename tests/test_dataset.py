"""Dataset schema, CSV/JSON round trips, synthetic generator behavior."""

import json
import pickle

import numpy as np
import pytest

from decegy import (
    Codec,
    DataValidationError,
    SynthSpec,
    default_count_ranges,
    default_specific_energies,
    export_dataset,
    load_dataset,
    predict_feature_model,
    synth_dataset,
)
from decegy.dataset import (
    BASE_COLUMNS,
    METADATA_COLUMNS,
    Dataset,
    dataset_from_csv,
    dataset_from_json,
    dataset_to_csv,
    dataset_to_json,
)
from decegy.taxonomy import build_feature_set
from util import replace

HEVC_HEADER = ",".join(BASE_COLUMNS + build_feature_set(Codec.HEVC).names)


def _hevc_row(stream_id="s1", energy="2.5", e0="1.0", pel="1000.0"):
    zeros = {name: "0.0" for name in build_feature_set(Codec.HEVC).names}
    zeros["e0"] = e0
    zeros["pel"] = pel
    features = ",".join(zeros[name] for name in build_feature_set(Codec.HEVC).names)
    return f"{stream_id},hevc,416,240,40,20300,4,{energy},{features}"


def test_load_two_row_csv():
    text = "\n".join([HEVC_HEADER, _hevc_row("a"), _hevc_row("b")]) + "\n"
    dataset = dataset_from_csv(text)
    assert len(dataset) == 2
    assert dataset.codec is Codec.HEVC
    assert dataset.get("a").features["pel"] == 1000.0
    info = dataset.get("a").highlevel
    assert info.pixels_per_frame == 416 * 240
    assert info.intra_rate == pytest.approx(0.1)


def test_missing_feature_column_is_named():
    header = HEVC_HEADER.replace("e0,", "")
    row = _hevc_row().replace("1.0,", "", 1)
    with pytest.raises(DataValidationError, match="'e0'"):
        dataset_from_csv("\n".join([header, row]))


def test_missing_base_column_is_named():
    header = HEVC_HEADER.replace("energy_joules,", "")
    with pytest.raises(DataValidationError, match="'energy_joules'"):
        dataset_from_csv(header + "\n")


def test_zero_energy_is_rejected_with_row_number():
    text = "\n".join([HEVC_HEADER, _hevc_row(energy="0.0")])
    with pytest.raises(DataValidationError, match="row 2.*onpositive energy"):
        dataset_from_csv(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_infinite_energy_is_rejected_at_load_with_row_number(fmt):
    # CSV rows count the header line, JSON rows count records
    if fmt == "csv":
        load, text = dataset_from_csv, "\n".join([HEVC_HEADER, _hevc_row("a", "inf"), _hevc_row("b")])
    else:
        doc = json.loads(dataset_to_json(synth_dataset(SynthSpec(Codec.HEVC, 2, seed=1))))
        doc["records"][1]["energy_joules"] = float("inf")
        load, text = dataset_from_json, json.dumps(doc)
    with pytest.raises(DataValidationError, match="row 2: non-finite"):
        load(text)


@pytest.mark.parametrize(
    "field, value",
    [
        ("width", "abc"),
        ("height", 240.0),
        ("frames", True),
        ("file_size_bytes", [1]),
        ("intra_frames", "4"),
        ("energy_joules", "2.5"),
        ("energy_joules", False),
    ],
)
def test_json_metadata_types_are_checked(field, value):
    doc = json.loads(dataset_to_json(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1))))
    doc["records"][2][field] = value
    with pytest.raises(DataValidationError, match=f"row 3: '{field}': not an? "):
        dataset_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "change, error, match",
    [
        (lambda doc: doc.update(records={"a": 1}), DataValidationError, "'records' list"),
        (lambda doc: doc["records"].__setitem__(1, [1]), DataValidationError, "row 2: record is not"),
        (lambda doc: doc["records"][1].update(tags=["x"]), DataValidationError, "row 2: 'tags'"),
        (lambda doc: doc.update(codec=5), ValueError, "unknown codec 5"),
        (lambda doc: doc["records"][1]["features"].update(bogus=1), DataValidationError,
         "row 2: unknown features: bogus"),
        (lambda doc: doc["records"][1].update(energy_joules=10**400), DataValidationError,
         "row 2: 'energy_joules': too large for a float"),
    ],
    ids=["records", "record", "tags", "codec", "unknown-feature", "huge-energy"],
)
def test_json_structure_is_checked(change, error, match):
    doc = json.loads(dataset_to_json(synth_dataset(SynthSpec(Codec.HEVC, 3, seed=1))))
    change(doc)
    with pytest.raises(error, match=match):
        dataset_from_json(json.dumps(doc))


def test_negative_count_is_rejected():
    text = "\n".join([HEVC_HEADER, _hevc_row(pel="-3.0")])
    with pytest.raises(DataValidationError, match="negative count"):
        dataset_from_csv(text)


def test_duplicate_stream_ids_rejected():
    text = "\n".join([HEVC_HEADER, _hevc_row("a"), _hevc_row("a")])
    with pytest.raises(DataValidationError, match="duplicate"):
        dataset_from_csv(text)


def test_csv_of_many_rows_round_trips_and_numbers_a_late_bad_row():
    dataset = synth_dataset(SynthSpec(Codec.H263, 2500, seed=4))  # rows are read in chunks
    text = dataset_to_csv(dataset)
    assert dataset_from_csv(text) == dataset
    lines = text.splitlines()
    lines[2400] = lines[2400].replace(",h263,", ",vp9,")  # line 2401, the header is line 1
    with pytest.raises(DataValidationError, match="^row 2401: mixed codecs: h263 and vp9$"):
        dataset_from_csv("\n".join(lines))
    lines[2400] = lines[1]
    with pytest.raises(DataValidationError, match="^duplicate stream_id 'synth-h263-0000'$"):
        dataset_from_csv("\n".join(lines))


def test_mixed_codecs_rejected():
    row2 = _hevc_row("b").replace(",hevc,", ",vp9,")
    text = "\n".join([HEVC_HEADER, _hevc_row("a"), row2])
    with pytest.raises(DataValidationError, match="mixed codecs"):
        dataset_from_csv(text)


def test_empty_energy_needs_require_energy_false():
    text = "\n".join([HEVC_HEADER, _hevc_row(energy="")])
    with pytest.raises(DataValidationError, match="missing energy"):
        dataset_from_csv(text)
    dataset = dataset_from_csv(text, require_energy=False)
    assert dataset.records[0].energy_joules is None


def test_partial_metadata_yields_no_highlevel_info():
    row = _hevc_row().replace("416,240,40,20300,4", ",,40,,")
    dataset = dataset_from_csv("\n".join([HEVC_HEADER, row]))
    assert dataset.records[0].highlevel is None
    assert dataset.records[0].frames == 40


# ---------------------------------------------------------------------------
# synthetic generator


def test_noiseless_synth_energies_equal_the_model_exactly():
    params = default_specific_energies(Codec.HEVC)
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 50, seed=1))
    for rec in dataset:
        assert rec.energy_joules == predict_feature_model(params, rec.features)


def test_synth_is_deterministic_per_seed():
    spec = SynthSpec(Codec.VP9, 30, noise_sigma=0.03, seed=77)
    a = synth_dataset(spec)
    b = synth_dataset(spec)
    assert a == b
    c = synth_dataset(SynthSpec(Codec.VP9, 30, noise_sigma=0.03, seed=78))
    assert a != c


def test_synth_noise_magnitude_matches_folded_normal_mean():
    params = default_specific_energies(Codec.HEVC)
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 500, noise_sigma=0.05, seed=3))
    etas = [
        rec.energy_joules / predict_feature_model(params, rec.features) - 1.0
        for rec in dataset
    ]
    mean_abs = float(np.mean(np.abs(etas)))
    # E|eta| = sigma * sqrt(2/pi) = 0.0399 for sigma = 0.05
    assert 0.035 <= mean_abs <= 0.045


def test_synth_frame_feature_matches_frames_column():
    dataset = synth_dataset(SynthSpec(Codec.H263, 20, seed=5))
    for rec in dataset:
        assert rec.features["frame"] == float(rec.frames)
        assert rec.features["e0"] == 1.0
        assert rec.intra_frames <= rec.frames
        assert rec.file_size_bytes > 0


def test_synth_respects_custom_ranges():
    dataset = synth_dataset(
        SynthSpec(Codec.HEVC, 25, count_ranges={"sao": (7.0, 7.0)}, seed=2)
    )
    for rec in dataset:
        assert rec.features["sao"] == 7.0


def test_synth_rejects_unknown_range_names_and_bad_specs():
    with pytest.raises(KeyError):
        synth_dataset(SynthSpec(Codec.VP9, 5, count_ranges={"sao": (0.0, 1.0)}, seed=1))
    with pytest.raises(ValueError):
        SynthSpec(Codec.VP9, 0)
    with pytest.raises(ValueError):
        SynthSpec(Codec.VP9, 5, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(Codec.VP9, 5, count_ranges={"pel": (5.0, 1.0)})


def test_synth_rejects_an_infinite_noise_sigma_by_name():
    with pytest.raises(DataValidationError, match=r"^noise_sigma must be finite, got inf$"):
        SynthSpec(Codec.HEVC, 3, noise_sigma=float("inf"))
    assert SynthSpec(Codec.HEVC, 3, noise_sigma=1e308).noise_sigma == 1e308


def test_default_tables_cover_every_feature():
    for codec in Codec:
        energies = default_specific_energies(codec)
        assert np.all(energies.values > 0)
        ranges = default_count_ranges(codec)
        names = set(build_feature_set(codec).names)
        assert set(ranges) == names - {"e0", "frame"}


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize(
    "fmt, tags, fault",
    [pytest.param("csv", None, None, id="csv"), pytest.param("json", None, None, id="json"),
     pytest.param("json", [{"qp": "1"}, {}], "'qp', which is missing from some rows",
                  id="json-different-tag-keys"),
     pytest.param("json", [{"qp": 32}], "'qp', which holds a value that is not text",
                  id="json-number-tag"),
     pytest.param("json", [{"width": "x"}], "'width', which is named like a column",
                  id="json-tag-named-width"),
     pytest.param("json", [{"e0": "1"}], "'e0', which is named like a column",
                  id="json-tag-named-e0"),
     pytest.param("json", [{"a": "1", "b": 2, "c": "x"}, {"a": "2", "b": 3}],
                  "'b', which holds a value that is not text", id="json-first-key-at-fault")],
)
def test_export_load_roundtrip_is_bitwise(tmp_path, fmt, tags, fault):
    dataset = synth_dataset(SynthSpec(Codec.H264, 40, noise_sigma=0.05, seed=9))
    if tags:  # the rows tagged in turn, as only a JSON file holds them
        dataset = Dataset([replace(rec, tags=tags[i % len(tags)]) for i, rec in enumerate(dataset)])
    path = tmp_path / f"data.{fmt}"
    export_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded == dataset
    for original, reloaded in zip(dataset, loaded):
        assert np.array_equal(original.features.counts, reloaded.features.counts)
        assert original.energy_joules == reloaded.energy_joules
        assert original.tags == reloaded.tags
    other = tmp_path / ("data.json" if fmt == "csv" else "data.csv")
    if tags:
        with pytest.raises(DataValidationError) as excinfo:
            export_dataset(dataset, other)
        assert str(excinfo.value) == (
            f"{other}: a CSV file cannot hold the tag {fault}")
        assert not other.exists()
    else:
        export_dataset(dataset, other)
        assert load_dataset(other) == loaded  # the same rows from the other format


def test_tags_survive_the_roundtrip(tmp_path):
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 3, seed=4))
    tagged = Dataset(
        tuple(
            type(rec)(
                stream_id=rec.stream_id,
                codec=rec.codec,
                features=rec.features,
                width=rec.width,
                height=rec.height,
                frames=rec.frames,
                file_size_bytes=rec.file_size_bytes,
                intra_frames=rec.intra_frames,
                energy_joules=rec.energy_joules,
                tags={"qp": "32", "config": "lowdelay"},
            )
            for rec in dataset
        )
    )
    for fmt in ("csv", "json"):
        path = tmp_path / f"tagged.{fmt}"
        export_dataset(tagged, path)
        loaded = load_dataset(path)
        assert dict(loaded.records[0].tags) == {"qp": "32", "config": "lowdelay"}


def test_export_empty_dataset_rejected(tmp_path):
    with pytest.raises(DataValidationError, match="empty dataset"):
        export_dataset(Dataset(()), tmp_path / "x.csv")


def test_csv_columns_follow_canonical_feature_order():
    dataset = synth_dataset(SynthSpec(Codec.VP9, 2, seed=6))
    header = dataset_to_csv(dataset).splitlines()[0]
    expected = ",".join(BASE_COLUMNS + build_feature_set(Codec.VP9).names)
    assert header == expected


def test_bad_csv_integer_cell_names_its_row_once():
    row = _hevc_row("b").replace(",416,", ",abc,", 1)
    text = "\n".join([HEVC_HEADER, _hevc_row("a"), row])
    with pytest.raises(DataValidationError) as excinfo:
        dataset_from_csv(text)
    assert str(excinfo.value) == "row 3: column 'width': not an integer: 'abc'"


@pytest.mark.parametrize(
    "column, cell, what",
    [("energy_joules", "0_5", "a number"), ("width", "1_280", "an integer"),
     ("pel", "\u0661\u0665", "a number"), ("frames", "\u0664\u0660", "an integer"),
     ("e0", "\uff11", "a number")],
    ids=["underscore-energy", "underscore-width", "arabic-count", "arabic-frames", "fullwidth-e0"],
)
def test_a_csv_number_cell_must_be_ascii_decimal(column, cell, what):
    """int and float read these cells (as 5.0, 1280, 15.0, 40 and 1.0); JSON does not."""
    header = HEVC_HEADER.split(",")
    cells = _hevc_row("b").split(",")
    cells[header.index(column)] = cell
    text = "\n".join([HEVC_HEADER, _hevc_row("a"), ",".join(cells)])
    with pytest.raises(DataValidationError) as excinfo:
        dataset_from_csv(text)
    assert str(excinfo.value) == f"row 3: column {column!r}: not {what}: {cell!r}"


def test_underscores_and_non_ascii_text_outside_number_cells_still_load():
    """A text that is not ASCII, or holds ``_`` past its header, has its number cells
    checked one by one; a blank cell of other whitespace is still empty."""
    row = _hevc_row("a_\u00e9").replace(",2.5,", ",\u00a0,", 1)
    dataset = dataset_from_csv("\n".join([HEVC_HEADER + ",note", row + ",x_y"]),
                               require_energy=False)
    assert dataset.ids == ("a_\u00e9",) and dict(dataset.tags[0]) == {"note": "x_y"}
    assert dataset[0].energy_joules is None and dataset[0].width == 416


@pytest.mark.parametrize("field", ["width", "height", "frames", "file_size_bytes", "intra_frames"])
def test_metadata_above_2_53_is_rejected(field):
    record = synth_dataset(SynthSpec(Codec.HEVC, 1, seed=1)).records[0]
    fields = {name: 2**53 for name in ("width", "height", "frames", "file_size_bytes")}
    exact = replace(record, **fields, intra_frames=2**53)
    assert exact.highlevel.file_size_bytes == 2.0**53
    with pytest.raises(DataValidationError, match=f"^{field} must be at most 2\\*\\*53$"):
        replace(record, **{field: 2**53 + 1})


@pytest.mark.parametrize("codec", list(Codec), ids=lambda codec: codec.value)
def test_records_equal_records_built_through_the_constructor(codec):
    """A dataset builds its records without the record check, from rows it has checked."""
    records = [replace(record) for record in synth_dataset(SynthSpec(codec, 12, seed=2))]
    records[3] = replace(records[3], width=None, energy_joules=None, tags={"qp": "32"})
    records[7] = replace(records[7], frames=None, intra_frames=None, tags={"note": "a,b"})
    records[5] = replace(records[5], energy_joules=3.0)
    dataset = Dataset(records)
    assert dataset.records == tuple(records) == tuple(dataset)
    assert list(map(repr, dataset.records)) == list(map(repr, records))  # ints stay ints
    assert [dataset[i] for i in range(len(dataset))] == records
    assert pickle.loads(pickle.dumps(dataset.records)) == tuple(records)
    # numpy metadata, and numpy or int energies, make the dataset of the Python numbers
    typed = Dataset(map(_numpy_numbers, records))
    assert typed == dataset == pickle.loads(pickle.dumps(typed))
    assert list(map(repr, typed.records)) == list(map(repr, records))
    assert dataset_to_json(typed) == dataset_to_json(dataset)
    # a CSV file holds rows of one tag key set: the same records, every row tagged alike
    alike = [replace(record, tags={"note": "a,b"}) for record in records]
    assert dataset_to_csv(Dataset(map(_numpy_numbers, alike))) == dataset_to_csv(Dataset(alike))
    assert dataset_from_json(dataset_to_json(typed), require_energy=False) == dataset


def _numpy_numbers(record):
    """The record with numpy integer metadata, and its energy a numpy float or, when it is
    whole, an int."""
    metadata = {name: getattr(record, name) for name in METADATA_COLUMNS}
    metadata = {name: v if v is None else np.int64(v) for name, v in metadata.items()}
    energy = record.energy_joules
    if energy is not None:
        energy = int(energy) if energy.is_integer() else np.float64(energy)
    return replace(record, **metadata, energy_joules=energy)


def test_synth_rejects_non_finite_ranges():
    for bounds in ((0.0, float("inf")), (float("nan"), float("nan"))):
        with pytest.raises(ValueError, match="bad range for 'pel'"):
            SynthSpec(Codec.VP9, 5, count_ranges={"pel": bounds})


@pytest.mark.parametrize(
    "suffix, column, value, message",
    [("csv", "frame", "x", "column 'frame': not a number: 'x'"),
     ("csv", "width", "-5", "width must be positive, got -5"),
     ("json", "width", "x", "'width': not an integer: 'x'"),
     ("json", "width", -5, "width must be positive, got -5")],
    ids=["csv-parse", "csv-record", "json-parse", "json-record"],
)
def test_a_failing_load_builds_no_row_alone_but_the_bad_one(monkeypatch, suffix, column, value,
                                                          message):
    """The first bad row is found from the columns: a load of 5000 rows whose last row is bad
    parses each row once and builds at most one row alone, as a parse or as a record."""
    import decegy.dataset as module

    dataset = synth_dataset(SynthSpec(Codec.HEVC, 5000, seed=1))
    if suffix == "csv":
        lines = dataset_to_csv(dataset).split("\n")
        cells = lines[-2].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[-2] = ",".join(cells)
        text, load, row = "\n".join(lines), dataset_from_csv, 5001
    else:
        doc = json.loads(dataset_to_json(dataset))
        doc["records"][-1][column] = value
        text, load, row = json.dumps(doc), dataset_from_json, 5000
    rows_parsed, alone = [], []

    def counted(name, rows_of):
        real = getattr(module, name)

        def call(*args):
            rows = rows_of(*args)
            rows_parsed.append(rows)
            if rows == 1 and name != "_json_row":
                alone.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted("_csv_columns", lambda header, rows, *_: len(rows))
    counted("_json_row", lambda *_: 1)
    counted("_record", lambda *_: 1)
    with pytest.raises(DataValidationError) as excinfo:
        load(text)
    assert str(excinfo.value) == f"row {row}: {message}"
    assert len(alone) <= 1, alone
    assert sum(rows_parsed) <= 5000 + 500 + 1  # one more pass over the failing chunk at most
