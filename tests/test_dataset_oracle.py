"""Differential tests of the dataset defaults, generator, loaders and CSV writer.

``dataset_oracle`` holds the earlier implementations: per-feature ``Kind``
dispatch with one scalar draw per feature and row, loaders that attached
the row number at every check, and a CSV writer that built one row at a time
through ``csv.writer``.  On random specs for all four codecs, noise levels at
which the generator draws the noise again included, the library generator must
write the same CSV bytes; on random datasets without CR in a cell the library
writer must write the same bytes or raise the same exception (a cell with CR,
which ``csv.writer`` leaves unquoted, is quoted and must read back); and on
synthetic CSV/JSON files with one cell or field replaced, or two or three in
different rows of a file longer than one CSV chunk, the loaders must give the
same dataset bytes or the same exception type and message.  The oracle's CSV
loader reported some errors with a doubled ``row N: row N:`` prefix; that is
the one difference allowed, and the library must never produce it.
"""

import csv
import io
import json
import re
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import dataset_oracle  # noqa: E402
from decegy import (  # noqa: E402
    Codec,
    SynthSpec,
    default_count_ranges,
    default_specific_energies,
    synth_dataset,
)
from decegy.dataset import (  # noqa: E402
    BASE_COLUMNS,
    METADATA_COLUMNS,
    BitstreamRecord,
    Dataset,
    dataset_from_csv,
    dataset_from_json,
    dataset_to_csv,
    dataset_to_json,
)
from decegy.dataset import _CSV_CHUNK, _csv_rows  # noqa: E402
from decegy.schema import csv_text  # noqa: E402
from decegy.taxonomy import FeatureVector, build_feature_set  # noqa: E402
from util import replace  # noqa: E402

_DOUBLED_ROW = re.compile(r"^(row \d+: )\1")


def _outcome(fn, *args):
    """CSV bytes of the dataset ``fn`` returns, or its exception type and message."""
    try:
        return "ok", dataset_to_csv(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_as_oracle(lib_fn, oracle_fn, *args):
    kind, text = _outcome(oracle_fn, *args)
    assert _outcome(lib_fn, *args) == (kind, _DOUBLED_ROW.sub(r"\1", text))


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_default_tables_match_the_oracle(codec):
    assert default_specific_energies(codec) == dataset_oracle.default_specific_energies(codec)
    assert repr(default_count_ranges(codec)) == repr(dataset_oracle.default_count_ranges(codec))


@st.composite
def specs(draw):
    codec = draw(st.sampled_from(list(Codec)))
    bound = st.integers(0, 10**6) | st.floats(0, 1e9)
    bounds = st.tuples(bound, bound).map(lambda pair: tuple(sorted(pair)))
    names = st.sampled_from(build_feature_set(codec).names)  # e0 and frame too
    return SynthSpec(
        codec,
        draw(st.integers(1, 40)),
        count_ranges=draw(st.none() | st.dictionaries(names, bounds, max_size=4)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.9])),  # at 0.9 noise is drawn again
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(specs())
def test_synth_matches_the_oracle(spec):
    _assert_same_as_oracle(synth_dataset, dataset_oracle.synth_dataset, spec)


def test_synth_redraws_noise_at_sigma_0_9_as_the_oracle_does(monkeypatch):
    spec = SynthSpec(Codec.H264, 200, noise_sigma=0.9, seed=7)
    assert dataset_to_csv(synth_dataset(spec)) == dataset_to_csv(dataset_oracle.synth_dataset(spec))
    normals = []
    default_rng = np.random.default_rng

    class Counting:  # the generator, counting its normal draws
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def normal(self, *args):
            normals.append(args)
            return self.rng.normal(*args)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    synth_dataset(spec)
    assert len(normals) > 200  # a normal below -1/0.9 makes a nonpositive energy


#: Tag text that CSV must quote, and line breaks of str.splitlines that are not CSV's.  CR
#: is left out: the oracle's ``csv.writer`` leaves it unquoted, which the library quotes
#: (``test_csv_text_is_csv_writer_and_quotes_cr``).
_AWKWARD = st.text(st.sampled_from('a ,"\n\x0c\x1c\x85\u2028\u2029'), max_size=6)
_INTEGER = st.none() | st.integers(1, 2**53)


@st.composite
def written_datasets(draw):
    """A dataset of all four codecs with 0 to 5 rows, some metadata and energy cells
    empty, awkward tags, and the columns to append, one value per row.  The rows' tags
    share one key set, or in some datasets each row draws its own, keys such as ``width``
    too, which a CSV file cannot hold."""
    codec = draw(st.sampled_from(list(Codec)))
    fs = build_feature_set(codec)
    keys = ["qp", "note", "a,b", "x\ny"]
    shared = draw(st.sets(st.sampled_from(keys)))
    free = draw(st.booleans())
    count = st.floats(0, 1e300) | st.integers(0, 2**60).map(float)
    records = []
    for i in range(draw(st.integers(0, 5))):
        counts = [1.0, *draw(st.lists(count, min_size=len(fs) - 1, max_size=len(fs) - 1))]
        width, height, frames, size = (draw(_INTEGER) for _ in range(4))
        intra = draw(st.none() | st.integers(0, 2**53 if frames is None else frames))
        energy = draw(st.none() | st.floats(5e-324, 1e300))
        tags = draw(st.dictionaries(st.sampled_from([*keys, "width", "e0"]), _AWKWARD) if free
                    else st.fixed_dictionaries(dict.fromkeys(shared, _AWKWARD)))
        features = FeatureVector(fs, counts)
        records.append(BitstreamRecord(f"s{i}", codec, features, width, height, frames, size,
                                       intra, energy, tags))
    number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
    names = draw(st.lists(st.sampled_from(["E_hat", "E 2", "q,\"r"]), unique=True, max_size=2))
    last = {name: draw(st.lists(number, min_size=len(records), max_size=len(records)))
            for name in names}
    return Dataset(records), last


def _written(write, dataset, last):
    try:
        return "ok", write(dataset, last)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(written_datasets())
def test_csv_writer_matches_the_row_wise_oracle(drawn):
    assert _written(dataset_to_csv, *drawn) == _written(dataset_oracle.dataset_to_csv, *drawn)


_CELLS = (st.text(st.sampled_from('a ,"\n\x0c\x1c\x85\u2028'), max_size=5) | st.none()
          | st.integers(-10**20, 10**20) | st.floats() | st.booleans())


def _writer_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@settings(max_examples=300)
@given(st.lists(st.lists(_CELLS, min_size=2, max_size=5), max_size=4),
       st.lists(st.lists(st.text(st.sampled_from('a,"\r\n'), max_size=4), min_size=2,
                         max_size=4), max_size=4))
def test_csv_text_is_csv_writer_and_quotes_cr(rows, texts):
    """Rows of two or more cells without CR are written as ``csv.writer`` writes them;
    text cells that hold CR, which it leaves unquoted, read back exactly."""
    assert csv_text(rows) == _writer_text(rows)
    assert list(csv.reader(io.StringIO(csv_text(texts)))) == texts


@settings(max_examples=300)
@given(st.text(st.sampled_from('a1,"\n\r \x0c\x1c\x85\u2028'), max_size=40))
def test_csv_rows_are_those_of_a_reader_over_stringio(body):
    text = ",".join(BASE_COLUMNS) + "\n" + body

    def rows(reader):
        try:
            return list(reader)
        except csv.Error as exc:
            return str(exc)

    reader = csv.reader(io.StringIO(text))
    expected = next(reader), rows(filter(None, reader))
    header, reader = _csv_rows(text)
    assert (header, rows(reader)) == expected


@lru_cache(maxsize=None)
def _synth(codec: Codec, seed: int) -> Dataset:
    """Four synthetic records, each with a ``qp`` tag."""
    dataset = synth_dataset(SynthSpec(codec, 4, noise_sigma=0.05, seed=seed))
    return Dataset(tuple(replace(rec, tags={"qp": str(22 + i)}) for i, rec in enumerate(dataset)))


_CODEC_NAMES = [codec.value for codec in Codec]
_CSV_POOL = ["", "abc", "-1", "0", "1.5", "inf", "nan", "1e400", "9" * 400, "9" * 5000]
_CSV_POOL += _CODEC_NAMES


def _edited_csv(dataset: Dataset, r: int, column: str, value: str) -> str:
    """The dataset's CSV with the cell of row ``r`` (0 = header) and ``column`` replaced.

    ``"<dup>"`` stands for the stream id of another row.
    """
    rows = list(csv.reader(io.StringIO(dataset_to_csv(dataset))))
    if value == "<dup>":
        value = rows[1 + r % (len(rows) - 1)][0]
    rows[r][rows[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@st.composite
def csv_texts(draw):
    """Synthetic CSV text with one cell (header included) replaced from a pool."""
    dataset = _synth(draw(st.sampled_from(list(Codec))), draw(st.integers(0, 2)))
    column = draw(st.sampled_from(dataset_to_csv(dataset).split("\n", 1)[0].split(",")))
    value = draw(st.sampled_from([*_CSV_POOL, "<dup>"]))
    return _edited_csv(dataset, draw(st.integers(0, len(dataset))), column, value)


@settings(max_examples=300)
@given(csv_texts(), st.booleans())
def test_csv_loader_matches_the_oracle(text, require_energy):
    _assert_same_as_oracle(dataset_from_csv, dataset_oracle.dataset_from_csv, text, require_energy)


def test_csv_loader_matches_the_oracle_on_every_base_and_tag_cell():
    dataset = _synth(Codec.H264, 0)
    for column in (*BASE_COLUMNS, "qp", "e0"):
        for value in [*_CSV_POOL, "<dup>"]:
            for r in (0, 1, 3):
                text = _edited_csv(dataset, r, column, value)
                for require_energy in (True, False):
                    _assert_same_as_oracle(
                        dataset_from_csv, dataset_oracle.dataset_from_csv, text, require_energy
                    )


_RAW_1E400 = "@raw-1e400@"  # json.dumps cannot write this literal; it is spliced in
_DELETE = "@delete@"
_JSON_POOL = [
    "", "abc", -1, 0, 1.5, float("inf"), float("nan"), _RAW_1E400, 10**400,
    True, [1], "x", {"a": 1}, None, _DELETE, "<dup>", *_CODEC_NAMES,
]
_JSON_FIELDS = ("stream_id", *METADATA_COLUMNS, "energy_joules")
_JSON_FIELDS += ("features", "tags", "record", "codec")


def _edited_json(dataset: Dataset, i: int, where: str, value) -> str:
    """The dataset's JSON with one field of record ``i`` replaced or deleted.

    ``where`` is a record field, ``features.<name>``, ``record`` (the record
    itself) or ``codec`` (the top-level field); ``"<dup>"`` stands for the
    stream id of another record.
    """
    doc = json.loads(dataset_to_json(dataset))
    records = doc["records"]
    if value == "<dup>":
        value = records[(i + 1) % len(records)]["stream_id"]
    if where == "codec":
        container, key = doc, "codec"
    elif where == "record":
        container, key = records, i
    elif where.startswith("features."):
        container, key = records[i]["features"], where.split(".", 1)[1]
    else:
        container, key = records[i], where
    if value == _DELETE:
        container.pop(key)
    else:
        container[key] = value
    return json.dumps(doc).replace(json.dumps(_RAW_1E400), "1e400")


@st.composite
def json_texts(draw):
    """Synthetic JSON text with one field replaced (or deleted) from a pool."""
    codec = draw(st.sampled_from(list(Codec)))
    dataset = _synth(codec, draw(st.integers(0, 2)))
    features = [f"features.{name}" for name in build_feature_set(codec).names]
    where = draw(st.sampled_from(_JSON_FIELDS) | st.sampled_from(features))
    i = draw(st.integers(0, len(dataset) - 1))
    return _edited_json(dataset, i, where, draw(st.sampled_from(_JSON_POOL)))


@settings(max_examples=300)
@given(json_texts(), st.booleans())
def test_json_loader_matches_the_oracle(text, require_energy):
    _assert_same_as_oracle(
        dataset_from_json, dataset_oracle.dataset_from_json, text, require_energy
    )


def test_json_loader_matches_the_oracle_on_every_base_field():
    dataset = _synth(Codec.VP9, 0)
    for where in (*_JSON_FIELDS, "features.pel"):
        for value in _JSON_POOL:
            for i in (0, 2):
                text = _edited_json(dataset, i, where, value)
                for require_energy in (True, False):
                    _assert_same_as_oracle(
                        dataset_from_json, dataset_oracle.dataset_from_json, text, require_energy
                    )


@lru_cache(maxsize=None)
def _long(codec: Codec) -> Dataset:
    """A synthetic dataset one CSV chunk and a hundred rows long."""
    return synth_dataset(SynthSpec(codec, _CSV_CHUNK + 100, noise_sigma=0.05, seed=5))


_MULTI_CSV_POOL = ["", "x", "-5", "0", "2", "1e400", "zz", "\ud800", "<dup>"]
_MULTI_JSON_POOL = ["x", -5, 0, 2, None, 10**400, "", "\ud800", "<dup>"]


def _multi_edited(codec: Codec, suffix: str, edits) -> str:
    """The long dataset's text with each ``(row, column, value)`` of ``edits`` set in turn;
    rows count from 0 and ``"<dup>"`` stands for the stream id of the row before."""
    dataset = _long(codec)
    if suffix == "csv":
        lines = dataset_to_csv(dataset).split("\n")  # synthetic cells hold no comma or quote
        header = lines[0].split(",")
        for r, column, value in edits:
            cells = lines[1 + r].split(",")
            cells[header.index(column)] = lines[r].split(",")[0] if value == "<dup>" else value
            lines[1 + r] = ",".join(cells)
        return "\n".join(lines)
    doc = json.loads(dataset_to_json(dataset))
    records = doc["records"]
    for r, column, value in edits:
        value = records[r - 1]["stream_id"] if value == "<dup>" else value
        if column in build_feature_set(codec).names:
            records[r]["features"][column] = value
        else:
            records[r][column] = value
    return json.dumps(doc)


@st.composite
def multi_edits(draw):
    """Two or three cells of different rows of the long dataset, in either chunk, edited."""
    codec = draw(st.sampled_from(list(Codec)))
    suffix = draw(st.sampled_from(["csv", "json"]))
    columns = [*BASE_COLUMNS, *build_feature_set(codec).names]
    if suffix == "json":
        columns.remove("codec")
    rows = draw(st.lists(st.integers(1, _CSV_CHUNK + 99), min_size=2, max_size=3, unique=True))
    pool = _MULTI_CSV_POOL if suffix == "csv" else _MULTI_JSON_POOL
    edits = [(r, draw(st.sampled_from(columns)), draw(st.sampled_from(pool))) for r in rows]
    return codec, suffix, edits


@settings(max_examples=25, deadline=None)
@given(multi_edits(), st.booleans())
@example((Codec.HEVC, "csv", [(3, "stream_id", "<dup>"), (550, "frame", "x")]), True)
@example((Codec.HEVC, "csv", [(3, "stream_id", "<dup>"), (550, "width", "-5")]), True)
@example((Codec.H264, "csv", [(40, "width", "-5"), (520, "frame", "x")]), True)
@example((Codec.H264, "csv", [(520, "width", "-5"), (40, "frame", "x")]), False)
@example((Codec.VP9, "csv", [(480, "intra_frames", "-5"), (510, "codec", "zz")]), True)
@example((Codec.HEVC, "json", [(3, "stream_id", "<dup>"), (550, "frame", "x")]), True)
@example((Codec.HEVC, "json", [(40, "width", -5), (520, "height", "x")]), True)
@example((Codec.H263, "json", [(5, "energy_joules", None), (7, "width", 0)]), False)
def test_loaders_match_the_oracle_with_several_bad_rows(edit, require_energy):
    codec, suffix, edits = edit
    text = _multi_edited(codec, suffix, edits)
    if suffix == "csv":
        _assert_same_as_oracle(dataset_from_csv, dataset_oracle.dataset_from_csv, text,
                               require_energy)
    else:
        _assert_same_as_oracle(dataset_from_json, dataset_oracle.dataset_from_json, text,
                               require_energy)
