"""The row rules of ``schema.RULES``, which every way of building a dataset runs.

Each rule's test holds for a run of rows exactly when it holds for each of its rows, so
``dataset._check_rows`` may test whole columns and halve a failing run down to its first bad
row.  Its error, message and row index, must be the first error of building the rows one by
one as records (``BitstreamRecord``), and that error the one of the record check as it was
written before the rules became one table (``_reference_check``).  Columns are drawn with zero
to three bad cells; a dataset's ``==`` must agree with ``==`` on its records.
"""

import copy
import math
import pickle
from array import array
from numbers import Integral

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decegy.dataset import BitstreamRecord, Dataset, _check_rows  # noqa: E402
from decegy.errors import DataValidationError  # noqa: E402
from decegy.schema import METADATA_COLUMNS, RULES, Rows  # noqa: E402
from decegy.taxonomy import Codec, FeatureVector, build_feature_set, validate_vector  # noqa: E402

INF, NAN = math.inf, math.nan
#: Cells that pass: two 1e308 counts overflow a sum, -0.0 is not negative.
GOOD_COUNTS = [0.0, -0.0, 0.5, 1e308]
GOOD_ENERGIES = [None, 1.0, 1e308, 5e-324]
GOOD_METADATA = [None, 1, 2**53]
GOOD_TAGS = [{}, {"qp": "22"}, {"qp": "22", "note": "a_b"}, {"note": "a_b", "qp": "22"}]
#: Cells that may fail, by the column they go in ("count" is any count but e0's).
BAD = {
    "id": ["", "a\ud800", "\udfff", " a", "a\t", " ", "\u2028\ud800"],
    "tag key": ["\ud800", "k\udc00"],
    "tag value": ["\ud800", "v\udfff"],
    "e0": [0.0, 2.0, -0.0, NAN, INF, 1e308],
    "count": [NAN, INF, -INF, -1.0, -5e-324, 1e308, -0.0],
    "energy": [None, NAN, INF, -INF, 0.0, -0.0, 1e308],
    **{name: [None, 0, -1, 2**53, 2**53 + 1] for name in METADATA_COLUMNS},
    "intra above frames": [1, 2**53],
}


@st.composite
def columns(draw, most_bad: int = 3):
    """The columns of one to six rows of one codec, with up to ``most_bad`` bad cells:
    ``(codec, ids, counts, energies, metadata, tags)``, the counts one list per row."""
    codec = draw(st.sampled_from(list(Codec)))
    width = len(build_feature_set(codec))
    m = draw(st.integers(1, 6))
    ids = [f"s{i}" for i in range(m)]
    counts = [[1.0, *draw(st.lists(st.sampled_from(GOOD_COUNTS), min_size=width - 1,
                                   max_size=width - 1))] for _ in range(m)]
    energies = draw(st.lists(st.sampled_from(GOOD_ENERGIES), min_size=m, max_size=m))
    metadata = [draw(st.lists(st.sampled_from(GOOD_METADATA), min_size=m, max_size=m))
                for _ in METADATA_COLUMNS]
    metadata[4] = [None if frames is None else draw(st.sampled_from([None, 0, frames]))
                   for frames in metadata[2]]
    tags = [dict(draw(st.sampled_from(GOOD_TAGS))) for _ in range(m)]
    for _ in range(draw(st.integers(0, most_bad))):
        i, column = draw(st.integers(0, m - 1)), draw(st.sampled_from(sorted(BAD)))
        value = draw(st.sampled_from(BAD[column]))
        if column == "id":
            ids[i] = value
        elif column == "tag key":
            tags[i][value] = "v"
        elif column == "tag value":
            tags[i]["qp"] = value
        elif column == "e0":
            counts[i][0] = value
        elif column == "count":
            counts[i][draw(st.integers(1, width - 1))] = value
        elif column == "energy":
            energies[i] = value
        elif column == "intra above frames":
            metadata[2][i], metadata[4][i] = value, value + 1
        else:
            metadata[METADATA_COLUMNS.index(column)][i] = value
    return codec, ids, counts, energies, metadata, tags


def _rows(codec, ids, counts, energies, metadata, tags) -> Rows:
    flat = array("d", [count for row in counts for count in row])
    return Rows(codec, build_feature_set(codec), ids, flat, energies, metadata, tags)


def _row(columns, i: int) -> tuple:
    """Row ``i``: its stream id, counts, metadata, energy and tags."""
    codec, ids, counts, energies, metadata, tags = columns
    return ids[i], counts[i], [column[i] for column in metadata], energies[i], tags[i]


def _reference_check(stream_id, codec, features, metadata, energy, tags):
    """The record check as it was written before the rules became one table."""
    if not stream_id:
        raise DataValidationError("empty stream_id")
    if stream_id != stream_id.strip():
        raise DataValidationError(f"stream_id has leading or trailing whitespace: {stream_id!r}")
    for text in (stream_id, *tags, *map(str, tags.values())):
        if text.encode("utf-8", "replace").decode("utf-8") != text:  # lone surrogates
            raise DataValidationError(f"not valid Unicode: {text!r}")
    if features.feature_set.codec is not codec:
        raise DataValidationError(
            f"feature vector is for {features.feature_set.codec.value}, "
            f"record says {codec.value}"
        )
    violations = validate_vector(features.feature_set, features)
    if violations:
        raise DataValidationError("; ".join(violations))
    if energy is not None and not (math.isfinite(energy) and energy > 0):
        raise DataValidationError(f"non-finite or nonpositive energy: {energy}")
    for name, value in zip(METADATA_COLUMNS, metadata):
        if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise DataValidationError(f"{name} must be an integer, got {value!r}")
        if value is not None and value > 2**53:
            raise DataValidationError(f"{name} must be at most 2**53")
        if value is not None and value <= 0 and name != "intra_frames":
            raise DataValidationError(f"{name} must be positive, got {value}")
    *_, frames, _, intra_frames = metadata
    if intra_frames is not None:
        if intra_frames < 0:
            raise DataValidationError("intra_frames must be >= 0")
        if frames is not None and intra_frames > frames:
            raise DataValidationError("intra_frames exceeds frames")


def _first_error(columns, build) -> tuple | None:
    """The message and row of the first error of building the rows one by one."""
    codec = columns[0]
    for i in range(len(columns[1])):
        stream_id, counts, metadata, energy, tags = _row(columns, i)
        try:
            build(stream_id, codec, FeatureVector(build_feature_set(codec), counts), metadata,
                  energy, tags)
        except DataValidationError as exc:
            return str(exc), i
    return None


def _record(stream_id, codec, features, metadata, energy, tags):
    return BitstreamRecord(stream_id, codec, features, *metadata, energy, tags)


@settings(max_examples=400)
@given(columns(), st.data())
def test_each_rule_holds_for_a_run_when_it_holds_for_each_row(columns, data):
    rows = _rows(*columns)
    cut = data.draw(st.integers(0, len(rows)))
    for test, _ in RULES:
        each = [test(rows.part(i, i + 1)) for i in range(len(rows))]
        assert test(rows) == all(each)
        assert test(rows) == (test(rows.part(0, cut)) and test(rows.part(cut, len(rows))))


@settings(max_examples=400)
@given(columns())
@example((Codec.HEVC, ["a", "b"], [[1.0] + [1e308] * 18] * 2, [1.0, None],
          [[1, 1], [1, 1], [2, 2], [1, 1], [2, 3]], [{}, {}]))
@example((Codec.VP9, ["a", ""], [[1.0] * 19, [NAN] * 19], [-0.0, 1.0],
          [[None, 2**53 + 1]] * 5, [{"\ud800": "v"}, {}]))
def test_check_rows_raises_the_first_error_of_the_rows_built_one_by_one(columns):
    codec, ids, counts, energies, metadata, tags = columns
    try:
        _check_rows(codec, ids, _rows(*columns).counts, energies, metadata, tags)
        raised = None
    except DataValidationError as exc:
        raised = str(exc), exc.index
    assert raised == _first_error(columns, _record) == _first_error(columns, _reference_check)


def _dataset(columns) -> Dataset:
    codec, ids, counts, energies, metadata, tags = columns
    return Dataset._from_columns(codec, ids, _rows(*columns).counts, energies, metadata, tags)


@st.composite
def dataset_pairs(draw):
    """Two datasets, the second the first with at most two cells changed, maybe to an
    equal value (-0.0 for 0.0, tags in another order)."""
    drawn = draw(columns(most_bad=0))
    codec, ids, counts, energies, metadata, tags = other = copy.deepcopy(drawn)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(ids) - 1))
        where = draw(st.sampled_from(["id", "count", "energy", "width", "tag"]))
        if where == "id":
            ids[i] = draw(st.sampled_from([ids[i], "renamed"]))
        elif where == "count":
            j = draw(st.integers(1, len(counts[i]) - 1))
            counts[i][j] = draw(st.sampled_from([0.0, -0.0, 2.5]))
        elif where == "energy":
            energies[i] = draw(st.sampled_from([None, 1.0, 2.0]))
        elif where == "width":
            metadata[0][i] = draw(st.sampled_from([None, 1, 7]))
        else:
            tags[i] = draw(st.sampled_from(GOOD_TAGS))
    if len(set(ids)) < len(ids):
        ids[:] = drawn[1]
    return _dataset(drawn), _dataset(other)


@settings(max_examples=300)
@given(dataset_pairs())
def test_dataset_equality_is_record_equality(pair):
    first, second = pair
    assert (first == second) == (first.records == second.records)
    for dataset in pair:
        assert pickle.loads(pickle.dumps(dataset)) == dataset == copy.deepcopy(dataset)
