"""Dataset schema, CSV/JSON loading and saving, and the synthetic generator.

A dataset holds one row per bitstream of a single codec: the feature counts,
the high-level stream metadata and the measured (or synthesized) decoding
energy.  The CSV schema is

    stream_id,codec,width,height,frames,file_size_bytes,intra_frames,
    energy_joules,<feature columns in canonical order>

with unknown extra columns preserved as free-form tags.  Numbers are ASCII
decimal without ``_``, files UTF-8 with LF line endings.  The metadata and
energy cells may be empty (e.g. rows produced by trace analysis before
measurements are merged in); metadata integers may not exceed 2**53.

A :class:`Dataset` keeps its rows as one :class:`~decegy.schema.Rows` (None for
an empty cell, NaN only in its numpy matrices) and runs the row rules of
:data:`~decegy.schema.RULES` once, whichever way it is built.  Each rule tests
the whole columns at once, and halves them down to its first bad row only when
that test fails; the CSV parse checks walk a column per chunk of rows when its
test fails.  The error is the first rule's message on the first bad row, as a
:class:`BitstreamRecord` of that row would say it.  A row that does not parse
is reported once the rows before it pass the rules, and a repeated id only when
no row fails.  :func:`_numbered` numbers a row's error for both loaders and for
:func:`about_rows` (CSV rows count the header line, JSON rows count records).

The synthetic generator replaces physical measurements: it draws feature
counts, computes the exact feature-model energy under known specific energies
and optionally applies multiplicative Gaussian noise, so fits and
cross-validation can be checked against ground truth.  One table holds the
default specific energy and count range of every feature name of all codecs.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from itertools import chain, islice, repeat
from numbers import Integral, Real
from operator import add, attrgetter, iadd, itemgetter, mul, sub
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import DataValidationError, about_file, json_feature_values, json_number
from .errors import json_text, read_json, read_text
from .models import HighLevelColumns, HighLevelInfo, SpecificEnergies, feature_estimate
from .models import feature_values
from .schema import BASE_COLUMNS, METADATA_COLUMNS, Rows, check_record, csv_text, first_fault
from .taxonomy import Codec, FeatureSet, FeatureVector, Frozen, Kind, build_feature_set
from .taxonomy import float_array
from .taxonomy import validate_vector  # noqa: F401  bench/spans.py wraps it here


class BitstreamRecord(Frozen):
    """One bitstream: feature counts, high-level metadata, measured energy.

    The metadata and energy fields may be None for partially filled rows
    (trace analysis output); :attr:`highlevel` is available once all five
    metadata fields are present.
    """

    __slots__ = ("stream_id", "codec", "features", *METADATA_COLUMNS, "energy_joules", "tags")

    def __init__(self, stream_id: str, codec: Codec, features: FeatureVector,
                 width: int | None = None, height: int | None = None, frames: int | None = None,
                 file_size_bytes: int | None = None, intra_frames: int | None = None,
                 energy_joules: float | None = None,
                 tags: Mapping[str, str] = MappingProxyType({})):
        metadata = [width, height, frames, file_size_bytes, intra_frames]
        check_record(stream_id, codec, features, metadata, energy_joules, tags)
        tags = MappingProxyType(dict(tags))
        self._set(stream_id, codec, features, *metadata, energy_joules, tags)

    def __reduce__(self):  # a mappingproxy does not pickle; the constructor wraps a dict again
        return type(self), (*self._values()[:-1], dict(self.tags))

    @property
    def highlevel(self) -> HighLevelInfo | None:
        """High-level model input, or None while metadata is incomplete."""
        metadata = [getattr(self, name) for name in METADATA_COLUMNS]
        return None if None in metadata else _highlevel(*metadata)


def _highlevel(width, height, frames, file_size_bytes, intra_frames) -> HighLevelInfo:
    """The high-level model input of complete metadata."""
    return HighLevelInfo(
        float(width * height), int(frames), float(file_size_bytes), intra_frames / frames
    )


def _record(codec: Codec, stream_id, counts, energy, metadata, tags) -> BitstreamRecord:
    """A row of a dataset, whose columns are checked, as a record without the record check."""
    record = BitstreamRecord.__new__(BitstreamRecord)
    features = FeatureVector(build_feature_set(codec), counts)
    record._set(stream_id, codec, features, *metadata, energy, tags)
    return record


def _as(kind, convert, values) -> list:
    """The values, each ``kind`` that is not a bool made ``convert``; the rules judge the rest,
    and all of them as given when one cannot be made (an int too large for a float)."""
    values = list(values)
    try:
        return [convert(v) if isinstance(v, kind) and not isinstance(v, bool) else v
                for v in values]
    except OverflowError:
        return values


def _flat(rows) -> array:
    """Rows of floats as one array of doubles, in row order."""
    return array("d", list(chain.from_iterable(rows)))


#: A line as io.StringIO yields it, with its LF (the last maybe without), but made only when
#: read: StringIO holds the whole text at 4 bytes per character, a list of lines all at once.
_LINE = re.compile(".*\n|.+")


def _check_rows(codec, ids, counts: array, energies, metadata, tags) -> Rows:
    """The rows of the columns, checked, as one :class:`~decegy.schema.Rows`: ids, energies,
    metadata columns and tags tuples and each tag mapping read-only.  The first row that
    breaks a row rule raises its error, with the row's ``index``: each rule of
    :data:`~decegy.schema.RULES` tests the whole columns, and a rule that fails finds its
    first bad row (:func:`~decegy.schema.first_fault`)."""
    rows = Rows(codec, codec and build_feature_set(codec), tuple(ids), counts, tuple(energies),
                tuple(map(tuple, metadata)), tuple(map(MappingProxyType, tags)))
    fault = first_fault(rows)
    if fault:
        raise DataValidationError(fault[1], index=fault[0])
    return rows


class Dataset:
    """Streams of one codec with unique stream ids, held as one checked
    :class:`~decegy.schema.Rows`, in which an empty cell is None.

    ``ids`` and ``tags`` hold one stream id and one read-only tag mapping per row.
    ``counts`` is the read-only M x F count matrix in the codec's feature order (a view of
    the rows' counts), ``energies`` the M energies and ``metadata`` the M x 5 matrix of
    :data:`METADATA_COLUMNS`: float64, with NaN for an empty cell (the metadata integers are
    at most 2**53, so their floats are exact), each built with numpy on its first read.

    ``Dataset(records)`` builds one from records; the loaders and the generator give the
    columns directly.  Records (``dataset[i]``, iteration, :attr:`records`) are built on
    demand.
    """

    __slots__ = ("_rows", "_index", "_arrays")

    def __init__(self, records: Iterable[BitstreamRecord] = ()):
        records = tuple(records)
        other = next((rec.codec for rec in records if rec.codec is not records[0].codec), None)
        if other is not None:
            raise DataValidationError(f"mixed codecs: {records[0].codec.value} and {other.value}")
        self._fill(
            records[0].codec if records else None,
            [rec.stream_id for rec in records],
            _flat(rec.features.floats for rec in records),
            _as(Real, float, [rec.energy_joules for rec in records]),
            [_as(Integral, int, map(attrgetter(name), records)) for name in METADATA_COLUMNS],
            [dict(rec.tags) for rec in records],
        )

    @classmethod
    def _from_columns(cls, *columns) -> Dataset:
        dataset = cls.__new__(cls)
        dataset._fill(*columns)
        return dataset

    def _fill(self, codec, ids, counts, energies, metadata, tags) -> None:
        """Check and keep M rows: ``counts`` all their floats in an array of doubles,
        ``energies`` M floats or None, ``metadata`` per metadata column M integers or None,
        ``tags`` M mappings.

        The first row that breaks a row rule raises its error (:func:`_check_rows`); a
        repeated id is raised only when none does."""
        self._rows = rows = _check_rows(codec, ids, counts, energies, metadata, tags)
        self._index = dict(zip(rows.ids, range(len(rows))))
        if len(self._index) < len(rows):
            seen: set[str] = set()
            repeated = next(sid for sid in ids if sid in seen or seen.add(sid))  # add gives None
            raise DataValidationError(f"duplicate stream_id {repeated!r}")
        self._arrays = None

    def _numpy(self) -> tuple:
        """The read-only count, energy and metadata matrices, built on the first read of one."""
        if self._arrays is None:
            import numpy as np

            rows = self._rows
            counts = np.frombuffer(rows.counts).reshape(len(rows), -1 if len(rows) else 0)
            counts.setflags(write=False)  # a view of the rows' counts, which stay as they are
            self._arrays = counts, float_array(rows.energies), float_array(rows.metadata).T
        return self._arrays

    counts = property(lambda self: self._numpy()[0])
    energies = property(lambda self: self._numpy()[1])
    metadata = property(lambda self: self._numpy()[2])
    ids = property(lambda self: self._rows.ids)
    tags = property(lambda self: self._rows.tags)

    @property
    def codec(self) -> Codec:
        if self._rows.codec is None:
            raise DataValidationError("empty dataset has no codec")
        return self._rows.codec

    @property
    def feature_set(self) -> FeatureSet:
        return build_feature_set(self.codec)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> BitstreamRecord:
        rows = self._rows
        metadata = [column[i] for column in rows.metadata]
        counts = next(self.count_rows([i])).tolist()
        return _record(self.codec, rows.ids[i], counts, rows.energies[i], metadata, rows.tags[i])

    def __iter__(self) -> Iterator[BitstreamRecord]:
        return map(self.__getitem__, range(len(self)))

    @property
    def records(self) -> tuple[BitstreamRecord, ...]:
        """Every row as a record, built on each access."""
        return tuple(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self._rows == other._rows

    def __reduce__(self):  # copied and pickled as its rows; a mappingproxy does not pickle
        codec, _, *columns, tags = self._rows._values()
        return type(self)._from_columns, (codec, *columns, list(map(dict, tags)))

    def get(self, stream_id: str) -> BitstreamRecord:
        if stream_id not in self._index:
            raise KeyError(f"unknown stream id {stream_id!r}")
        return self[self._index[stream_id]]

    def count_rows(self, rows) -> Iterator[array]:
        """The counts of each of ``rows`` as arrays of doubles; IndexError past either end."""
        counts, width = self._rows.counts, len(self.feature_set)
        return (counts[j:j + width] for j in map(range(0, len(counts), width).__getitem__, rows))

    def energy(self, i: int) -> float:
        """The measured energy of row ``i``; a row without one is an error."""
        if (energy := self._rows.energies[i]) is None:
            raise DataValidationError(f"record {self.ids[i]!r} has no measured energy")
        return energy

    def highlevel(self, rows) -> HighLevelColumns:
        """The high-level inputs of ``rows`` as arrays; every row needs all five metadata fields."""
        import numpy as np

        rows = np.asarray(rows, dtype=int)
        width, height, frames, size, intra = columns = self.metadata.T[:, rows]
        list(self.infos(rows[np.isnan(columns).any(axis=0)][:1]))  # the first lacking row raises
        return HighLevelColumns(width * height, frames, size, intra / frames, self.energies[rows])

    def infos(self, rows) -> Iterator[HighLevelInfo]:
        """The :class:`HighLevelInfo` of each of ``rows``, the values of :meth:`highlevel`."""
        for i in rows:
            metadata = [column[i] for column in self._rows.metadata]
            if None in metadata:
                lacks = f"lacks high-level metadata ({'/'.join(METADATA_COLUMNS)})"
                raise DataValidationError(f"record {self.ids[i]!r} {lacks}", index=int(i))
            yield _highlevel(*metadata)


# ---------------------------------------------------------------------------
# CSV / JSON serialization


def _is_json(path) -> bool:
    """Whether a dataset file is JSON, which its suffix decides; any other file is CSV."""
    return str(path).endswith(".json")


def export_dataset(dataset: Dataset, path) -> None:
    """Write a dataset; loading the file back reproduces it exactly.

    Counts and energies are written with full precision so the round trip is
    bitwise.  The format is taken from the file suffix.  A JSON file holds any
    dataset; a CSV file only those that :func:`dataset_to_csv` writes, and any
    other dataset is a DataValidationError that names ``path``.
    """
    if _is_json(path):
        text = dataset_to_json(dataset)
    else:
        with about_file(path):
            text = dataset_to_csv(dataset)
    Path(path).write_text(text, encoding="utf-8", newline="")


def dataset_to_csv(
    dataset: Dataset, last_columns: Mapping[str, Iterable[float]] = MappingProxyType({})
) -> str:
    """The dataset as CSV text; ``last_columns`` maps the names of number columns to
    append, such as estimates, to their values, one per row: each replaces a tag column
    of its name, as a second ``predict`` replaces the first one's ``E_hat``.

    Other tags must be text under the same keys in every row, none named like a column,
    or the text would not load back as the rows: a DataValidationError.  The cells are
    made column by column, each as the writer reads its row, so only the text is whole."""
    rows, names = dataset._rows, dataset.feature_set.names
    key_sets = {frozenset(tags).difference(last_columns) for tags in rows.tags}
    tag_keys = sorted(set().union(*key_sets))
    if len(key_sets) > 1 or not all(isinstance(t[key], str) for t in rows.tags for key in tag_keys):
        raise DataValidationError(_NOT_CSV % "rows with different tag keys or tag values that "
                                  "are not text")
    named = [key for key in tag_keys if key in BASE_COLUMNS or key in names]
    if named:
        raise DataValidationError(_NOT_CSV % f"a tag named like its column {named[0]!r}")
    header = [*BASE_COLUMNS, *names, *tag_keys, *last_columns]
    columns = [
        rows.ids,
        repeat(rows.codec.value, len(rows)),
        *(("" if v is None else repr(v) for v in c) for c in (*rows.metadata, rows.energies)),
        *(map(repr, rows.counts[j::len(names)]) for j in range(len(names))),
        *([tags[key] for tags in rows.tags] for key in tag_keys),
        *(map(repr, map(float, values)) for values in last_columns.values()),
    ]
    return csv_text(chain([header], zip(*columns, strict=True)))


_NOT_CSV = "a CSV file cannot hold %s; export to .json instead"


def dataset_to_json(dataset: Dataset) -> str:
    names, rows = dataset.feature_set.names, dataset._rows
    every_row = dataset.count_rows(range(len(rows)))
    rows = zip(rows.ids, zip(*rows.metadata, rows.energies), every_row, rows.tags)
    records = [
        {
            "stream_id": stream_id,
            **dict(zip(METADATA_COLUMNS, numbers)),
            "energy_joules": numbers[-1],
            "features": dict(zip(names, counts)),
            "tags": dict(tags),
        }
        for stream_id, numbers, counts, tags in rows
    ]
    return json_text({"codec": dataset.codec.value, "records": records}, 2) + "\n"


@contextmanager
def _numbered(json: bool, prefix: str = ""):
    """Prefix ``row N: ``, and ``prefix`` before it, to an error with an ``index``: a CSV
    row's number counts the header line, a JSON row's counts records."""
    try:
        yield
    except DataValidationError as exc:
        if exc.index is None:  # not a row's error: a repeated id, say
            raise
        raise DataValidationError(f"{prefix}row {exc.index + (1 if json else 2)}: {exc}") from None


def about_rows(path):
    """Prefix ``<path>: row N: `` to an error with an ``index``, numbered as the loader does."""
    return _numbered(_is_json(path), f"{path}: ")


def load_dataset(path, require_energy: bool = True) -> Dataset:
    """Load and validate a dataset file, JSON or CSV by its suffix.

    Every record is validated (vector invariants, positive energy); failures
    name the file and the offending row, and a file without rows is an error.
    ``require_energy=False`` admits rows whose energy cell is empty
    (prediction inputs).
    """
    with about_file(path):
        read = dataset_from_json if _is_json(path) else dataset_from_csv
        dataset = read(read_text(path), require_energy=require_energy)
        if not len(dataset):
            raise DataValidationError("empty dataset")
        return dataset


def _loaded(columns: tuple | None, json: bool, failed: DataValidationError | None) -> Dataset:
    """The dataset of the rows read, ``columns`` (None for none), unless a row breaks a row
    rule or ``failed``, the error of the next row, is given; a repeated id is raised only
    when no row fails."""
    with _numbered(json):
        if failed is None:
            return Dataset._from_columns(*columns) if columns else Dataset()
        failed.index = len(columns[1]) if columns else 0
        if columns:
            _check_rows(*columns)
        raise failed


def _first_csv_codec(row: list[str], header: list[str]) -> Codec | None:
    """The first row's codec once its feature columns are in the header, or None
    when the codec is unreadable (the row itself then reports it)."""
    try:
        codec = Codec.from_name(dict(zip(header, row)).get("codec", "").strip())
    except DataValidationError:
        return None
    for column in build_feature_set(codec).names:
        if column not in header:
            raise DataValidationError(f"missing column {column!r}")
    return codec


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII without ``_``: ``int`` and ``float`` read digits of other
    scripts and ``_`` between digits too, which a CSV number, as a JSON one, may not hold."""
    return text.isascii() and "_" not in text


def _parse_column(cells, column: str, parse=float, blank: str | None = None,
                  plain: bool = True) -> list:
    """CSV number cells read by ``parse`` (int or float); a blank cell is None, or an
    error that says ``blank`` when given.  An error has the ``index`` of its cell.  ``plain``
    says that every cell is known to be :func:`_plain`."""
    try:
        values = list(map(parse, cells))
        if plain or _plain("".join(cells)):
            return values
    except ValueError:  # a blank cell, or one that is not a number
        pass
    values = []
    for i, raw in enumerate(cells):
        if blank and not raw.strip():
            raise DataValidationError(f"column {column!r}: {blank}", index=i)
        try:  # a cell that is not plain is read as "", which is not a number
            values.append(parse(raw if _plain(raw) else "") if raw.strip() else None)
        except ValueError:
            what = "an integer" if parse is int else "a number"
            raise DataValidationError(f"column {column!r}: not {what}: {raw!r}", index=i) from None
    return values


def _csv_columns(header: list[str], rows: list[list[str]], codec, require_energy: bool,
                 plain: bool) -> tuple:
    """The columns of CSV rows of ``codec``; ``plain`` says that every cell is ASCII without
    ``_``.  A cell's error names its column and has the ``index`` of its row: each check tests
    the whole column, and walks its cells for the first bad one only when that test fails."""
    width = len(header)
    rows = [row if len(row) == width else (row + [""] * width)[:width] for row in rows]
    column = dict(zip(header, zip(*rows)))  # a short row reads as empty cells
    cells, wanted = column["codec"], getattr(codec, "value", None)  # None: row 0's is unreadable
    if {cell.strip().lower() for cell in set(cells)} != {wanted}:
        i = next(i for i, cell in enumerate(cells) if cell.strip().lower() != wanted)
        try:
            found = Codec.from_name(cells[i].strip())
        except DataValidationError as exc:
            exc.index = i
            raise
        raise DataValidationError(f"mixed codecs: {codec.value} and {found.value}", index=i)
    fs = build_feature_set(codec)
    counts = [_parse_column(column[name], name, float, "empty count", plain) for name in fs.names]
    energies = _parse_column(column["energy_joules"], "energy_joules", plain=plain)
    if require_energy and None in energies:
        raise DataValidationError("missing energy value", index=energies.index(None))
    metadata = [_parse_column(column[name], name, int, plain=plain) for name in METADATA_COLUMNS]
    known = set(BASE_COLUMNS) | set(fs.names)
    tag_keys = [key for key in header if key not in known]
    tags = [dict(zip(tag_keys, cells)) for cells in zip(*(column[key] for key in tag_keys))]
    ids = [cell.strip() for cell in column["stream_id"]]
    return codec, ids, _flat(zip(*counts)), energies, metadata, tags or [{}] * len(rows)


#: CSV rows parsed at a time, so that only this many rows are held as text cells.
_CSV_CHUNK = 500


def _csv_rows(text: str) -> tuple[list[str], Iterator[list[str]]]:
    """The checked header of CSV text, and a reader of its rows (blank lines are not rows)."""
    reader = csv.reader(map(itemgetter(0), _LINE.finditer(text)))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataValidationError(str(exc), row=1) from None
    if header is None:
        raise DataValidationError("missing CSV header")
    repeated = [name for name, n in Counter(header).items() if n > 1]
    if repeated:
        raise DataValidationError(f"repeated column {repeated[0]!r}")
    for column in BASE_COLUMNS:
        if column not in header:
            raise DataValidationError(f"missing column {column!r}")
    return header, filter(None, reader)


def dataset_from_csv(text: str, require_energy: bool = True) -> Dataset:
    header, reader = _csv_rows(text)
    plain = text.isascii() and text.find("_", text.find("\n") + 1) < 0  # past the header line
    parts, failed = [], None
    while failed is None:
        rows = []
        try:
            rows.extend(islice(reader, _CSV_CHUNK))  # which keeps the rows read before an error
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            failed = DataValidationError(str(exc))
        if not rows:
            break
        codec = parts[0][0] if parts else _first_csv_codec(rows[0], header)
        end = len(rows)
        while end:  # the rows before the first that does not parse
            try:
                parts.append(_csv_columns(header, rows[:end], codec, require_energy, plain))
                break
            except DataValidationError as exc:
                end, failed = exc.index, exc
    if not parts:
        return _loaded(None, False, failed)
    codecs, ids, counts, energies, metadata, tags = zip(*parts)
    metadata = [[*chain(*column)] for column in zip(*metadata)]
    counts = reduce(iadd, counts, array("d"))
    columns = codecs[0], [*chain(*ids)], counts, [*chain(*energies)], metadata, [*chain(*tags)]
    return _loaded(columns, False, failed)


def _json_row(raw, fs: FeatureSet, require_energy: bool) -> tuple:
    """A JSON record's stream id, counts, energy, metadata and tags; errors carry no row number."""
    if not isinstance(raw, dict):
        raise DataValidationError("record is not a JSON object")
    features = raw.get("features")
    if not isinstance(features, dict):
        raise DataValidationError("record without 'features' object")
    counts = json_feature_values(fs.names, features)
    energy = raw.get("energy_joules")
    if energy is None and require_energy:
        raise DataValidationError("missing energy value")
    energy = None if energy is None else json_number("energy_joules", energy)
    metadata = [
        None if raw.get(name) is None else json_number(name, raw[name], integer=True)
        for name in METADATA_COLUMNS
    ]
    tags = raw.get("tags", {})
    if not isinstance(tags, dict):
        raise DataValidationError(f"'tags': not an object: {tags!r}")
    stream_id = str(raw.get("stream_id", ""))
    return stream_id, [counts[name] for name in fs.names], energy, metadata, tags


def dataset_from_json(text: str, require_energy: bool = True) -> Dataset:
    doc = read_json(text)
    if not isinstance(doc, dict) or "codec" not in doc or not isinstance(doc.get("records"), list):
        raise DataValidationError("dataset JSON must carry 'codec' and a 'records' list")
    fs = build_feature_set(Codec.from_name(doc["codec"]))
    rows, failed = [], None
    try:
        rows.extend(_json_row(raw, fs, require_energy) for raw in doc["records"])
    except DataValidationError as exc:  # the rows before it are kept
        failed = exc
    if not rows:
        return _loaded(None, True, failed)
    ids, counts, energies, metadata, tags = zip(*rows)
    columns = fs.codec, ids, _flat(counts), energies, list(zip(*metadata)), tags
    return _loaded(columns, True, failed)


# ---------------------------------------------------------------------------
# Synthetic oracle datasets

#: Typical luma resolutions drawn by the generator (width, height).
RESOLUTIONS = ((416, 240), (832, 480), (1280, 720), (1920, 1080))

#: Per feature name of any codec: a plausible joules-per-occurrence value,
#: heterogeneous across features, and the generator's uniform count range
#: (None for e0, fixed to one, and frame, which follows the drawn frame count).
_DEFAULTS: dict[str, tuple[float, tuple[float, float] | None]] = {
    "e0": (0.06, None),
    "frame": (1.8e-3, None),
    "intra32": (6e-6, (10, 2e3)),
    "intra16": (2e-6, (50, 8e3)),
    "intra8": (6e-7, (100, 2e4)),
    "intra4": (2e-7, (200, 5e4)),
    "inter64": (1.2e-5, (10, 1e3)),
    "inter32": (4e-6, (20, 4e3)),
    "inter16": (1.4e-6, (50, 1.5e4)),
    "inter8": (4.5e-7, (100, 4e4)),
    "inter4": (1.5e-7, (200, 8e4)),
    "obmc": (2.5e-6, (0, 3e3)),
    "pel": (3.5e-9, (1e5, 5e7)),
    "frac": (6e-9, (0, 6e7)),
    "trans32": (3e-6, (10, 4e3)),
    "trans16": (1e-6, (50, 1e4)),
    "trans8": (3e-7, (100, 3e4)),
    "trans4": (1e-7, (200, 6e4)),
    "coeff": (7e-8, (1e3, 1e6)),
    "coeff_cavlc": (7e-8, (1e3, 1e6)),
    "coeff_cabac": (9e-8, (1e3, 1e6)),
    "val": (2.5e-8, (2e3, 4e6)),
    "val_cavlc": (2.5e-8, (2e3, 4e6)),
    "val_cabac": (3e-8, (2e3, 4e6)),
    "sao": (2.5e-6, (0, 5e3)),
}


def default_specific_energies(codec: Codec) -> SpecificEnergies:
    """Plausible joules-per-occurrence values, heterogeneous across features."""
    fs = build_feature_set(codec)
    return SpecificEnergies(fs, [_DEFAULTS[name][0] for name in fs.names])


def default_count_ranges(codec: Codec) -> dict[str, tuple[float, float]]:
    """Uniform draw ranges per feature used by :func:`synth_dataset`."""
    names = build_feature_set(codec).names
    return {name: _DEFAULTS[name][1] for name in names if _DEFAULTS[name][1] is not None}


#: Most records ``synth_dataset`` makes: a count beyond it is an error before anything
#: is allocated (a million HEVC rows need about 1.3 GB of memory on their way to a file).
MAX_SYNTH_COUNT = 1_000_000


class SynthSpec(Frozen):
    """Recipe for a synthetic dataset with known ground truth.

    Feature counts are drawn uniformly from per-feature ranges (e0 fixed to
    one, frame following the drawn frame count), the energy is the exact
    feature-model value under ``true_params``, and ``noise_sigma`` sets the
    relative standard deviation of multiplicative Gaussian noise (0 = exact).
    """

    __slots__ = ("codec", "count", "true_params", "count_ranges", "noise_sigma", "seed")

    def __init__(self, codec: Codec, count: int, true_params: SpecificEnergies | None = None,
                 count_ranges: Mapping[str, tuple[float, float]] | None = None,
                 noise_sigma: float = 0.0, seed: int = 0):
        if count < 1:
            raise DataValidationError("count must be >= 1")
        if count > MAX_SYNTH_COUNT:
            raise DataValidationError(f"count must be <= {MAX_SYNTH_COUNT}, got {count}")
        if not noise_sigma >= 0:
            raise DataValidationError("noise_sigma must be >= 0")
        if noise_sigma == math.inf:
            raise DataValidationError(f"noise_sigma must be finite, got {noise_sigma}")
        if seed < 0:
            raise DataValidationError(f"seed must be >= 0, got {seed}")
        if true_params is not None and true_params.feature_set.codec is not codec:
            raise ValueError("true_params codec mismatch")
        for name, (lo, hi) in (count_ranges or {}).items():
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"bad range for {name!r}: ({lo}, {hi})")
        self._set(codec, count, true_params, count_ranges, noise_sigma, seed)


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Generate a dataset from a :class:`SynthSpec`; deterministic per seed.  Each row draws
    three integers, a double per drawn count (``low + (high - low) * double``, as
    ``Generator.uniform`` computes it) and normals until the noisy energy is positive."""
    import numpy as np

    fs = build_feature_set(spec.codec)
    values = feature_values(spec.true_params or default_specific_energies(spec.codec), fs)
    ranges = default_count_ranges(spec.codec)
    for name, bounds in (spec.count_ranges or {}).items():
        fs.index_of(name)  # reject unknown names
        ranges[name] = bounds
    # every count but those of e0 and frame, which come first, is drawn
    lows, highs = zip(*(map(float, ranges[name]) for name in fs.names[2:]))
    spans = list(map(sub, highs, lows))
    coeff = [j for j, fid in enumerate(fs) if fid.kind is Kind.COEFF]
    val = [j for j, fid in enumerate(fs) if fid.kind is Kind.VAL]
    rng = np.random.default_rng(spec.seed)
    counts, energies, metadata = array("d"), [], []
    for _ in range(spec.count):
        width, height = RESOLUTIONS[int(rng.integers(len(RESOLUTIONS)))]
        frames = int(rng.integers(8, 65))
        intra_frames = int(rng.integers(0, frames + 1))
        drawn = map(mul, spans, rng.random(len(spans)).tolist())
        row = [1.0, float(frames), *map(add, lows, drawn)]
        energy_true = feature_estimate(values, row)
        if not energy_true > 0:
            raise DataValidationError(f"true parameters produce nonpositive energy ({energy_true})")
        energy = energy_true
        while spec.noise_sigma > 0:  # draw again until the noisy energy is positive
            energy = energy_true * (1.0 + rng.normal(0.0, spec.noise_sigma))
            if energy > 0:
                break
        if energy == math.inf:
            raise DataValidationError(f"noise_sigma {spec.noise_sigma} draws an infinite energy")
        coeff_total, val_total = sum([row[j] for j in coeff]), sum([row[j] for j in val])
        file_size = max(1, int(round(200.0 * frames + 2.0 * coeff_total + 0.6 * val_total)))
        counts.fromlist(row)
        energies.append(energy)
        metadata.append((width, height, frames, file_size, intra_frames))
    ids = [f"synth-{spec.codec.value}-{i:04d}" for i in range(spec.count)]
    no_tags = [{}] * spec.count
    return Dataset._from_columns(spec.codec, ids, counts, energies, list(zip(*metadata)), no_tags)
