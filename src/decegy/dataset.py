"""Dataset schema, CSV/JSON loading and saving, and the synthetic generator.

A dataset holds one row per bitstream of a single codec: the feature counts,
the high-level stream metadata and the measured (or synthesized) decoding
energy.  The CSV schema is

    stream_id,codec,width,height,frames,file_size_bytes,intra_frames,
    energy_joules,<feature columns in canonical order>

with unknown extra columns preserved as free-form tags.  Numbers are decimal,
files UTF-8 with LF line endings.  The metadata and energy cells may be empty
(e.g. rows produced by trace analysis before measurements are merged in);
metadata integers may not exceed 2**53.

A :class:`Dataset` keeps its rows as columns and checks each column once,
whichever way it is built.  When a check fails, the check of a single
:class:`BitstreamRecord` runs again from the first row, so the error names
the first bad row in the words it always had.  Row errors get the row number
in one place per loader (CSV rows count the header line, JSON rows count
records).

The synthetic generator replaces physical measurements: it draws feature
counts, computes the exact feature-model energy under known specific energies
and optionally applies multiplicative Gaussian noise, so fits and
cross-validation can be checked against ground truth.  One table holds the
default specific energy and count range of every feature name of all codecs.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DataValidationError, about_file, json_feature_values, json_number
from .errors import json_text, read_json, read_text
from .models import HighLevelColumns, HighLevelInfo, SpecificEnergies, predict_feature_model
from .schema import BASE_COLUMNS, METADATA_COLUMNS, check_record, csv_row, csv_text
from .taxonomy import Codec, FeatureSet, FeatureVector, Kind, build_feature_set
from .taxonomy import validate_vector  # noqa: F401  bench/spans.py wraps it here


@dataclass(frozen=True)
class BitstreamRecord:
    """One bitstream: feature counts, high-level metadata, measured energy.

    The metadata and energy fields may be None for partially filled rows
    (trace analysis output); :attr:`highlevel` is available once all five
    metadata fields are present.
    """

    stream_id: str
    codec: Codec
    features: FeatureVector
    width: int | None = None
    height: int | None = None
    frames: int | None = None
    file_size_bytes: int | None = None
    intra_frames: int | None = None
    energy_joules: float | None = None
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        metadata = [getattr(self, name) for name in METADATA_COLUMNS]
        check_record(self.stream_id, self.codec, self.features, metadata, self.energy_joules,
                     self.tags)
        object.__setattr__(self, "tags", MappingProxyType(dict(self.tags)))

    @property
    def highlevel(self) -> HighLevelInfo | None:
        """High-level model input, or None while metadata is incomplete."""
        needed = (self.width, self.height, self.frames, self.file_size_bytes, self.intra_frames)
        if any(v is None for v in needed):
            return None
        return HighLevelInfo(
            pixels_per_frame=float(self.width * self.height),
            frames=self.frames,
            file_size_bytes=float(self.file_size_bytes),
            intra_rate=self.intra_frames / self.frames,
        )


def _record(codec: Codec, stream_id, counts, energy, metadata, tags) -> BitstreamRecord:
    """One row as a record, which runs the record check."""
    features = FeatureVector(build_feature_set(codec), counts)
    return BitstreamRecord(stream_id, codec, features, *metadata, energy, tags)


_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


class Dataset:
    """Streams of one codec with unique stream ids, held as columns.

    ``counts`` is the read-only M x F count matrix in the codec's feature
    order, ``energies`` the M energies and ``metadata`` the M x 5 matrix of
    :data:`METADATA_COLUMNS`, all float64 with NaN for an empty cell (the
    metadata integers are at most 2**53, so their floats are exact); ``ids``
    and ``tags`` hold one stream id and one tag mapping per row.

    ``Dataset(records)`` builds one from records; the loaders and the
    generator fill the columns directly.  Records (``dataset[i]``, iteration,
    :attr:`records`) are built on demand.
    """

    __slots__ = ("_codec", "ids", "counts", "energies", "metadata", "tags", "_index", "_highlevel")

    def __init__(self, records: Iterable[BitstreamRecord] = ()):
        records = tuple(records)
        for rec in records:
            if rec.codec is not records[0].codec:
                first = records[0].codec.value
                raise DataValidationError(f"mixed codecs: {first} and {rec.codec.value}")
        self._fill(
            records[0].codec if records else None,
            [rec.stream_id for rec in records],
            [rec.features.counts for rec in records],
            [rec.energy_joules for rec in records],
            [[getattr(rec, name) for rec in records] for name in METADATA_COLUMNS],
            [rec.tags for rec in records],
        )

    @classmethod
    def _from_columns(cls, *columns) -> Dataset:
        dataset = cls.__new__(cls)
        dataset._fill(*columns)
        return dataset

    def _fill(self, codec, ids, counts, energies, metadata, tags) -> None:
        """Check and keep M rows: ``counts`` M rows of floats, ``energies`` M floats or
        None, ``metadata`` per metadata column M integers or None, ``tags`` M mappings.

        Each column is checked once; when a check fails, the record check runs
        from the first row and raises the first bad row's error."""
        m = len(ids)
        fs = build_feature_set(codec) if m else None
        matrix = np.asarray(counts, dtype=float).reshape(m, len(fs) if m else 0)
        energy = np.array(energies, dtype=float)  # None reads as NaN
        measured = energy[~np.isnan(energy)]
        given = [[v for v in values if v is not None] for values in metadata]
        lowest = [0 if name == "intra_frames" else 1 for name in METADATA_COLUMNS]
        texts = chain(ids, *tags, map(str, chain(*(t.values() for t in tags))))  # tag keys, values
        passed = (
            all(ids)
            and bool(np.isfinite(matrix).all() and (matrix >= 0).all())
            and (m == 0 or bool((matrix[:, fs.index_of("e0")] == 1).all()))
            and measured.size == m - energies.count(None)  # no energy is NaN
            and bool((measured > 0).all() and np.isfinite(measured).all())
            and all(not v or low <= min(v) and max(v) <= 2**53 for v, low in zip(given, lowest))
            and not _SURROGATE.search("".join(texts))
        )
        if passed:  # the metadata are exact as floats now
            meta = np.array(metadata, dtype=float).reshape(5, m).T.copy()
            passed = not np.any(meta[:, 4] > meta[:, 2])  # intra_frames <= frames
        if not passed:
            for i in range(m):
                _record(codec, ids[i], counts[i], energies[i], [v[i] for v in metadata], tags[i])
            raise AssertionError("the column checks reject a row that the record check accepts")
        self._index = dict(zip(ids, range(m)))
        if len(self._index) < m:
            seen: set[str] = set()
            repeated = next(sid for sid in ids if sid in seen or seen.add(sid))  # add gives None
            raise DataValidationError(f"duplicate stream_id {repeated!r}")
        for array in (matrix, energy, meta):
            array.setflags(write=False)
        self._codec = codec if m else None
        self.ids, self.counts, self.energies, self.metadata = tuple(ids), matrix, energy, meta
        self.tags = tuple(map(MappingProxyType, tags))  # callers hand over fresh mappings
        width, height, frames, size, intra = meta.T
        self._highlevel = HighLevelColumns(width * height, frames, size, intra / frames, energy)

    @property
    def codec(self) -> Codec:
        if self._codec is None:
            raise DataValidationError("empty dataset has no codec")
        return self._codec

    @property
    def feature_set(self) -> FeatureSet:
        return build_feature_set(self.codec)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> BitstreamRecord:
        metadata = [None if math.isnan(v) else int(v) for v in self.metadata[i].tolist()]
        energy = None if math.isnan(self.energies[i]) else float(self.energies[i])
        return _record(self.codec, self.ids[i], self.counts[i], energy, metadata, self.tags[i])

    def __iter__(self) -> Iterator[BitstreamRecord]:
        return map(self.__getitem__, range(len(self)))

    @property
    def records(self) -> tuple[BitstreamRecord, ...]:
        """Every row as a record, built on each access."""
        return tuple(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self.records == other.records

    def get(self, stream_id: str) -> BitstreamRecord:
        if stream_id not in self._index:
            raise KeyError(f"unknown stream id {stream_id!r}")
        return self[self._index[stream_id]]

    def vector(self, i: int) -> FeatureVector:
        """The feature counts of row ``i``."""
        return FeatureVector(self.feature_set, self.counts[i])

    def highlevel(self, rows) -> HighLevelColumns:
        """The high-level model inputs of ``rows``; each row needs all five metadata fields."""
        rows = np.asarray(rows, dtype=int)
        lacking = rows[np.isnan(self.metadata[rows]).any(axis=1)]
        if lacking.size:
            raise DataValidationError(
                f"record {self.ids[lacking[0]]!r} lacks high-level metadata "
                f"({'/'.join(METADATA_COLUMNS)})"
            )
        return HighLevelColumns(*(column[rows] for column in self._highlevel))


# ---------------------------------------------------------------------------
# CSV / JSON serialization


def _is_json(path) -> bool:
    """Whether a dataset file is JSON, which its suffix decides; any other file is CSV."""
    return str(path).endswith(".json")


def export_dataset(dataset: Dataset, path) -> None:
    """Write a dataset; loading the file back reproduces it exactly.

    Counts and energies are written with full precision so the round trip is
    bitwise.  The format is taken from the file suffix.
    """
    text = dataset_to_json(dataset) if _is_json(path) else dataset_to_csv(dataset)
    Path(path).write_text(text, encoding="utf-8", newline="")


def _rows(dataset: Dataset) -> Iterator[tuple]:
    """Per row: the stream id, the five metadata integers and the energy (None where
    empty), the counts and the tags."""
    columns = [(column, int) for column in dataset.metadata.T] + [(dataset.energies, float)]
    numbers = ([None if math.isnan(v) else kind(v) for v in c.tolist()] for c, kind in columns)
    return zip(dataset.ids, zip(*numbers), map(np.ndarray.tolist, dataset.counts), dataset.tags)


def dataset_to_csv(
    dataset: Dataset, last_columns: Mapping[str, Iterable[float]] = MappingProxyType({})
) -> str:
    """The dataset as CSV text; ``last_columns`` maps the names of number columns to
    append, such as estimates, to their values, one per row."""
    tag_keys = sorted({key for tags in dataset.tags for key in tags})

    def rows() -> Iterator[list[str]]:
        yield [*BASE_COLUMNS, *dataset.feature_set.names, *tag_keys, *last_columns]
        with_last = zip(_rows(dataset), *last_columns.values(), strict=True)
        for (stream_id, numbers, counts, tags), *last in with_last:
            cells = [tags.get(key, "") for key in tag_keys]
            yield csv_row(stream_id, dataset.codec, numbers, counts, cells, last)

    return csv_text(rows())


def dataset_to_json(dataset: Dataset) -> str:
    names = dataset.feature_set.names
    records = [
        {
            "stream_id": stream_id,
            **dict(zip(METADATA_COLUMNS, numbers)),
            "energy_joules": numbers[-1],
            "features": dict(zip(names, counts)),
            "tags": dict(tags),
        }
        for stream_id, numbers, counts, tags in _rows(dataset)
    ]
    return json_text({"codec": dataset.codec.value, "records": records}, 2) + "\n"


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


def _load(build: Callable[[slice], Dataset], count: int, first_row: int, error=None) -> Dataset:
    """The dataset that ``build`` makes of a slice of the ``count`` rows, for all of them.

    When that fails, or ``error`` is the error of an unreadable row after them,
    each row is built alone from the first, so the first bad row raises its
    error with its number.  If none does, that failure (a repeated id) or
    ``error`` is raised."""
    try:
        if error is None:
            return build(slice(None))
    except DataValidationError as exc:
        error = exc
    for i in range(count):
        try:
            build(slice(i, i + 1))
        except DataValidationError as exc:
            raise DataValidationError(str(exc), row=first_row + i) from None
    raise error


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


def _parse_column(cells, column: str, parse=float, blank: str | None = None) -> list:
    """CSV number cells read by ``parse`` (int or float); a blank cell is None,
    or an error that says ``blank`` when given."""
    try:
        return list(map(parse, cells))
    except ValueError:  # a blank cell, or one that is not a number
        pass
    values = []
    for raw in cells:
        if blank and not raw.strip():
            raise DataValidationError(f"column {column!r}: {blank}")
        try:
            values.append(parse(raw) if raw.strip() else None)
        except ValueError:
            what = "an integer" if parse is int else "a number"
            raise DataValidationError(f"column {column!r}: not {what}: {raw!r}") from None
    return values


def _csv_columns(header: list[str], rows: list[list[str]], codec, require_energy: bool) -> tuple:
    """The columns of CSV rows of ``codec``; a cell error names the column but not the row."""
    width = len(header)
    rows = [row if len(row) == width else (row + [""] * width)[:width] for row in rows]
    column = dict(zip(header, zip(*rows)))  # a short row reads as empty cells
    for found in {Codec.from_name(cell.strip()) for cell in set(column["codec"])}:
        if found is not codec:
            raise DataValidationError(f"mixed codecs: {codec.value} and {found.value}")
    fs = build_feature_set(codec)
    counts = [_parse_column(column[name], name, blank="empty count") for name in fs.names]
    energies = _parse_column(column["energy_joules"], "energy_joules")
    if require_energy and None in energies:
        raise DataValidationError("missing energy value")
    metadata = [_parse_column(column[name], name, int) for name in METADATA_COLUMNS]
    known = set(BASE_COLUMNS) | set(fs.names)
    tag_keys = [key for key in header if key not in known]
    tags = [dict(zip(tag_keys, cells)) for cells in zip(*(column[key] for key in tag_keys))]
    ids = [cell.strip() for cell in column["stream_id"]]
    return codec, ids, np.array(counts).T, energies, metadata, tags or [{}] * len(rows)


#: CSV rows parsed at a time, so that only this many rows are held as text cells.
_CSV_CHUNK = 500


def _csv_rows(text: str) -> tuple[list[str], Iterator[list[str]]]:
    """The checked header of CSV text, and a reader of its rows (blank lines are not rows)."""
    reader = csv.reader(io.StringIO(text))
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
    parts: list[tuple] = []
    try:
        for rows in iter(lambda: list(islice(reader, _CSV_CHUNK)), []):
            codec = parts[0][0] if parts else _first_csv_codec(rows[0], header)
            parts.append(_csv_columns(header, rows, codec, require_energy))
            del rows  # before the next chunk is read
        if not parts:
            return Dataset()
        codecs, ids, counts, energies, metadata, tags = zip(*parts)
        metadata = [[*chain(*column)] for column in zip(*metadata)]
        return Dataset._from_columns(
            codecs[0], [*chain(*ids)], np.concatenate(counts), [*chain(*energies)], metadata,
            [*chain(*tags)],
        )
    except (DataValidationError, csv.Error):  # the rows again, for the first bad one
        header, reader = _csv_rows(text)
    rows, unreadable = [], None
    try:
        rows.extend(reader)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        unreadable = DataValidationError(str(exc), row=len(rows) + 2)
    codec = _first_csv_codec(rows[0], header) if rows else None

    def build(part: slice) -> Dataset:
        return Dataset._from_columns(*_csv_columns(header, rows[part], codec, require_energy))

    return _load(build, len(rows), first_row=2, error=unreadable)


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
    raws = doc["records"]

    def build(part: slice) -> Dataset:
        rows = [_json_row(raw, fs, require_energy) for raw in raws[part]]
        ids, counts, energies, metadata, tags = zip(*rows)
        return Dataset._from_columns(fs.codec, ids, counts, energies, list(zip(*metadata)), tags)

    return _load(build, len(raws), first_row=1) if raws else Dataset()


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
    return SpecificEnergies(fs, np.array([_DEFAULTS[name][0] for name in fs.names]))


def default_count_ranges(codec: Codec) -> dict[str, tuple[float, float]]:
    """Uniform draw ranges per feature used by :func:`synth_dataset`."""
    names = build_feature_set(codec).names
    return {name: _DEFAULTS[name][1] for name in names if _DEFAULTS[name][1] is not None}


#: Most records ``synth_dataset`` makes: a count beyond it is an error before anything
#: is allocated (a million HEVC rows need about 1.3 GB of memory on their way to a file).
MAX_SYNTH_COUNT = 1_000_000


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with known ground truth.

    Feature counts are drawn uniformly from per-feature ranges (e0 fixed to
    one, frame following the drawn frame count), the energy is the exact
    feature-model value under ``true_params``, and ``noise_sigma`` sets the
    relative standard deviation of multiplicative Gaussian noise (0 = exact).
    """

    codec: Codec
    count: int
    true_params: SpecificEnergies | None = None
    count_ranges: Mapping[str, tuple[float, float]] | None = None
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise DataValidationError("count must be >= 1")
        if self.count > MAX_SYNTH_COUNT:
            raise DataValidationError(f"count must be <= {MAX_SYNTH_COUNT}, got {self.count}")
        if not self.noise_sigma >= 0:
            raise DataValidationError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise DataValidationError(f"seed must be >= 0, got {self.seed}")
        if self.true_params is not None and self.true_params.feature_set.codec is not self.codec:
            raise ValueError("true_params codec mismatch")
        if self.count_ranges is not None:
            for name, (lo, hi) in self.count_ranges.items():
                if not 0 <= lo <= hi < math.inf:
                    raise ValueError(f"bad range for {name!r}: ({lo}, {hi})")


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Generate a dataset from a :class:`SynthSpec`; deterministic per seed."""
    fs = build_feature_set(spec.codec)
    params = spec.true_params or default_specific_energies(spec.codec)
    ranges = default_count_ranges(spec.codec)
    drawn = [fs.index_of(name) for name in ranges]  # every feature but e0 and frame
    if spec.count_ranges:
        for name, bounds in spec.count_ranges.items():
            fs.index_of(name)  # reject unknown names
            ranges[name] = bounds
    lows, highs = np.array([ranges[fs.names[j]] for j in drawn], dtype=float).T
    coeff = [j for j, fid in enumerate(fs) if fid.kind is Kind.COEFF]
    val = [j for j, fid in enumerate(fs) if fid.kind is Kind.VAL]
    e0, frame = fs.index_of("e0"), fs.index_of("frame")
    rng = np.random.default_rng(spec.seed)
    counts = np.empty((spec.count, len(fs)))
    energies, metadata = [], []
    for row in counts:
        width, height = RESOLUTIONS[int(rng.integers(len(RESOLUTIONS)))]
        frames = int(rng.integers(8, 65))
        intra_frames = int(rng.integers(0, frames + 1))
        row[e0], row[frame] = 1.0, float(frames)
        row[drawn] = rng.uniform(lows, highs)
        energy_true = predict_feature_model(params, FeatureVector(fs, row))
        if not energy_true > 0:
            raise DataValidationError(
                f"true parameters produce nonpositive energy ({energy_true})"
            )
        if spec.noise_sigma > 0:
            while True:
                eta = rng.normal(0.0, spec.noise_sigma)
                energy = energy_true * (1.0 + eta)
                if energy > 0:
                    break
        else:
            energy = energy_true
        coeff_total, val_total = sum(row[coeff]), sum(row[val])
        file_size = max(1, int(round(200.0 * frames + 2.0 * coeff_total + 0.6 * val_total)))
        energies.append(float(energy))
        metadata.append((width, height, frames, file_size, intra_frames))
    ids = [f"synth-{spec.codec.value}-{i:04d}" for i in range(spec.count)]
    no_tags = [{}] * spec.count
    return Dataset._from_columns(spec.codec, ids, counts, energies, list(zip(*metadata)), no_tags)
