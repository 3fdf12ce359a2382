"""Reference implementations of the dataset loaders, writer and generator, kept as test oracles.

These are the per-feature ``Kind`` dispatch of ``default_specific_energies``,
``default_count_ranges`` and ``synth_dataset`` (one scalar draw per feature
and row), the CSV/JSON loaders that attached the row number at every
check, before ``decegy.dataset`` moved the defaults into one table and each
loader's row number into one place, and the CSV writer that built each row
through ``schema.csv_row`` (which then also appended the tag and number cells) and
wrote them with ``csv.writer``, before ``dataset_to_csv`` built the cells column by
column and ``schema.csv_text`` joined them itself.  Records, datasets and specs are the
library's own types.  A CSV number cell must be ASCII without ``_``, as in the
library (``int`` and ``float`` read other scripts' digits and ``1_000``, JSON does not).
``test_dataset_oracle.py`` requires the library to give the same
bytes or the same exception type and message, with this CSV loader's doubled
``row N: row N:`` prefix collapsed.
"""

from __future__ import annotations

import csv
import io
import json
from types import MappingProxyType

import numpy as np

from decegy.dataset import (
    BASE_COLUMNS,
    METADATA_COLUMNS,
    RESOLUTIONS,
    BitstreamRecord,
    Dataset,
    SynthSpec,
)
from decegy.errors import DataValidationError
from decegy.models import SpecificEnergies, predict_feature_model
from decegy.schema import csv_row
from decegy.taxonomy import Codec, FeatureVector, Kind, build_feature_set


def dataset_to_csv(dataset: Dataset, last_columns=MappingProxyType({})) -> str:
    """The dataset as CSV text, one ``csv_row`` per record, through ``csv.writer`` (which
    leaves a cell that holds CR unquoted); a dataset whose tags a CSV file cannot hold is
    refused for its first tag key in sorted order that some rows lack, that holds a value
    which is not text, or that is named like a column, checked one key at a time."""
    tag_keys = sorted({key for tags in dataset.tags for key in tags})
    for key in tag_keys:
        if any(key not in tags for tags in dataset.tags):
            fault = "is missing from some rows"
        elif any(not isinstance(tags[key], str) for tags in dataset.tags):
            fault = "holds a value that is not text"
        elif key in BASE_COLUMNS or key in dataset.feature_set.names:
            fault = "is named like a column"
        else:
            continue
        raise DataValidationError(f"a CSV file cannot hold the tag {key!r}, which {fault}")

    def rows():
        yield [*BASE_COLUMNS, *dataset.feature_set.names, *tag_keys, *last_columns]
        for rec, *last in zip(dataset, *last_columns.values(), strict=True):
            numbers = [getattr(rec, name) for name in (*METADATA_COLUMNS, "energy_joules")]
            cells = [rec.tags.get(key, "") for key in tag_keys]
            row = csv_row(rec.stream_id, dataset.codec, numbers, rec.features.tolist())
            yield [*row, *cells, *(repr(float(value)) for value in last)]

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows())
    return out.getvalue()


def _parse_optional_int(raw: str | None, column: str, row: int) -> int | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        if not raw.isascii() or "_" in raw:  # digits of other scripts, or 1_000
            raise ValueError(raw)
        return int(raw)
    except ValueError:
        raise DataValidationError(f"column {column!r}: not an integer: {raw!r}", row=row) from None


def _parse_optional_float(raw: str | None, column: str, row: int) -> float | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        if not raw.isascii() or "_" in raw:  # digits of other scripts, or 1_000
            raise ValueError(raw)
        return float(raw)
    except ValueError:
        raise DataValidationError(f"column {column!r}: not a number: {raw!r}", row=row) from None


def dataset_from_csv(text: str, require_energy: bool = True) -> Dataset:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DataValidationError("missing CSV header")
    header = list(reader.fieldnames)
    for column in BASE_COLUMNS:
        if column not in header:
            raise DataValidationError(f"missing column {column!r}")
    records: list[BitstreamRecord] = []
    codec: Codec | None = None
    feature_names: tuple[str, ...] = ()
    for line_no, row in enumerate(reader, start=2):
        raw_codec = (row.get("codec") or "").strip()
        try:
            row_codec = Codec.from_name(raw_codec)
        except ValueError as exc:
            raise DataValidationError(str(exc), row=line_no) from None
        if codec is None:
            codec = row_codec
            feature_names = build_feature_set(codec).names
            for column in feature_names:
                if column not in header:
                    raise DataValidationError(f"missing column {column!r}")
        elif row_codec is not codec:
            raise DataValidationError(
                f"mixed codecs: {codec.value} and {row_codec.value}", row=line_no
            )
        counts = []
        for name in feature_names:
            value = _parse_optional_float(row.get(name), name, line_no)
            if value is None:
                raise DataValidationError(f"column {name!r}: empty count", row=line_no)
            counts.append(value)
        energy = _parse_optional_float(row.get("energy_joules"), "energy_joules", line_no)
        if energy is None and require_energy:
            raise DataValidationError("missing energy value", row=line_no)
        known = set(BASE_COLUMNS) | set(feature_names)
        tags = {
            key: (row.get(key) or "")
            for key in header
            if key not in known
        }
        try:
            record = BitstreamRecord(
                stream_id=(row.get("stream_id") or "").strip(),
                codec=row_codec,
                features=FeatureVector(build_feature_set(row_codec), counts),
                width=_parse_optional_int(row.get("width"), "width", line_no),
                height=_parse_optional_int(row.get("height"), "height", line_no),
                frames=_parse_optional_int(row.get("frames"), "frames", line_no),
                file_size_bytes=_parse_optional_int(
                    row.get("file_size_bytes"), "file_size_bytes", line_no
                ),
                intra_frames=_parse_optional_int(
                    row.get("intra_frames"), "intra_frames", line_no
                ),
                energy_joules=energy,
                tags=tags,
            )
        except DataValidationError as exc:
            raise DataValidationError(str(exc), row=line_no) from None
        records.append(record)
    try:
        return Dataset(tuple(records))
    except DataValidationError as exc:
        raise DataValidationError(str(exc)) from None


def _json_number(name: str, value, row: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataValidationError(f"{name!r}: not a number: {value!r}", row=row)
    try:
        return float(value)
    except OverflowError:
        raise DataValidationError(f"{name!r}: too large for a float", row=row) from None


def dataset_from_json(text: str, require_energy: bool = True) -> Dataset:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "codec" not in doc or not isinstance(doc.get("records"), list):
        raise DataValidationError("dataset JSON must carry 'codec' and a 'records' list")
    codec = Codec.from_name(doc["codec"])
    fs = build_feature_set(codec)
    records = []
    for i, raw in enumerate(doc["records"], start=1):
        if not isinstance(raw, dict):
            raise DataValidationError("record is not a JSON object", row=i)
        features = raw.get("features")
        if not isinstance(features, dict):
            raise DataValidationError("record without 'features' object", row=i)
        for problem, names in (
            ("missing", set(fs.names) - set(features)),
            ("unknown", set(features) - set(fs.names)),
        ):
            if names:
                raise DataValidationError(
                    f"{problem} features: {', '.join(sorted(names))}", row=i
                )
        counts = {name: _json_number(name, value, i) for name, value in features.items()}
        energy = raw.get("energy_joules")
        if energy is None and require_energy:
            raise DataValidationError("missing energy value", row=i)
        if energy is not None:
            energy = _json_number("energy_joules", energy, i)
        metadata = {name: raw.get(name) for name in METADATA_COLUMNS}
        for name, value in metadata.items():
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise DataValidationError(f"{name!r}: not an integer: {value!r}", row=i)
        tags = raw.get("tags", {})
        if not isinstance(tags, dict):
            raise DataValidationError(f"'tags': not an object: {tags!r}", row=i)
        stream_id = raw.get("stream_id", "")
        if not isinstance(stream_id, str):
            raise DataValidationError(f"'stream_id': not a string: {stream_id!r}", row=i)
        try:
            records.append(
                BitstreamRecord(
                    stream_id=stream_id,
                    codec=codec,
                    features=FeatureVector.from_dict(fs, counts),
                    **metadata,
                    energy_joules=energy,
                    tags=tags,
                )
            )
        except DataValidationError as exc:
            raise DataValidationError(str(exc), row=i) from None
    return Dataset(tuple(records))


_INTRA_ENERGY = {4: 2e-7, 8: 6e-7, 16: 2e-6, 32: 6e-6}
_INTER_ENERGY = {4: 1.5e-7, 8: 4.5e-7, 16: 1.4e-6, 32: 4e-6, 64: 1.2e-5}
_TRANS_ENERGY = {4: 1e-7, 8: 3e-7, 16: 1e-6, 32: 3e-6}

_INTRA_RANGE = {4: (200, 5e4), 8: (100, 2e4), 16: (50, 8e3), 32: (10, 2e3)}
_INTER_RANGE = {4: (200, 8e4), 8: (100, 4e4), 16: (50, 1.5e4), 32: (20, 4e3), 64: (10, 1e3)}
_TRANS_RANGE = {4: (200, 6e4), 8: (100, 3e4), 16: (50, 1e4), 32: (10, 4e3)}


def default_specific_energies(codec: Codec) -> SpecificEnergies:
    """Plausible joules-per-occurrence values, heterogeneous across features."""
    fs = build_feature_set(codec)
    values = []
    for fid in fs:
        if fid.kind is Kind.E0:
            values.append(0.06)
        elif fid.kind is Kind.FRAME:
            values.append(1.8e-3)
        elif fid.kind is Kind.INTRA:
            values.append(_INTRA_ENERGY[fid.block_size])
        elif fid.kind is Kind.INTER:
            values.append(_INTER_ENERGY[fid.block_size])
        elif fid.kind is Kind.OBMC:
            values.append(2.5e-6)
        elif fid.kind is Kind.PEL:
            values.append(3.5e-9)
        elif fid.kind is Kind.FRAC:
            values.append(6e-9)
        elif fid.kind is Kind.TRANS:
            values.append(_TRANS_ENERGY[fid.block_size])
        elif fid.kind is Kind.COEFF:
            values.append(9e-8 if fid.name.endswith("cabac") else 7e-8)
        elif fid.kind is Kind.VAL:
            values.append(3e-8 if fid.name.endswith("cabac") else 2.5e-8)
        elif fid.kind is Kind.SAO:
            values.append(2.5e-6)
        else:
            raise AssertionError(fid.kind)
    return SpecificEnergies(fs, np.array(values))


def default_count_ranges(codec: Codec) -> dict[str, tuple[float, float]]:
    """Uniform draw ranges per feature used by :func:`synth_dataset`."""
    fs = build_feature_set(codec)
    ranges: dict[str, tuple[float, float]] = {}
    for fid in fs:
        if fid.kind in (Kind.E0, Kind.FRAME):
            continue  # e0 is fixed, frame follows the drawn frame count
        if fid.kind is Kind.INTRA:
            ranges[fid.name] = _INTRA_RANGE[fid.block_size]
        elif fid.kind is Kind.INTER:
            ranges[fid.name] = _INTER_RANGE[fid.block_size]
        elif fid.kind is Kind.OBMC:
            ranges[fid.name] = (0, 3e3)
        elif fid.kind is Kind.PEL:
            ranges[fid.name] = (1e5, 5e7)
        elif fid.kind is Kind.FRAC:
            ranges[fid.name] = (0, 6e7)
        elif fid.kind is Kind.TRANS:
            ranges[fid.name] = _TRANS_RANGE[fid.block_size]
        elif fid.kind is Kind.COEFF:
            ranges[fid.name] = (1e3, 1e6)
        elif fid.kind is Kind.VAL:
            ranges[fid.name] = (2e3, 4e6)
        elif fid.kind is Kind.SAO:
            ranges[fid.name] = (0, 5e3)
    return ranges


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Generate a dataset from a :class:`SynthSpec`; deterministic per seed."""
    fs = build_feature_set(spec.codec)
    params = spec.true_params or default_specific_energies(spec.codec)
    ranges = dict(default_count_ranges(spec.codec))
    if spec.count_ranges:
        for name, bounds in spec.count_ranges.items():
            fs.index_of(name)  # reject unknown names
            ranges[name] = bounds
    rng = np.random.default_rng(spec.seed)
    records = []
    for i in range(spec.count):
        width, height = RESOLUTIONS[int(rng.integers(len(RESOLUTIONS)))]
        frames = int(rng.integers(8, 65))
        intra_frames = int(rng.integers(0, frames + 1))
        counts = np.empty(len(fs))
        for j, fid in enumerate(fs):
            if fid.kind is Kind.E0:
                counts[j] = 1.0
            elif fid.kind is Kind.FRAME:
                counts[j] = float(frames)
            else:
                lo, hi = ranges[fid.name]
                counts[j] = rng.uniform(lo, hi)
        vector = FeatureVector(fs, counts)
        energy_true = predict_feature_model(params, vector)
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
        coeff_total = sum(
            counts[j] for j, fid in enumerate(fs) if fid.kind is Kind.COEFF
        )
        val_total = sum(counts[j] for j, fid in enumerate(fs) if fid.kind is Kind.VAL)
        file_size = max(1, int(round(200.0 * frames + 2.0 * coeff_total + 0.6 * val_total)))
        records.append(
            BitstreamRecord(
                stream_id=f"synth-{spec.codec.value}-{i:04d}",
                codec=spec.codec,
                features=vector,
                width=width,
                height=height,
                frames=frames,
                file_size_bytes=file_size,
                intra_frames=intra_frames,
                energy_joules=float(energy),
            )
        )
    return Dataset(tuple(records))
