"""Dataset schema, CSV/JSON loading and saving, and the synthetic generator.

A dataset holds one record per bitstream of a single codec: the feature
counts, the high-level stream metadata and the measured (or synthesized)
decoding energy.  The CSV schema is

    stream_id,codec,width,height,frames,file_size_bytes,intra_frames,
    energy_joules,<feature columns in canonical order>

with unknown extra columns preserved as free-form tags.  Numbers are decimal,
files UTF-8 with LF line endings.  The metadata and energy cells may be empty
(e.g. rows produced by trace analysis before measurements are merged in);
metadata integers may not exceed 2**53.  Row errors get the row number in one
place per loader (CSV rows count the header line, JSON rows count records).

The synthetic generator replaces physical measurements: it draws feature
counts, computes the exact feature-model energy under known specific energies
and optionally applies multiplicative Gaussian noise, so fits and
cross-validation can be checked against ground truth.  One table holds the
default specific energy and count range of every feature name of all codecs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .errors import DataValidationError
from .models import HighLevelInfo, SpecificEnergies, predict_feature_model
from .taxonomy import (
    Codec,
    FeatureSet,
    FeatureVector,
    Kind,
    build_feature_set,
    validate_vector,
)

#: Integer stream metadata, all five needed by the high-level models.
METADATA_COLUMNS = ("width", "height", "frames", "file_size_bytes", "intra_frames")
BASE_COLUMNS = ("stream_id", "codec", *METADATA_COLUMNS, "energy_joules")


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
        if not self.stream_id:
            raise DataValidationError("empty stream_id")
        if self.features.feature_set.codec is not self.codec:
            raise DataValidationError(
                f"feature vector is for {self.features.feature_set.codec.value}, "
                f"record says {self.codec.value}"
            )
        violations = validate_vector(self.features.feature_set, self.features)
        if violations:
            raise DataValidationError("; ".join(violations))
        energy = self.energy_joules
        if energy is not None and not (math.isfinite(energy) and energy > 0):
            raise DataValidationError(f"non-finite or nonpositive energy: {energy}")
        for name in METADATA_COLUMNS:
            value = getattr(self, name)
            if value is not None and value > 2**53:  # the models compute with floats
                raise DataValidationError(f"{name} must be at most 2**53")
            if value is not None and value <= 0 and name != "intra_frames":
                raise DataValidationError(f"{name} must be positive, got {value}")
        if self.intra_frames is not None:
            if self.intra_frames < 0:
                raise DataValidationError("intra_frames must be >= 0")
            if self.frames is not None and self.intra_frames > self.frames:
                raise DataValidationError("intra_frames exceeds frames")
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


@dataclass(frozen=True)
class Dataset:
    """Records of one codec with unique stream ids."""

    records: tuple[BitstreamRecord, ...]

    def __post_init__(self):
        seen: set[str] = set()
        codec = None
        for rec in self.records:
            if codec is None:
                codec = rec.codec
            elif rec.codec is not codec:
                raise DataValidationError(
                    f"mixed codecs: {codec.value} and {rec.codec.value}"
                )
            if rec.stream_id in seen:
                raise DataValidationError(f"duplicate stream_id {rec.stream_id!r}")
            seen.add(rec.stream_id)

    @property
    def codec(self) -> Codec:
        if not self.records:
            raise DataValidationError("empty dataset has no codec")
        return self.records[0].codec

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[BitstreamRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> BitstreamRecord:
        return self.records[index]

    def get(self, stream_id: str) -> BitstreamRecord:
        for rec in self.records:
            if rec.stream_id == stream_id:
                return rec
        raise KeyError(f"unknown stream id {stream_id!r}")


# ---------------------------------------------------------------------------
# CSV / JSON serialization


def _format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _detect_format(path, format: str | None) -> str:
    if format is not None:
        if format not in ("csv", "json"):
            raise ValueError(f"unknown format {format!r}")
        return format
    return "json" if str(path).endswith(".json") else "csv"


def export_dataset(dataset: Dataset, path, format: str | None = None) -> None:
    """Write a dataset; loading the file back reproduces it exactly.

    Counts and energies are written with full precision so the round trip is
    bitwise.  The format is taken from the file suffix unless given.
    """
    if not dataset.records:
        raise DataValidationError("empty dataset")
    fmt = _detect_format(path, format)
    text = dataset_to_json(dataset) if fmt == "json" else dataset_to_csv(dataset)
    Path(path).write_text(text, encoding="utf-8", newline="")


def dataset_to_csv(dataset: Dataset) -> str:
    if not dataset.records:
        raise DataValidationError("empty dataset")
    feature_names = build_feature_set(dataset.codec).names
    tag_keys = sorted({key for rec in dataset for key in rec.tags})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(BASE_COLUMNS) + list(feature_names) + tag_keys)
    for rec in dataset:
        row = [
            rec.stream_id,
            rec.codec.value,
            _format_number(rec.width),
            _format_number(rec.height),
            _format_number(rec.frames),
            _format_number(rec.file_size_bytes),
            _format_number(rec.intra_frames),
            _format_number(rec.energy_joules),
        ]
        row += [repr(float(c)) for c in rec.features.counts]
        row += [rec.tags.get(key, "") for key in tag_keys]
        writer.writerow(row)
    return out.getvalue()


def dataset_to_json(dataset: Dataset) -> str:
    if not dataset.records:
        raise DataValidationError("empty dataset")
    records = []
    for rec in dataset:
        records.append(
            {
                "stream_id": rec.stream_id,
                "width": rec.width,
                "height": rec.height,
                "frames": rec.frames,
                "file_size_bytes": rec.file_size_bytes,
                "intra_frames": rec.intra_frames,
                "energy_joules": rec.energy_joules,
                "features": rec.features.as_dict(),
                "tags": dict(rec.tags),
            }
        )
    return json.dumps({"codec": dataset.codec.value, "records": records}, indent=2) + "\n"


def _parse_cell(raw: str | None, column: str, parse=float) -> int | float | None:
    """A CSV number cell read by ``parse`` (int or float); None when empty."""
    if raw is None or raw.strip() == "":
        return None
    try:
        return parse(raw)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise DataValidationError(f"column {column!r}: not {what}: {raw!r}") from None


def load_dataset(path, format: str | None = None, require_energy: bool = True) -> Dataset:
    """Load and validate a dataset file.

    Every record is validated (vector invariants, positive energy); failures
    report the offending row.  ``require_energy=False`` admits rows whose
    energy cell is empty (prediction inputs).
    """
    fmt = _detect_format(path, format)
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        return dataset_from_json(text, require_energy=require_energy)
    return dataset_from_csv(text, require_energy=require_energy)


def _first_csv_codec(row: dict, header: list[str]) -> Codec | None:
    """The first row's codec once its feature columns are in the header, or None
    when the codec is unreadable (the row itself then reports it)."""
    try:
        codec = Codec.from_name((row.get("codec") or "").strip())
    except ValueError:
        return None
    for column in build_feature_set(codec).names:
        if column not in header:
            raise DataValidationError(f"missing column {column!r}")
    return codec


def _csv_record(
    row: dict, codec: Codec | None, header: list[str], require_energy: bool
) -> BitstreamRecord:
    """One CSV row as a record of ``codec``; errors carry no row number."""
    row_codec = Codec.from_name((row.get("codec") or "").strip())
    if row_codec is not codec:
        raise DataValidationError(f"mixed codecs: {codec.value} and {row_codec.value}")
    fs = build_feature_set(codec)
    counts = []
    for name in fs.names:
        value = _parse_cell(row.get(name), name)
        if value is None:
            raise DataValidationError(f"column {name!r}: empty count")
        counts.append(value)
    energy = _parse_cell(row.get("energy_joules"), "energy_joules")
    if energy is None and require_energy:
        raise DataValidationError("missing energy value")
    known = set(BASE_COLUMNS) | set(fs.names)
    return BitstreamRecord(
        stream_id=(row.get("stream_id") or "").strip(),
        codec=codec,
        features=FeatureVector(fs, counts),
        **{name: _parse_cell(row.get(name), name, int) for name in METADATA_COLUMNS},
        energy_joules=energy,
        tags={key: (row.get(key) or "") for key in header if key not in known},
    )


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
    for line_no, row in enumerate(reader, start=2):
        if codec is None:
            codec = _first_csv_codec(row, header)
        try:
            records.append(_csv_record(row, codec, header, require_energy))
        except (DataValidationError, ValueError) as exc:  # ValueError: unknown codec
            raise DataValidationError(str(exc), row=line_no) from None
    return Dataset(tuple(records))


def _json_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataValidationError(f"{name!r}: not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DataValidationError(f"{name!r}: too large for a float") from None


def _json_record(raw, fs: FeatureSet, require_energy: bool) -> BitstreamRecord:
    """One JSON record object as a record; errors carry no row number."""
    if not isinstance(raw, dict):
        raise DataValidationError("record is not a JSON object")
    features = raw.get("features")
    if not isinstance(features, dict):
        raise DataValidationError("record without 'features' object")
    for problem, names in (
        ("missing", set(fs.names) - set(features)),
        ("unknown", set(features) - set(fs.names)),
    ):
        if names:
            raise DataValidationError(f"{problem} features: {', '.join(sorted(names))}")
    counts = {name: _json_number(name, value) for name, value in features.items()}
    energy = raw.get("energy_joules")
    if energy is None and require_energy:
        raise DataValidationError("missing energy value")
    if energy is not None:
        energy = _json_number("energy_joules", energy)
    metadata = {name: raw.get(name) for name in METADATA_COLUMNS}
    for name, value in metadata.items():
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise DataValidationError(f"{name!r}: not an integer: {value!r}")
    tags = raw.get("tags", {})
    if not isinstance(tags, dict):
        raise DataValidationError(f"'tags': not an object: {tags!r}")
    return BitstreamRecord(
        stream_id=str(raw.get("stream_id", "")),
        codec=fs.codec,
        features=FeatureVector.from_dict(fs, counts),
        **metadata,
        energy_joules=energy,
        tags=tags,
    )


def dataset_from_json(text: str, require_energy: bool = True) -> Dataset:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise DataValidationError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "codec" not in doc or not isinstance(doc.get("records"), list):
        raise DataValidationError("dataset JSON must carry 'codec' and a 'records' list")
    fs = build_feature_set(Codec.from_name(doc["codec"]))
    records = []
    for i, raw in enumerate(doc["records"], start=1):
        try:
            records.append(_json_record(raw, fs, require_energy))
        except DataValidationError as exc:
            raise DataValidationError(str(exc), row=i) from None
    return Dataset(tuple(records))


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
            raise ValueError("count must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
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
    records = []
    for i in range(spec.count):
        width, height = RESOLUTIONS[int(rng.integers(len(RESOLUTIONS)))]
        frames = int(rng.integers(8, 65))
        intra_frames = int(rng.integers(0, frames + 1))
        counts = np.empty(len(fs))
        counts[e0], counts[frame] = 1.0, float(frames)
        counts[drawn] = rng.uniform(lows, highs)
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
        coeff_total, val_total = sum(counts[coeff]), sum(counts[val])
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
