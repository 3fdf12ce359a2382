"""Dataset schema, CSV/JSON loading and saving, and the synthetic generator.

A dataset holds one record per bitstream of a single codec: the feature
counts, the high-level stream metadata and the measured (or synthesized)
decoding energy.  The CSV schema is

    stream_id,codec,width,height,frames,file_size_bytes,intra_frames,
    energy_joules,<feature columns in canonical order>

with unknown extra columns preserved as free-form tags.  Numbers are decimal,
files UTF-8 with LF line endings.  The metadata and energy cells may be empty
(e.g. rows produced by trace analysis before measurements are merged in).

The synthetic generator replaces physical measurements: it draws feature
counts, computes the exact feature-model energy under known specific energies
and optionally applies multiplicative Gaussian noise, so fits and
cross-validation can be checked against ground truth.
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
        for name in ("width", "height", "frames", "file_size_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
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


def _parse_optional_int(raw: str | None, column: str, row: int) -> int | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise DataValidationError(f"column {column!r}: not an integer: {raw!r}", row=row) from None


def _parse_optional_float(raw: str | None, column: str, row: int) -> float | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DataValidationError(f"column {column!r}: not a number: {raw!r}", row=row) from None


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


def dataset_from_json(text: str, require_energy: bool = True) -> Dataset:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "codec" not in doc or "records" not in doc:
        raise DataValidationError("dataset JSON must carry 'codec' and 'records'")
    codec = Codec.from_name(doc["codec"])
    fs = build_feature_set(codec)
    records = []
    for i, raw in enumerate(doc["records"], start=1):
        features = raw.get("features")
        if not isinstance(features, dict):
            raise DataValidationError("record without 'features' object", row=i)
        missing = set(fs.names) - set(features)
        if missing:
            raise DataValidationError(
                f"missing features: {', '.join(sorted(missing))}", row=i
            )
        energy = raw.get("energy_joules")
        if energy is None and require_energy:
            raise DataValidationError("missing energy value", row=i)
        if energy is not None and (isinstance(energy, bool) or not isinstance(energy, (int, float))):
            raise DataValidationError(f"'energy_joules': not a number: {energy!r}", row=i)
        metadata = {name: raw.get(name) for name in METADATA_COLUMNS}
        for name, value in metadata.items():
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise DataValidationError(f"{name!r}: not an integer: {value!r}", row=i)
        try:
            records.append(
                BitstreamRecord(
                    stream_id=str(raw.get("stream_id", "")),
                    codec=codec,
                    features=FeatureVector.from_dict(fs, features),
                    **metadata,
                    energy_joules=energy,
                    tags=raw.get("tags", {}),
                )
            )
        except DataValidationError as exc:
            raise DataValidationError(str(exc), row=i) from None
    return Dataset(tuple(records))


# ---------------------------------------------------------------------------
# Synthetic oracle datasets

#: Typical luma resolutions drawn by the generator (width, height).
RESOLUTIONS = ((416, 240), (832, 480), (1280, 720), (1920, 1080))

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
                if lo < 0 or hi < lo:
                    raise ValueError(f"bad range for {name!r}: ({lo}, {hi})")


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
