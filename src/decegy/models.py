"""Energy predictors: the per-feature linear model and two high-level baselines.

The feature-based model estimates the decoding energy of a bitstream as the
sum over all features of count times specific energy (joules per occurrence).
The two baselines estimate energy from high-level stream properties only:

* HL1 from resolution, frame count and file size, with a power-law term in
  bytes per pixel;
* HL2 additionally from the rate of intra frames, as a bilinear form scaled
  by total pixels.

File sizes are in bytes and energies in joules throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataValidationError, about_file, json_feature_values, json_number
from .errors import json_text, read_json, read_text
from .taxonomy import Category, Codec, FeatureSet, FeatureVector, build_feature_set


@dataclass(frozen=True)
class SpecificEnergies:
    """Fitted joules-per-occurrence values, aligned with a feature set."""

    feature_set: FeatureSet
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (len(self.feature_set),):
            raise ValueError(
                f"expected {len(self.feature_set)} values, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("specific energies must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_dict(cls, feature_set: FeatureSet, mapping, default: float = 0.0):
        values = np.full(len(feature_set), default, dtype=float)
        for name, value in mapping.items():
            values[feature_set.index_of(name)] = float(value)
        return cls(feature_set, values)

    def __getitem__(self, feature) -> float:
        return float(self.values[self.feature_set.index_of(feature)])

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.feature_set.names, self.values)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpecificEnergies):
            return NotImplemented
        return self.feature_set == other.feature_set and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class HighLevelInfo:
    """High-level properties of one bitstream.

    pixels_per_frame is luma width times height; intra_rate is the number of
    intra frames divided by the total number of frames.
    """

    pixels_per_frame: float
    frames: int
    file_size_bytes: float
    intra_rate: float

    def __post_init__(self):
        if not (self.pixels_per_frame > 0 and self.frames > 0 and self.file_size_bytes > 0):
            raise ValueError("pixels_per_frame, frames and file_size_bytes must be > 0")
        if not 0.0 <= self.intra_rate <= 1.0:
            raise ValueError(f"intra_rate must be in [0, 1], got {self.intra_rate}")


class HighLevelColumns(NamedTuple):
    """The :class:`HighLevelInfo` fields of many streams as float arrays, and their energies."""

    pixels_per_frame: np.ndarray
    frames: np.ndarray
    file_size_bytes: np.ndarray
    intra_rate: np.ndarray
    energies: np.ndarray

    @classmethod
    def of(cls, streams) -> HighLevelColumns:
        """Columns as they are, or the columns of (HighLevelInfo, energy) pairs."""
        if isinstance(streams, cls):
            return streams
        rows = [(*astuple(info), energy) for info, energy in streams]
        return cls(*np.array(rows, dtype=float).reshape(-1, 5).T)

    @property
    def pixels(self) -> np.ndarray:
        """Pixels per stream: pixels per frame times frames."""
        return self.pixels_per_frame * self.frames

    def infos(self) -> Iterator[HighLevelInfo]:
        """One :class:`HighLevelInfo` per stream."""
        for pixels, frames, size, rate in zip(*(column.tolist() for column in self[:4])):
            yield HighLevelInfo(pixels, int(frames), size, rate)


def _require_finite(params) -> None:
    for name, v in params.__dict__.items():
        if not math.isfinite(v):
            raise DataValidationError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class HL1Params:
    """Offset/pixel/power-law parameters of the first high-level model.

    Estimated energy: base + S*N*(per_pixel + rate_coeff*(B/(S*N))**rate_power)
    with S pixels per frame, N frames and B bytes.
    """

    base_joules: float
    per_pixel_joules: float
    rate_coeff: float
    rate_power: float

    def __post_init__(self):
        _require_finite(self)
        if not self.rate_power > 0:
            raise DataValidationError("rate_power must be > 0")
        if self.rate_coeff < 0:
            raise DataValidationError("rate_coeff must be >= 0")


@dataclass(frozen=True)
class HL2Params:
    """Coefficients of the intra-rate/bitrate bilinear high-level model.

    Estimated energy:
    (c_ib*p*B/(S*N) + c_i*p + c_b*B/(S*N) + c_0) * N * S, where p is the
    intra-frame rate; fields in regressor order (c_ib, c_i, c_b, c_0).
    """

    intra_bytes_coeff: float
    intra_coeff: float
    bytes_coeff: float
    base_coeff: float

    def __post_init__(self):
        _require_finite(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return astuple(self)


def _require_same_set(energies: SpecificEnergies, vector: FeatureVector) -> None:
    if energies.feature_set != vector.feature_set:
        raise ValueError(
            "feature set mismatch between specific energies "
            f"({energies.feature_set.codec.value}) and vector "
            f"({vector.feature_set.codec.value})"
        )
    if len(vector.counts) != len(energies.values):
        raise ValueError(
            f"vector length {len(vector.counts)} does not match "
            f"feature set size {len(energies.values)}"
        )


_OVERFLOW = "estimated energy overflows the float range"


def _fsum(terms) -> float:
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or a finite sum past the float range
        raise DataValidationError(_OVERFLOW) from None


def _finite(energy: float) -> float:
    if not math.isfinite(energy):
        raise DataValidationError(_OVERFLOW)
    return energy


def predict_feature_model(energies: SpecificEnergies, vector: FeatureVector) -> float:
    """Estimated decoding energy: sum of count times specific energy.

    Uses exact (compensated) summation; pel counts reach 1e8 while offset
    terms sit near 1e-1, so naive accumulation would lose digits.
    """
    _require_same_set(energies, vector)
    return _fsum(energies.values * vector.counts)


def category_breakdown(
    energies: SpecificEnergies, vector: FeatureVector
) -> dict[Category, float]:
    """Estimated energy split by feature category.

    All six categories are present in the result (zero when the codec has no
    such features); the values sum to :func:`predict_feature_model`.
    """
    return dict(zip(Category, category_sums(energies, vector)))


def category_sums(energies: SpecificEnergies, vector: FeatureVector) -> tuple[float, ...]:
    """The values of :func:`category_breakdown`, in :class:`Category` order."""
    _require_same_set(energies, vector)
    products = (energies.values * vector.counts).tolist()
    columns = energies.feature_set.category_columns.values()
    return tuple(_fsum([products[i] for i in indices]) for indices in columns)


def predict_hl1(params: HL1Params, info: HighLevelInfo) -> float:
    """First high-level baseline: offset plus per-pixel power law in bytes/pixel."""
    pixels = info.pixels_per_frame * info.frames
    bytes_per_pixel = info.file_size_bytes / pixels
    try:
        power = bytes_per_pixel ** params.rate_power
    except OverflowError:
        raise DataValidationError(_OVERFLOW) from None
    per_pixel = params.per_pixel_joules + params.rate_coeff * power
    return _finite(params.base_joules + pixels * per_pixel)


def predict_hl2(params: HL2Params, info: HighLevelInfo) -> float:
    """Second high-level baseline: bilinear in intra rate and bytes/pixel."""
    pixels = info.pixels_per_frame * info.frames
    bytes_per_pixel = info.file_size_bytes / pixels
    per_pixel = (
        params.intra_bytes_coeff * info.intra_rate * bytes_per_pixel
        + params.intra_coeff * info.intra_rate
        + params.bytes_coeff * bytes_per_pixel
        + params.base_coeff
    )
    return _finite(per_pixel * pixels)


# ---------------------------------------------------------------------------
# Parameter files (JSON)

ModelParams = SpecificEnergies | HL1Params | HL2Params


def params_to_dict(params: ModelParams) -> dict:
    """The fitted values of a parameter file, without its model and codec fields."""
    if isinstance(params, SpecificEnergies):
        return {"specific_energies": params.as_dict()}
    return asdict(params)


def _model_kinds() -> dict[str, type]:
    from .evaluation import MODELS  # evaluation imports this module

    return {kind: model.params_type for kind, model in MODELS.items()}


def params_to_json(params, codec: Codec, indent: int | None = 2, extra: dict | None = None) -> str:
    """Serialize fitted parameters of any of the three models."""
    kind = next((k for k, cls in _model_kinds().items() if isinstance(params, cls)), None)
    if kind is None:
        raise TypeError(f"unsupported parameter object {type(params).__name__}")
    doc = {"model": kind, "codec": codec.value, **params_to_dict(params)}
    if extra:
        doc.update(extra)
    return json_text(doc, indent)


def params_from_json(text: str):
    """Parse a parameter file; returns (model_kind, codec, params)."""
    doc = read_json(text)
    if not isinstance(doc, dict) or "model" not in doc or "codec" not in doc:
        raise DataValidationError("parameter file must carry 'model' and 'codec' fields")
    kind = doc["model"]
    codec = Codec.from_name(doc["codec"])
    kinds = _model_kinds()
    if not isinstance(kind, str) or kind not in kinds:
        raise DataValidationError(f"unknown model kind {kind!r}")
    cls = kinds[kind]
    if cls is SpecificEnergies:
        fs = build_feature_set(codec)
        mapping = doc.get("specific_energies")
        if not isinstance(mapping, dict):
            raise DataValidationError(f"'specific_energies': not an object: {mapping!r}")
        return kind, codec, SpecificEnergies.from_dict(fs, json_feature_values(fs.names, mapping))
    return kind, codec, cls(**{f.name: json_number(f.name, doc.get(f.name)) for f in fields(cls)})


def save_params(params, codec: Codec, path, extra: dict | None = None) -> None:
    Path(path).write_text(params_to_json(params, codec, extra=extra) + "\n", encoding="utf-8")


def load_params(path):
    """Read a parameter file; errors name the file."""
    with about_file(path):
        return params_from_json(read_text(path))
