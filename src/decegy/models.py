"""Energy predictors: the per-feature linear model and two high-level baselines.

The feature-based model estimates the decoding energy of a bitstream as the
sum over all features of count times specific energy (joules per occurrence).
The two baselines estimate energy from high-level stream properties only:

* HL1 from resolution, frame count and file size, with a power-law term in
  bytes per pixel;
* HL2 additionally from the rate of intra frames, as a bilinear form scaled
  by total pixels.

The feature model's sum has one core: :func:`feature_estimate`, and
:func:`estimate_by_category`, which also splits the same products by category.
``predict``, ``report`` and ``synth`` call it on dataset rows, and
:func:`predict_feature_model` and :func:`category_breakdown` on one checked vector.

File sizes are in bytes and energies in joules throughout.
"""

from __future__ import annotations

import math
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DataValidationError, about_file, json_feature_values, json_number
from .errors import json_text, read_json, read_text
from .taxonomy import Category, Codec, FeatureSet, FeatureValues, FeatureVector, build_feature_set
from .taxonomy import Frozen, float_array

if TYPE_CHECKING:
    import numpy as np


class SpecificEnergies(FeatureValues):
    """Fitted joules-per-occurrence values of a feature set, read-only in :attr:`values`."""

    __slots__ = ()
    values = property(FeatureValues._read)

    def __init__(self, feature_set: FeatureSet, values):
        super().__init__(feature_set, values)
        if len(self) != len(feature_set):
            raise ValueError(f"expected {len(feature_set)} values, got {len(self)}")
        if not all(map(math.isfinite, self.floats)):
            raise DataValidationError("specific energies must be finite")


class HighLevelInfo(Frozen):
    """High-level properties of one bitstream.

    pixels_per_frame is luma width times height; intra_rate is the number of
    intra frames divided by the total number of frames.
    """

    __slots__ = ("pixels_per_frame", "frames", "file_size_bytes", "intra_rate")

    def __init__(self, pixels_per_frame: float, frames: int, file_size_bytes: float,
                 intra_rate: float):
        if not (pixels_per_frame > 0 and frames > 0 and file_size_bytes > 0):
            raise ValueError("pixels_per_frame, frames and file_size_bytes must be > 0")
        if not 0.0 <= intra_rate <= 1.0:
            raise ValueError(f"intra_rate must be in [0, 1], got {intra_rate}")
        self._set(pixels_per_frame, frames, file_size_bytes, intra_rate)


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
        rows = [(*info._values(), energy) for info, energy in streams]
        return cls(*float_array(rows).reshape(-1, 5).T)

    @property
    def pixels(self) -> np.ndarray:
        """Pixels per stream: pixels per frame times frames."""
        return self.pixels_per_frame * self.frames


def _require_finite(params) -> None:
    for name, v in zip(params._fields, params._values()):
        if not math.isfinite(v):
            raise DataValidationError(f"{name} must be finite, got {v}")


class HL1Params(Frozen):
    """Parameters of the first high-level model, whose estimate is :func:`hl1_estimate`."""

    __slots__ = ("base_joules", "per_pixel_joules", "rate_coeff", "rate_power")

    def __init__(self, base_joules: float, per_pixel_joules: float, rate_coeff: float,
                 rate_power: float):
        self._set(base_joules, per_pixel_joules, rate_coeff, rate_power)
        _require_finite(self)
        if not self.rate_power > 0:
            raise DataValidationError("rate_power must be > 0")
        if self.rate_coeff < 0:
            raise DataValidationError("rate_coeff must be >= 0")


class HL2Params(Frozen):
    """Coefficients of the intra-rate/bitrate bilinear high-level model.

    Estimated energy:
    (c_ib*p*B/(S*N) + c_i*p + c_b*B/(S*N) + c_0) * N * S, where p is the
    intra-frame rate; fields in regressor order (c_ib, c_i, c_b, c_0).
    """

    __slots__ = ("intra_bytes_coeff", "intra_coeff", "bytes_coeff", "base_coeff")

    def __init__(self, intra_bytes_coeff: float, intra_coeff: float, bytes_coeff: float,
                 base_coeff: float):
        self._set(intra_bytes_coeff, intra_coeff, bytes_coeff, base_coeff)
        _require_finite(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self._values()


def feature_values(energies: SpecificEnergies, feature_set: FeatureSet) -> tuple[float, ...]:
    """The specific energies as floats, once they are known to be those of ``feature_set``."""
    if feature_set is not energies.feature_set and feature_set != energies.feature_set:
        raise ValueError(
            "feature set mismatch between specific energies "
            f"({energies.feature_set.codec.value}) and vector ({feature_set.codec.value})"
        )
    return energies.floats


_OVERFLOW = "estimated energy overflows the float range"


def _fsum(terms) -> float:
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or a finite sum past the float range
        total = math.inf
    return _finite(total)  # a product past the float range sums to an infinity


def _finite(energy: float) -> float:
    if not math.isfinite(energy):
        raise DataValidationError(_OVERFLOW)
    return energy


def feature_estimate(values, counts) -> float:
    """The sum of count times specific energy, from :func:`feature_values` and counts in their
    order.  The sum is exact (compensated): pel counts reach 1e8 while offset terms sit near
    1e-1, so naive accumulation would lose digits."""
    return _fsum(map(mul, values, counts))


def _checked(energies: SpecificEnergies, vector: FeatureVector) -> tuple[tuple, tuple]:
    """The specific energies and counts as floats, once they are of one feature set and size."""
    values, counts = feature_values(energies, vector.feature_set), vector.floats
    if len(counts) != len(values):
        raise ValueError(
            f"vector length {len(counts)} does not match feature set size {len(values)}"
        )
    return values, counts


def predict_feature_model(energies: SpecificEnergies, vector: FeatureVector) -> float:
    """Estimated decoding energy of a vector, as :func:`feature_estimate` sums it."""
    return feature_estimate(*_checked(energies, vector))


def category_breakdown(
    energies: SpecificEnergies, vector: FeatureVector
) -> dict[Category, float]:
    """Estimated energy split by feature category.

    All six categories are present in the result (zero when the codec has no
    such features); the values sum to :func:`predict_feature_model`.
    """
    _, parts = estimate_by_category(energies.feature_set, *_checked(energies, vector))
    return dict(zip(Category, parts))


def estimate_by_category(feature_set: FeatureSet, values, counts) -> tuple[float, tuple]:
    """The :func:`feature_estimate` of one stream and its sum per category, in
    :class:`Category` order, from one pass over the products."""
    products = list(map(mul, values, counts))
    return _fsum(products), tuple(_fsum([products[i] for i in columns])
                                  for columns in feature_set.category_columns.values())


def hl1_estimate(params: HL1Params, pixels, bytes_per_pixel):
    """HL1's estimate, base + pixels*(per_pixel + rate_coeff*bytes_per_pixel**rate_power),
    of one stream from floats or of many from numpy arrays."""
    power = bytes_per_pixel ** params.rate_power
    return params.base_joules + pixels * (params.per_pixel_joules + params.rate_coeff * power)


def predict_hl1(params: HL1Params, info: HighLevelInfo) -> float:
    """First high-level baseline: offset plus per-pixel power law in bytes/pixel."""
    pixels = info.pixels_per_frame * info.frames
    try:
        energy = hl1_estimate(params, pixels, info.file_size_bytes / pixels)
    except OverflowError:  # a float power past the float range
        energy = math.inf
    return _finite(energy)


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
PARAMS_TYPES = {"feature": SpecificEnergies, "hl1": HL1Params, "hl2": HL2Params}


def params_to_dict(params: ModelParams) -> dict:
    """The fitted values of a parameter file, without its model and codec fields."""
    if isinstance(params, SpecificEnergies):
        return {"specific_energies": params.as_dict()}
    return dict(zip(params._fields, params._values()))


def params_to_json(params, codec: Codec, extra: dict | None = None) -> str:
    """Serialize fitted parameters of any of the three models."""
    kind = next((k for k, cls in PARAMS_TYPES.items() if isinstance(params, cls)), None)
    if kind is None:
        raise TypeError(f"unsupported parameter object {type(params).__name__}")
    doc = {"model": kind, "codec": codec.value, **params_to_dict(params)}
    if extra:
        doc.update(extra)
    return json_text(doc, 2)


def params_from_json(text: str):
    """Parse a parameter file; returns (model_kind, codec, params)."""
    doc = read_json(text)
    if not isinstance(doc, dict) or "model" not in doc or "codec" not in doc:
        raise DataValidationError("parameter file must carry 'model' and 'codec' fields")
    kind = doc["model"]
    codec = Codec.from_name(doc["codec"])
    if not isinstance(kind, str) or kind not in PARAMS_TYPES:
        raise DataValidationError(f"unknown model kind {kind!r}")
    cls = PARAMS_TYPES[kind]
    if cls is SpecificEnergies:
        fs = build_feature_set(codec)
        mapping = doc.get("specific_energies")
        if not isinstance(mapping, dict):
            raise DataValidationError(f"'specific_energies': not an object: {mapping!r}")
        return kind, codec, SpecificEnergies.from_dict(fs, json_feature_values(fs.names, mapping))
    return kind, codec, cls(**{name: json_number(name, doc.get(name)) for name in cls._fields})


def save_params(params, codec: Codec, path, extra: dict | None = None) -> None:
    Path(path).write_text(params_to_json(params, codec, extra=extra) + "\n", encoding="utf-8")


def load_params(path):
    """Read a parameter file; errors name the file."""
    with about_file(path):
        return params_from_json(read_text(path))
