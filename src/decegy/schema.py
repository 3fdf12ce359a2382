"""The dataset schema without numpy: its columns, the record check and the CSV row layout,
which ``dataset`` builds on and ``decegy analyze`` writes its rows with directly."""

from __future__ import annotations

import csv
import io
import math
from numbers import Integral
from typing import Iterable

from .errors import DataValidationError
from .taxonomy import Codec, FeatureVector, validate_vector

#: Integer stream metadata, all five needed by the high-level models.
METADATA_COLUMNS = ("width", "height", "frames", "file_size_bytes", "intra_frames")
BASE_COLUMNS = ("stream_id", "codec", *METADATA_COLUMNS, "energy_joules")


def check_record(stream_id: str, codec: Codec, features: FeatureVector, metadata, energy, tags):
    """Raise the DataValidationError of the first fault of one row: ``metadata`` holds
    the five :data:`METADATA_COLUMNS` values, None where empty, as does ``energy``."""
    if not stream_id:
        raise DataValidationError("empty stream_id")
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
        if value is not None and value > 2**53:  # the models compute with floats
            raise DataValidationError(f"{name} must be at most 2**53")
        if value is not None and value <= 0 and name != "intra_frames":
            raise DataValidationError(f"{name} must be positive, got {value}")
    *_, frames, _, intra_frames = metadata
    if intra_frames is not None:
        if intra_frames < 0:
            raise DataValidationError("intra_frames must be >= 0")
        if frames is not None and intra_frames > frames:
            raise DataValidationError("intra_frames exceeds frames")


def csv_text(rows: Iterable[list]) -> str:
    """CSV text of rows, the header first: LF line ends, a cell quoted only when it must be."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_row(stream_id: str, codec: Codec, numbers, counts, cells=(), last=()) -> list[str]:
    """One dataset CSV row under the header ``[*BASE_COLUMNS, *feature names, *tag keys,
    *last names]``: ``numbers`` are the five metadata integers and the energy (None
    where empty), ``cells`` the tag cells and ``last`` the appended numbers."""
    numbers = ["" if value is None else repr(value) for value in numbers]
    last = [repr(float(value)) for value in last]
    return [stream_id, codec.value, *numbers, *map(repr, counts), *cells, *last]
