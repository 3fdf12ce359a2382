"""The dataset schema without numpy: its columns, the row rules and the CSV row layout,
which ``dataset`` builds on and ``decegy analyze`` writes its rows with directly."""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain
from numbers import Integral, Real
from operator import gt
from typing import Iterable

from .errors import DataValidationError
from .taxonomy import Codec, FeatureVector, Frozen, validate_vector

#: Integer stream metadata, all five needed by the high-level models.
METADATA_COLUMNS = ("width", "height", "frames", "file_size_bytes", "intra_frames")
BASE_COLUMNS = ("stream_id", "codec", *METADATA_COLUMNS, "energy_joules")


class Rows(Frozen):
    """A run of dataset rows as columns: the rows' codec, the feature set of their counts,
    all counts row after row, and per row an id, an energy or None, per metadata column an
    integer or None, and a tag mapping.  A ``Dataset`` keeps its rows as one checked ``Rows``;
    an empty cell is None there, and NaN only in the dataset's numpy matrices."""

    __slots__ = ("codec", "feature_set", "ids", "counts", "energies", "metadata", "tags")
    __init__ = Frozen._set

    def __len__(self) -> int:
        return len(self.ids)

    def part(self, start: int, stop: int) -> Rows:
        """The rows from ``start`` up to ``stop``."""
        if (start, stop) == (0, len(self)):
            return self
        width = len(self.feature_set)
        return Rows(self.codec, self.feature_set, self.ids[start:stop],
                    self.counts[start * width:stop * width], self.energies[start:stop],
                    [column[start:stop] for column in self.metadata], self.tags[start:stop])


_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


def _texts(rows: Rows) -> Iterable[str]:
    """The stream ids, tag keys and tag values."""
    tags = [*filter(None, rows.tags)]
    return chain(rows.ids, *tags, map(str, chain.from_iterable(t.values() for t in tags)))


def _unicode_pass(rows: Rows) -> bool:
    """Whether no id or tag holds a lone surrogate (only a text not ASCII can)."""
    text = "".join(_texts(rows))
    return text.isascii() or not _SURROGATE.search(text)


def _given(values):
    """The values that are not None."""
    return [value for value in values if value is not None] if None in values else values


def _of(kind, values) -> bool:
    """Whether every value is a ``kind`` (a number type such as Integral) and not a bool."""
    return all(t is not bool and issubclass(t, kind) for t in set(map(type, values)))


def _finite(values) -> bool:
    """Whether every value is finite: a finite float sum holds no NaN or infinity."""
    return math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))


def _floats(values) -> bool:
    """Whether every value converts to a float, as an int too large for one does not."""
    try:
        array("d", values)
    except OverflowError:
        return False
    return True


def _counts_pass(rows: Rows) -> bool:
    counts, width = rows.counts, len(rows.feature_set)
    if len(counts) != len(rows) * width:
        return False
    e0 = counts[rows.feature_set.index_of("e0")::width]
    return _finite(counts) and min(counts, default=0.0) >= 0 and e0.count(1.0) == len(rows)


def _metadata_rule(j: int, name: str) -> tuple:
    """The rule of metadata column ``j``: each cell None or an integer, at most 2**53 (the
    models compute with floats) and positive, or for ``intra_frames`` not negative."""
    low = int(name != "intra_frames")

    def test(rows: Rows) -> bool:
        values = _given(rows.metadata[j])
        return (_of(Integral, values) and low <= min(values, default=low)
                and max(values, default=0) <= 2**53)

    def message(row: Rows) -> str:
        value = row.metadata[j][0]
        if not _of(Integral, [value]):
            return f"{name} must be an integer, got {value!r}"
        if value > 2**53:
            return f"{name} must be at most 2**53"
        return f"{name} must be positive, got {value}" if low else f"{name} must be >= 0"

    return test, message


def _intra_pass(rows: Rows) -> bool:
    """Whether no row's ``intra_frames`` exceeds its ``frames``, where both are given."""
    frames, intra = ([math.nan if v is None else v for v in column] if None in column else column
                     for column in (rows.metadata[2], rows.metadata[4]))
    return not any(map(gt, intra, frames))


#: The row rules, in the order in which a row reports its faults: per rule a test that a run
#: of rows passes, which holds when it holds for each of its rows, and the message of one row
#: that fails it.  A test sees only rows that pass the rules before it.
RULES = (
    (lambda rows: all(rows.ids), lambda row: "empty stream_id"),
    (lambda rows: all(map(str.__eq__, rows.ids, map(str.strip, rows.ids))),
     lambda row: f"stream_id has leading or trailing whitespace: {row.ids[0]!r}"),
    (_unicode_pass,
     lambda row: f"not valid Unicode: {next(filter(_SURROGATE.search, _texts(row)))!r}"),
    (lambda rows: rows.feature_set.codec is rows.codec,
     lambda row: f"feature vector is for {row.feature_set.codec.value}, "
     f"record says {row.codec.value}"),
    (_counts_pass, lambda row: "; ".join(validate_vector(
        row.feature_set, FeatureVector(row.feature_set, list(row.counts))))),
    (lambda rows: _of(Real, _given(rows.energies)),
     lambda row: f"energy must be a number, got {row.energies[0]!r}"),
    (lambda rows: _floats(_given(rows.energies)), lambda row: "energy too large for a float"),
    (lambda rows: _finite(_given(rows.energies)) and min(_given(rows.energies), default=1) > 0,
     lambda row: f"non-finite or nonpositive energy: {row.energies[0]}"),
    *map(_metadata_rule, range(len(METADATA_COLUMNS)), METADATA_COLUMNS),
    (_intra_pass, lambda row: "intra_frames exceeds frames"),
)


def first_fault(rows: Rows) -> tuple[int, str] | None:
    """The first row of ``rows`` that fails a rule, and the message of the first rule it
    fails, or None when every row passes.

    Each rule is tested on the rows before the first bad row found so far; a run that fails
    is halved, keeping the first half that fails, down to one row, which costs about one
    more test of the run."""
    fault = None
    for test, message in RULES:
        if not rows or test(rows):
            continue
        start, stop = 0, len(rows)
        while stop - start > 1:
            middle = (start + stop) // 2
            start, stop = (middle, stop) if test(rows.part(start, middle)) else (start, middle)
        fault, rows = (start, message(rows.part(start, stop))), rows.part(0, start)
    return fault


def check_record(stream_id: str, codec: Codec, features: FeatureVector, metadata, energy, tags):
    """Raise the DataValidationError of the first fault of one row: ``metadata`` holds
    the five :data:`METADATA_COLUMNS` values, None where empty, as does ``energy``."""
    metadata = [[value] for value in metadata]
    fault = first_fault(Rows(codec, features.feature_set, [stream_id], features.floats, [energy],
                             metadata, [tags]))
    if fault:
        raise DataValidationError(fault[1])


_QUOTE = re.compile('[,"\n\r]')  # what a cell is quoted for


def _cell(value) -> str:
    """A cell as ``csv.writer`` makes it, but quoted for CR too: None is empty, a float is
    its repr, and a cell that holds a comma, a double quote, LF or CR is quoted."""
    text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    return '"' + text.replace('"', '""') + '"' if _QUOTE.search(text) else text


def csv_text(rows: Iterable) -> str:
    """CSV text of rows, the header first, with LF line ends and the cells of :func:`_cell`;
    a row of text cells that need no quotes is joined as it is."""
    lines = []
    for row in rows:
        try:
            line = ",".join(row)  # a comma past the separators is a cell's
            quote = '"' in line or "\n" in line or "\r" in line or line.count(",") >= len(row)
        except TypeError:  # a cell that is not text
            quote = True
        lines.append(",".join(map(_cell, row)) if quote else line)
    return "\n".join([*lines, ""])


def csv_row(stream_id: str, codec: Codec, numbers, counts) -> list[str]:
    """One dataset CSV row under the header ``[*BASE_COLUMNS, *feature names]``: ``numbers``
    are the five metadata integers and the energy (None where empty)."""
    numbers = ["" if value is None else repr(value) for value in numbers]
    return [stream_id, codec.value, *numbers, *map(repr, counts)]
