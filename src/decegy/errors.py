"""Exception types, and the readers that turn bad dataset and parameter files into them.

Outside input fails only with a DecegyError, raised where the fault is found (the CLI
maps FitError to exit 3 and every other DecegyError to 2); any other exception is a bug."""

import json
from contextlib import contextmanager
from pathlib import Path


class DecegyError(Exception):
    """Base class for all decegy errors."""


class TraceParseError(DecegyError):
    """A decode-trace file is syntactically invalid.

    Carries the 1-based line number where parsing failed, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class IllegalEventError(DecegyError):
    """A decode event is not legal for the trace's codec."""


class DataValidationError(DecegyError, ValueError):
    """A dataset, record, parameter or file violates the schema or its invariants; ``index``
    is the index of the dataset row at fault, where the code that raises or passes it on
    knows it."""

    def __init__(self, message: str, row: int | None = None, index: int | None = None):
        self.row, self.index = row, index
        super().__init__(f"row {row}: {message}" if row is not None else message)


class FitError(DecegyError):
    """A model fit cannot be performed (under-determined or numerically failed)."""


@contextmanager
def about_file(path):
    """Prefix ``<path>: `` to the message of a DecegyError raised inside."""
    try:
        yield
    except DecegyError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_text(path) -> str:
    """A UTF-8 file's text, its line ends as they are (a CSV cell may hold CR); an
    undecodable byte is a DataValidationError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not valid UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
    raise DataValidationError(message)


def read_json(text: str):
    """One JSON document; a decode failure is a DataValidationError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except ValueError as exc:  # an integer over Python's digit limit
        message = f"unreadable number: {exc}"
    except RecursionError:
        message = "malformed JSON: nested too deeply"
    raise DataValidationError(message)


def json_text(doc, indent: int | None = None) -> str:
    """``doc`` as strict JSON text: a NaN or an infinity, which JSON lacks, is a
    DataValidationError instead of a bare ``NaN`` or ``Infinity``."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise DataValidationError("a non-finite number cannot be written as JSON") from None


def json_number(name: str, value, integer: bool = False) -> float | int:
    """A JSON number as a float, or unchanged when ``integer``; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        what = "an integer" if integer else "a number"
        raise DataValidationError(f"{name!r}: not {what}: {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise DataValidationError(f"{name!r}: too large for a float") from None


def json_feature_values(names: tuple[str, ...], values: dict) -> dict[str, float]:
    """A JSON object that holds a number for exactly the feature ``names``."""
    expected, given = set(names), set(values)
    for problem, found in (("missing", expected - given), ("unknown", given - expected)):
        if found:
            raise DataValidationError(f"{problem} features: {', '.join(sorted(found))}")
    return {name: json_number(name, value) for name, value in values.items()}
