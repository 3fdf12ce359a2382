"""The ``decegy analyze`` path that built a numpy ``Dataset``, kept as a test oracle.

``analyze_csv`` makes one ``BitstreamRecord`` per trace, a ``Dataset`` of them and
the CSV text of ``dataset_to_csv``, as ``cmd_analyze`` did before it wrote its rows
without numpy.  One thing is new: the error of a repeated stream id names the file
that repeats it and the file that had it first, as ``analyze`` now does.
``test_analyze_oracle.py`` requires the command to print the same CSV text or the
same error.
"""

from __future__ import annotations

from pathlib import Path

from decegy.dataset import BitstreamRecord, Dataset, dataset_to_csv
from decegy.errors import DataValidationError, about_file
from decegy.taxonomy import Codec
from decegy.trace import analyze, parse_trace


def analyze_csv(paths: list[str], codec: str | None = None) -> str:
    """The CSV text ``decegy analyze`` writes for ``paths``; raises its DecegyError."""
    codec_flag = Codec.from_name(codec) if codec else None
    records = []
    for path in paths:
        with about_file(path):
            with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                trace = parse_trace(handle, codec=codec_flag, stream_id=None)
            vector = analyze(trace)
            stream_id = trace.stream_id or Path(path).stem
            frames = int(vector["frame"]) or None
            record = BitstreamRecord(stream_id, trace.codec, vector, frames=frames)
        if records and trace.codec is not records[0].codec:
            raise DataValidationError(
                f"mixed codecs: {records[0].codec.value} and {trace.codec.value} ({path})"
            )
        records.append(record)
    try:
        dataset = Dataset(tuple(records))
    except DataValidationError as exc:
        first_in: dict[str, str] = {}
        for path, record in zip(paths, records):
            if record.stream_id in first_in:
                raise DataValidationError(
                    f"{path}: {exc} (first in {first_in[record.stream_id]})"
                ) from None
            first_in[record.stream_id] = path
        raise
    return dataset_to_csv(dataset)
