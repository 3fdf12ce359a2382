"""``decegy analyze`` against the path that built a numpy ``Dataset`` (``analyze_oracle``).

On random batches of trace files of all four codecs, with and without headers,
with random stream ids (repeats, lone surrogates and CSV quoting among them) and
events that are sometimes illegal, the command must print the oracle's CSV text
byte for byte, or fail with exit 2 and the oracle's error message.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from analyze_oracle import analyze_csv  # noqa: E402
from decegy.cli import main  # noqa: E402
from decegy.errors import DecegyError  # noqa: E402
from decegy.taxonomy import BLOCK_SIZES, Codec  # noqa: E402
from decegy.trace import CODEC_DIMS  # noqa: E402

_IDS = st.text(st.sampled_from(["s", "t", ",", '"', " ", "\n", "é", "\ud800"]), max_size=3)


@st.composite
def _event(draw, codec: Codec, legal: bool) -> dict:
    """One event; ``legal`` keeps it valid for the codec."""
    size = st.sampled_from(sorted(CODEC_DIMS[codec]) if legal else BLOCK_SIZES)
    kinds = ["frame_start", "intra", "inter", "transform", "coeff"]
    kind = draw(st.sampled_from(kinds + ["sao"] if codec is Codec.HEVC or not legal else kinds))
    event = {"event": kind}
    if kind in ("intra", "inter", "transform"):
        event.update(w=draw(size), h=draw(size))
    if kind == "inter":
        flags = ["bipred", "frac_h", "frac_v"]
        if codec is Codec.H263 or not legal:
            flags.append("obmc")
        event.update({flag: draw(st.booleans()) for flag in flags})
    if kind == "coeff":
        event["value"] = draw(st.integers(-300, 300).filter(bool))
        event["bits"] = draw(st.integers(1, 40))
        if codec is Codec.H264 or (not legal and draw(st.booleans())):
            event["entropy"] = draw(st.sampled_from(["cavlc", "cabac"]))
    return event


@st.composite
def trace_files(draw, codec: Codec):
    """One trace file, mostly of ``codec`` and legal: its file-name stem and its lines."""
    if draw(st.integers(0, 9)) == 9:
        codec = draw(st.sampled_from(list(Codec)))
    legal = draw(st.integers(0, 9)) < 9
    header = {}
    if draw(st.booleans()):
        header["codec"] = codec.value
    if draw(st.booleans()):
        header["stream_id"] = draw(_IDS)
    events = [{"event": "frame_start"}, *draw(st.lists(_event(codec, legal), max_size=12))]
    lines = [header, *events] if header else events
    return draw(st.sampled_from(["t", "u", "v", "s,1", 'q"'])), [json.dumps(x) for x in lines]


@st.composite
def batches(draw):
    """Trace files of one codec, mostly, and the --codec value (or None)."""
    codec = draw(st.sampled_from(list(Codec)))
    files = draw(st.lists(trace_files(codec), min_size=1, max_size=4))
    return files, draw(st.sampled_from([*[codec.value] * 4, None]))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(batches())
def test_analyze_prints_the_oracle_csv_or_its_error(batch):
    files, codec = batch
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for i, (stem, lines) in enumerate(files):
            path = Path(root, str(i), f"{stem}.jsonl")
            path.parent.mkdir()
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths.append(str(path))
        flag = ["--codec", codec] if codec else []
        try:
            expected = (0, analyze_csv(paths, codec), "")
        except DecegyError as exc:
            expected = (2, "", f"error: {exc}\n")
        assert _run(["analyze", *paths, *flag]) == expected
