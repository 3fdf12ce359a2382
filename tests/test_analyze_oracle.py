"""``decegy analyze`` against the line-by-line path that built a numpy ``Dataset``.

``analyze_oracle`` parses and counts every line with ``trace_oracle``; the command
counts each distinct line once.  On random batches of trace files of all four
codecs, the command must print the oracle's CSV text byte for byte, or fail with
exit 2 and the oracle's error message.  The files draw their lines from a small
pool, so that lines repeat many times, and mix in blank lines, CRLF ends, a header
text repeated later, a byte-order mark, non-ASCII text, random stream ids (repeats,
lone surrogates and CSV quoting among them) and an illegal event first, in the
middle or last.
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


_NOTES = st.sampled_from(["", "caf\u00e9", "a\x85b\u2028c\x0cd", "\u00e9\t"])


@st.composite
def trace_files(draw, codec: Codec):
    """One trace file, mostly of ``codec`` and legal: its file-name stem and its text."""
    if draw(st.integers(0, 9)) == 9:
        codec = draw(st.sampled_from(list(Codec)))
    header = {}
    if draw(st.booleans()):
        header["codec"] = codec.value
    if draw(st.booleans()):
        header["stream_id"] = draw(_IDS)
    pool = draw(st.lists(_event(codec, True), min_size=1, max_size=5))
    for event in pool:
        if draw(st.integers(0, 4)) == 4:
            event["note"] = draw(_NOTES)  # non-ASCII lines decode through json.loads
    if codec is Codec.HEVC:  # log2 values of a few magnitudes, repeated many times
        pool += [{"event": "coeff", "value": v, "bits": 1} for v in draw(st.sets(
            st.integers(-300, 300).filter(bool), max_size=3))]
    texts = [json.dumps(e, ensure_ascii=draw(st.booleans())) for e in pool]
    lines = ['{"event": "frame_start"}', *draw(st.lists(st.sampled_from(texts), max_size=40))]
    lines[1:1] = draw(st.lists(st.sampled_from(texts), max_size=3))
    if draw(st.integers(0, 19)) == 19:  # a legal block event may come first
        del lines[0]
    spacer = st.sampled_from(["", "  ", "\t", " " + texts[0]])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(min(1, len(lines)), len(lines))), draw(spacer))
    if draw(st.integers(0, 9)) == 9:  # an illegal event first, in the middle or last
        where = draw(st.sampled_from([0, 1, len(lines) // 2, len(lines)]))
        lines.insert(where, json.dumps(draw(_event(codec, False))))
    if header:
        lines.insert(0, json.dumps(header))
        if draw(st.integers(0, 9)) == 9:  # the header text again, later
            lines.insert(draw(st.integers(1, len(lines))), json.dumps(header))
    lines[:0] = draw(st.lists(st.sampled_from(["", " "]), max_size=2))
    if draw(st.integers(0, 39)) == 39:
        lines[0] = "\ufeff" + lines[0]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["t", "u", "v", "s,1", 'q"'])), text


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
        for i, (stem, text) in enumerate(files):
            path = Path(root, str(i), f"{stem}.jsonl")
            path.parent.mkdir()
            path.write_text(text, encoding="utf-8", newline="")
            paths.append(str(path))
        flag = ["--codec", codec] if codec else []
        try:
            expected = (0, analyze_csv(paths, codec), "")
        except DecegyError as exc:
            expected = (2, "", f"error: {exc}\n")
        assert _run(["analyze", *paths, *flag]) == expected
