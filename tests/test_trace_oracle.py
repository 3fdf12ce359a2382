"""Differential and property tests of the trace parser and counting core.

``trace_oracle.parse_trace`` is the earlier parser that decoded every line
afresh; on traces whose lines repeat, the memoizing library parser must give
the same trace or raise the same exception with the same message, with a cold
or a warm memo.  ``trace_oracle.analyze`` is the earlier per-event
implementation of the counting rules.  On random traces for all four codecs,
legal or not, the library must give the same vector bytes or raise the same
exception with the same message, also on traces that repeat a few events many
times, and its vectors must not depend on event order.  ``analyze_lines``, which
counts each distinct line once, must give what ``parse_trace`` then ``analyze``
give, or reject what they reject.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import trace_oracle  # noqa: E402
from decegy import (  # noqa: E402
    Codec,
    Coefficient,
    DecodeTrace,
    EntropyMode,
    FrameStart,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
    analyze,
    map_inter_block,
    parse_trace,
)
from decegy.errors import DecegyError  # noqa: E402
from decegy.taxonomy import BLOCK_SIZES  # noqa: E402
from decegy.trace import CODEC_DIMS, analyze_lines  # noqa: E402


def _events(codec: Codec, legal: bool):
    """Strategy for one event; ``legal`` keeps it valid for the codec."""
    sizes = st.sampled_from(sorted(CODEC_DIMS[codec]) if legal else BLOCK_SIZES)
    modes = st.sampled_from([None, *EntropyMode])
    obmc = st.booleans()
    if legal:
        modes = st.sampled_from(list(EntropyMode)) if codec is Codec.H264 else st.none()
        obmc = st.booleans() if codec is Codec.H263 else st.just(False)
    flag = st.booleans()
    kinds = [
        st.just(FrameStart()),
        st.builds(IntraBlock, sizes, sizes),
        st.builds(InterBlock, sizes, sizes, flag, flag, flag, obmc),
        st.builds(TransformBlock, sizes, sizes),
        st.builds(
            Coefficient,
            st.integers().filter(bool),
            st.integers(min_value=1, max_value=2**70),
            modes,
        ),
    ]
    if codec is Codec.HEVC or not legal:
        kinds.append(st.just(SaoBlock()))
    return st.one_of(kinds)


@st.composite
def traces(draw, legal: bool):
    codec = draw(st.sampled_from(list(Codec)))
    events = draw(st.lists(_events(codec, legal), max_size=60))
    return DecodeTrace(f"h-{codec.value}", codec, (FrameStart(), *events))


def _assert_same_as_oracle(trace: DecodeTrace) -> None:
    try:
        expected = trace_oracle.analyze(trace)
    except Exception as exc:
        with pytest.raises(type(exc)) as excinfo:
            analyze(trace)
        assert str(excinfo.value) == str(exc)
        return
    got = analyze(trace)
    assert got.feature_set == expected.feature_set
    assert got.counts.tobytes() == expected.counts.tobytes()


@st.composite
def repeating_traces(draw, legal: bool):
    """Traces that repeat a few events many times, as real traces do."""
    codec = draw(st.sampled_from(list(Codec)))
    pool = draw(st.lists(_events(codec, legal), min_size=1, max_size=6))
    events = draw(st.lists(st.sampled_from(pool), max_size=120))
    return DecodeTrace(f"r-{codec.value}", codec, (FrameStart(), *events))


@given(traces(legal=True))
def test_legal_traces_match_oracle_bytes(trace):
    _assert_same_as_oracle(trace)


@given(traces(legal=False))
def test_any_trace_matches_oracle_bytes_or_error(trace):
    _assert_same_as_oracle(trace)


@given(st.booleans().flatmap(repeating_traces))
def test_repeated_events_match_oracle_bytes_or_error(trace):
    _assert_same_as_oracle(trace)


@given(st.data())
def test_vectors_do_not_depend_on_event_order(data):
    trace = data.draw(traces(legal=True))
    shuffled = data.draw(st.permutations(trace.events[1:]))
    permuted = DecodeTrace(trace.stream_id, trace.codec, (FrameStart(), *shuffled))
    assert analyze(permuted).counts.tobytes() == analyze(trace).counts.tobytes()


@given(st.lists(st.integers(2, 10**6), min_size=20, max_size=200), st.randoms())
def test_hevc_log2_sums_are_exact_in_any_order(values, random):
    # Rounded log2 magnitudes: a plain float sum would depend on the order.
    coeffs = [Coefficient(v, 1) for v in values]
    trace = DecodeTrace("v", Codec.HEVC, (FrameStart(), *coeffs))
    random.shuffle(coeffs)
    shuffled = DecodeTrace("v", Codec.HEVC, (FrameStart(), *coeffs))
    _assert_same_as_oracle(trace)
    assert analyze(shuffled).counts.tobytes() == analyze(trace).counts.tobytes()


@pytest.mark.parametrize("codec", list(Codec))
def test_map_inter_block_matches_oracle_for_every_size(codec):
    for w in BLOCK_SIZES:
        for h in BLOCK_SIZES:
            try:
                expected = trace_oracle.map_inter_block(codec, w, h)
            except Exception as exc:
                with pytest.raises(type(exc)) as excinfo:
                    map_inter_block(codec, w, h)
                assert str(excinfo.value) == str(exc)
                continue
            assert map_inter_block(codec, w, h) == expected


# Trace lines the parser accepts: every event kind, blanks and spacing
# variants.  Whether an event is legal for the codec is analyze's concern.
_GOOD_LINES = [
    '{"event": "frame_start"}',
    ' {"event":"frame_start"}',
    '{"event": "intra", "w": 16, "h": 16}',
    '{"event": "intra", "w": 4, "h": 8}',
    '{"event": "intra", "w": 64, "h": 64}',
    '{"event": "inter", "w": 16, "h": 8, "bipred": true, "frac_h": true, "frac_v": false, '
    '"obmc": false}',
    '{"event": "inter", "w": 8, "h": 8, "obmc": true}',
    '{"event": "inter", "w": 32, "h": 32, "frac_v": true}',
    '{"event": "transform", "w": 4, "h": 4}',
    '{"event": "transform", "w": 32, "h": 16}',
    '{"event": "coeff", "value": -3, "bits": 5, "entropy": "cabac"}',
    '{"event": "coeff", "value": 7, "bits": 2, "entropy": "CAVLC"}',
    '{"event": "coeff", "value": 1, "bits": 1}',
    '{"event": "coeff", "value": 2, "bits": 9, "entropy": "na"}',
    '{"event": "sao"}',
    '{"event": "sao", "note": "caf\u00e9"}',
    "",
    "   ",
]
# Lines it rejects after a first line (where some of them are headers):
# illegal fields, header-like objects, malformed JSON and non-objects.  Huge
# numbers, deep nesting and invalid UTF-8 are left out: the library names
# their line, where the oracle fails without one.
_BAD_LINES = [
    '{"event": "intra", "w": 12, "h": 16}',
    '{"event": "intra", "w": 8}',
    '{"event": "intra", "w": 8.0, "h": 8}',
    '{"event": "inter", "w": 8, "h": 8, "bipred": 1}',
    '{"event": "transform", "w": true, "h": 4}',
    '{"event": "coeff", "value": 0, "bits": 1}',
    '{"event": "coeff", "value": 5, "bits": 0}',
    '{"event": "coeff", "value": 5, "bits": 2.0}',
    '{"event": "coeff", "value": 5, "bits": 3, "entropy": "huffman"}',
    '{"event": "deblock"}',
    '{"event": null}',
    '{"codec": "hevc"}',
    '{"codec": "h264", "stream_id": "late"}',
    '{"stream_id": 7}',
    '{"codec": "av1"}',
    "{}",
    '{"event": "sao"',
    '\ufeff{"event": "sao"}',
    "not json",
    "[1, 2]",
    "3",
    "null",
    '"frame_start"',
]
_HEADERS = [[], ['{"codec": "h263"}'], ['{"stream_id": "s", "codec": "HEVC"}']] + [
    [f'{{"codec": "{codec.value}"}}'] for codec in Codec
]
_ENDINGS = ["", "\n", "\r\n", " \t\n"]
#: Header stream ids: CSV quoting, a newline, non-ASCII text and a JSON \ud800 escape.
_IDS = st.text(st.sampled_from(["s", ",", '"', "\n", "\u00e9", "\ud800"]), max_size=3)


def _line(pool):
    return st.builds(str.__add__, st.sampled_from(pool), st.sampled_from(_ENDINGS))


@st.composite
def trace_lines(draw):
    """Header (or none), then lines from a small pool, so that lines repeat.  A header may
    hold a drawn stream id and come again later; the first line may start with a
    byte-order mark."""
    body = draw(st.lists(_line(_GOOD_LINES), max_size=30))
    if draw(st.booleans()):
        body.insert(0, draw(_line(_GOOD_LINES[:2])))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(_line(_BAD_LINES)))
    header = draw(st.sampled_from(_HEADERS))
    if draw(st.integers(0, 3)) == 3:
        codec = draw(st.sampled_from(list(Codec)))
        header = [json.dumps({"stream_id": draw(_IDS), "codec": codec.value})]
    if header and draw(st.integers(0, 4)) == 4:  # the header's text again, later
        body.insert(draw(st.integers(0, len(body))), header[0])
    lines = header + body
    if lines and draw(st.integers(0, 9)) == 9:
        lines[0] = "\ufeff" + lines[0]
    return lines


def _outcome(parse, lines, codec):
    try:
        return parse(lines, codec=codec)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300)
@given(trace_lines(), st.sampled_from([None, *Codec]))
def test_memoized_parse_matches_oracle_on_repeated_lines(lines, codec):
    expected = _outcome(trace_oracle.parse_trace, lines, codec)
    # the first call may decode lines afresh; the second finds all of them in the memo
    assert _outcome(parse_trace, lines, codec) == expected
    assert _outcome(parse_trace, lines, codec) == expected


@pytest.mark.parametrize("line", _GOOD_LINES + _BAD_LINES)
def test_every_pool_line_matches_oracle_in_each_position(line):
    for prefix in ([], ['{"codec": "hevc"}'], ['{"codec": "hevc"}', '{"event": "frame_start"}']):
        for codec in (None, Codec.HEVC):
            lines = [*prefix, line, line]
            expected = _outcome(trace_oracle.parse_trace, lines, codec)
            assert _outcome(parse_trace, lines, codec) == expected


@settings(max_examples=200)
@given(trace_lines(), st.sampled_from([None, *Codec]))
@example(['{"codec": "hevc"}', '{"event": "frame_start"}', '{"codec": "hevc"}'], None)
def test_counting_distinct_lines_matches_parse_and_analyze(lines, codec):
    try:
        trace = parse_trace(lines, codec=codec)
        expected = trace.stream_id, trace.codec, analyze(trace).counts.tobytes()
    except DecegyError:
        with pytest.raises(DecegyError):
            analyze_lines(lines, codec)
        return
    stream_id, got_codec, vector = analyze_lines(lines, codec)
    assert (stream_id, got_codec, vector.counts.tobytes()) == expected
