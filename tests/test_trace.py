"""Trace parsing and the counting rules that produce feature vectors."""

import io
import math

import mpmath
import numpy as np
import pytest

from decegy import (
    Codec,
    Coefficient,
    DecodeTrace,
    EntropyMode,
    FrameStart,
    IllegalEventError,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TraceParseError,
    TransformBlock,
    analyze,
    build_feature_set,
    coeff_value_contribution,
    map_inter_block,
    parse_trace,
    pel_and_frac_counts,
    validate_vector,
)
from decegy.errors import DecegyError
from decegy.trace import CODEC_DIMS, analyze_lines
from util import random_trace, shuffle_within_frames


def _parse(text, **kwargs):
    return parse_trace(io.StringIO(text), **kwargs)


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_events():
    trace = _parse('{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"sao"}\n')
    assert len(trace.events) == 2
    assert trace.events == (FrameStart(), SaoBlock())


def test_parse_header_carries_stream_id_and_codec():
    trace = _parse('{"stream_id":"abc","codec":"vp9"}\n')
    assert trace.stream_id == "abc"
    assert trace.codec is Codec.VP9


def test_parse_zero_coefficient_rejected():
    text = '{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"coeff","value":0,"bits":3}\n'
    with pytest.raises(TraceParseError, match="zero coefficient") as excinfo:
        _parse(text)
    assert excinfo.value.line == 3


def test_parse_empty_file_is_a_valid_empty_trace():
    trace = _parse("", codec=Codec.HEVC)
    assert trace.events == ()
    vector = analyze(trace)
    assert vector["e0"] == 1.0
    assert math.fsum(vector.counts) == 1.0


def test_parse_malformed_json_reports_line_and_column():
    with pytest.raises(TraceParseError, match="column") as excinfo:
        _parse('{"codec":"hevc"}\n{"event": nonsense}\n')
    assert excinfo.value.line == 2


def test_parse_unknown_event_name():
    with pytest.raises(TraceParseError, match="unknown event"):
        _parse('{"codec":"hevc"}\n{"event":"wavelet"}\n')


def test_parse_block_size_outside_allowed_set():
    with pytest.raises(TraceParseError, match="block size 12"):
        _parse('{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"intra","w":12,"h":16}\n')


def test_parse_codec_conflict_between_header_and_caller():
    with pytest.raises(TraceParseError, match="codec mismatch"):
        _parse('{"codec":"hevc"}\n', codec=Codec.VP9)


def test_codec_mismatch_names_the_header_line():
    with pytest.raises(TraceParseError) as excinfo:
        _parse('\n  \n{"stream_id":"x","codec":"hevc"}\n{"event":"frame_start"}\n', codec=Codec.VP9)
    assert str(excinfo.value) == "line 3: codec mismatch: header says hevc, caller says vp9"


def test_parse_without_any_codec():
    with pytest.raises(TraceParseError, match="codec unknown"):
        _parse('{"event":"frame_start"}\n')


def test_parse_negative_bits_rejected():
    with pytest.raises(TraceParseError, match="bits"):
        _parse('{"codec":"h263"}\n{"event":"frame_start"}\n{"event":"coeff","value":3,"bits":0}\n')


def test_block_event_before_first_frame_start_rejected():
    with pytest.raises(TraceParseError, match="frame_start"):
        _parse('{"codec":"hevc"}\n{"event":"sao"}\n')
    with pytest.raises(ValueError, match="frame_start"):
        DecodeTrace("x", Codec.HEVC, (SaoBlock(), FrameStart()))


def test_parse_rejects_bits_a_float_cannot_hold():
    for codec in Codec:
        with pytest.raises(TraceParseError, match="'bits' too large") as excinfo:
            _parse('{"event":"frame_start"}\n{"event":"coeff","value":3,"bits":%d}\n' % 2**1024,
                   codec=codec)
        assert excinfo.value.line == 2
    largest = int(float.fromhex("0x1.fffffffffffffp+1023"))
    trace = _parse('{"event":"frame_start"}\n{"event":"coeff","value":3,"bits":%d}\n' % largest,
                   codec=Codec.VP9)
    assert analyze(trace)["val"] == float(largest)


def test_parse_reports_escaped_invalid_utf8_by_line():
    raw = b'{"codec":"hevc"}\n{"event":"frame_start"}\n{"event":"sao"}\xfe \n'
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape"))
    assert str(excinfo.value) == "line 3: not valid UTF-8: byte 0xfe at column 16"


def test_equal_lines_share_one_event_and_the_memo_is_bounded():
    from decegy.trace import LINE_MEMO_SIZE, _decode_line

    trace = _parse('{"event":"frame_start"}\n{"event":"sao"}\n {"event":"sao"}\n', codec=Codec.HEVC)
    assert trace.events[1] is trace.events[2]
    lines = [f'{{"event":"coeff","value":{v},"bits":1}}' for v in range(1, LINE_MEMO_SIZE + 100)]
    trace = parse_trace(['{"event":"frame_start"}', *lines], codec=Codec.VP9)
    assert [ev.value for ev in trace.events[1:]] == list(range(1, LINE_MEMO_SIZE + 100))
    info = _decode_line.cache_info()
    assert info.maxsize == LINE_MEMO_SIZE and info.currsize == LINE_MEMO_SIZE


def test_analyze_lines_counts_each_distinct_line_once():
    from decegy.trace import _decode_line

    _decode_line.cache_clear()
    lines = ['{"codec":"hevc","stream_id":"s"}\r\n', "\n", '{"event":"frame_start"}\n']
    lines += ['{"event":"coeff","value":3,"bits":1}\n', ' {"event":"coeff","value":3,"bits":1}'] * 500
    stream_id, codec, vector = analyze_lines(iter(lines))
    assert (stream_id, codec) == ("s", Codec.HEVC)
    assert vector.tolist() == analyze(parse_trace(lines)).tolist()
    assert vector["coeff"] == 1000.0 and vector["val"] == math.fsum([math.log2(3)] * 1000)
    assert _decode_line.cache_info().misses == 2  # the two distinct event texts


@pytest.mark.parametrize(
    "text",
    ['{"codec":"hevc"}\n{"event":"frame_start"}\n{"codec":"hevc"}\n',
     '{"codec":"hevc"}\n{"event":"frame_start"}\n {"codec":"hevc"}\n',
     '{"codec":"hevc"}\n{"event":"sao"}\n{"event":"frame_start"}\n',
     '{"codec":"vp9"}\n{"event":"frame_start"}\n{"event":"sao"}\n',
     '{"codec":"h263"}\n{"event":"frame_start"}\n' + '{"event":"coeff","value":1,"bits":%d}\n' % 2**1023 * 2,
     '{"event":"frame_start"}\n'],
    ids=["header-repeated", "header-repeated-spaced", "block-first", "illegal", "val-overflow",
         "no-codec"],
)
def test_analyze_lines_rejects_what_parse_trace_and_analyze_reject(text):
    with pytest.raises(DecegyError):
        analyze_lines(io.StringIO(text))
    with pytest.raises(DecegyError):
        analyze(_parse(text))


def test_analyze_lines_applies_parse_trace_rules_before_counting():
    # sao is illegal for vp9, but the malformed line after it is what parse_trace rejects
    text = '{"codec":"vp9"}\n{"event":"frame_start"}\n{"event":"sao"}\nnot json\n'
    with pytest.raises(TraceParseError) as expected:
        _parse(text)
    with pytest.raises(TraceParseError) as got:
        analyze_lines(io.StringIO(text))
    assert str(got.value) == str(expected.value)
    assert str(expected.value) == "line 4: malformed JSON at column 1: Expecting value"


# ---------------------------------------------------------------------------
# block-size merging

# Hand-written merge table: (codec, w, h) -> (feature name, weight).
# Squares keep weight 1 and snap into the counted range; rectangles count as
# half of the next bigger counted square.
MERGE_TABLE = {
    Codec.H263: {
        (8, 8): ("inter8", 1.0),
        (16, 16): ("inter16", 1.0),
        (8, 16): ("inter16", 0.5),
        (16, 8): ("inter16", 0.5),
    },
    Codec.H264: {
        (4, 4): ("inter4", 1.0),
        (8, 8): ("inter8", 1.0),
        (16, 16): ("inter16", 1.0),
        (4, 8): ("inter8", 0.5),
        (8, 4): ("inter8", 0.5),
        (8, 16): ("inter16", 0.5),
        (16, 8): ("inter16", 0.5),
        (4, 16): ("inter16", 0.5),
        (16, 4): ("inter16", 0.5),
    },
    Codec.HEVC: {
        (4, 4): ("inter8", 1.0),  # below the smallest counted size
        (8, 8): ("inter8", 1.0),
        (16, 16): ("inter16", 1.0),
        (32, 32): ("inter32", 1.0),
        (64, 64): ("inter64", 1.0),
        (4, 8): ("inter8", 0.5),
        (8, 4): ("inter8", 0.5),
        (4, 16): ("inter16", 0.5),
        (16, 4): ("inter16", 0.5),
        (4, 32): ("inter32", 0.5),
        (32, 4): ("inter32", 0.5),
        (4, 64): ("inter64", 0.5),
        (64, 4): ("inter64", 0.5),
        (8, 16): ("inter16", 0.5),
        (16, 8): ("inter16", 0.5),
        (8, 32): ("inter32", 0.5),
        (32, 8): ("inter32", 0.5),
        (8, 64): ("inter64", 0.5),
        (64, 8): ("inter64", 0.5),
        (16, 32): ("inter32", 0.5),
        (32, 16): ("inter32", 0.5),
        (16, 64): ("inter64", 0.5),
        (64, 16): ("inter64", 0.5),
        (32, 64): ("inter64", 0.5),
        (64, 32): ("inter64", 0.5),
    },
    Codec.VP9: {
        (4, 4): ("inter4", 1.0),
        (8, 8): ("inter8", 1.0),
        (16, 16): ("inter16", 1.0),
        (32, 32): ("inter32", 1.0),
        (64, 64): ("inter64", 1.0),
        (4, 8): ("inter8", 0.5),
        (8, 4): ("inter8", 0.5),
        (4, 16): ("inter16", 0.5),
        (16, 4): ("inter16", 0.5),
        (4, 32): ("inter32", 0.5),
        (32, 4): ("inter32", 0.5),
        (4, 64): ("inter64", 0.5),
        (64, 4): ("inter64", 0.5),
        (8, 16): ("inter16", 0.5),
        (16, 8): ("inter16", 0.5),
        (8, 32): ("inter32", 0.5),
        (32, 8): ("inter32", 0.5),
        (8, 64): ("inter64", 0.5),
        (64, 8): ("inter64", 0.5),
        (16, 32): ("inter32", 0.5),
        (32, 16): ("inter32", 0.5),
        (16, 64): ("inter64", 0.5),
        (64, 16): ("inter64", 0.5),
        (32, 64): ("inter64", 0.5),
        (64, 32): ("inter64", 0.5),
    },
}


def test_rectangular_block_counts_as_half_of_next_bigger_square():
    [(fid, weight)] = map_inter_block(Codec.H264, 8, 16)
    assert (fid.name, weight) == ("inter16", 0.5)


def test_square_block_maps_identically():
    [(fid, weight)] = map_inter_block(Codec.HEVC, 32, 32)
    assert (fid.name, weight) == ("inter32", 1.0)


def test_small_rectangle_maps_to_small_square():
    [(fid, weight)] = map_inter_block(Codec.VP9, 4, 8)
    assert (fid.name, weight) == ("inter8", 0.5)


def test_merge_rules_against_hand_table_exhaustively():
    for codec, table in MERGE_TABLE.items():
        dims = sorted(CODEC_DIMS[codec])
        pairs = {(w, h) for w in dims for h in dims}
        assert pairs == set(table), f"table incomplete for {codec.value}"
        for (w, h), expected in table.items():
            [(fid, weight)] = map_inter_block(codec, w, h)
            assert (fid.name, weight) == expected, (codec, w, h)


def test_illegal_block_size_for_codec():
    with pytest.raises(IllegalEventError):
        map_inter_block(Codec.H263, 4, 4)
    with pytest.raises(IllegalEventError):
        map_inter_block(Codec.H264, 32, 32)


# ---------------------------------------------------------------------------
# coefficient values


def test_coeff_value_powers_of_two_are_exact():
    assert coeff_value_contribution(Codec.HEVC, 4, 99) == 2.0
    assert coeff_value_contribution(Codec.HEVC, -2, 99) == 1.0
    assert coeff_value_contribution(Codec.HEVC, 1, 99) == 0.0


def test_coeff_value_uses_coded_bits_outside_hevc():
    assert coeff_value_contribution(Codec.H264, -3, 5) == 5.0
    assert coeff_value_contribution(Codec.H263, 100, 9) == 9.0
    assert coeff_value_contribution(Codec.VP9, 7, 4) == 4.0


def test_coeff_value_log2_matches_high_precision():
    mpmath.mp.dps = 50
    expected = float(mpmath.log(3) / mpmath.log(2))
    assert coeff_value_contribution(Codec.HEVC, 3, 1) == pytest.approx(expected, rel=1e-15)
    assert abs(coeff_value_contribution(Codec.HEVC, 3, 1) - 1.58496) < 1e-5


def test_coeff_value_zero_rejected():
    with pytest.raises(ValueError):
        coeff_value_contribution(Codec.HEVC, 0, 3)


# ---------------------------------------------------------------------------
# pel / frac counting


def test_bipred_doubles_pels():
    assert pel_and_frac_counts(InterBlock(8, 8, bipred=True)) == (128.0, 0.0)


def test_one_fractional_dimension():
    assert pel_and_frac_counts(InterBlock(16, 16, frac_h=True)) == (256.0, 256.0)


def test_integer_pel_case():
    assert pel_and_frac_counts(InterBlock(4, 4)) == (16.0, 0.0)


def _per_pel_filter_oracle(block: InterBlock) -> tuple[float, float]:
    # brute force: walk every pel and count predictions / filter applications
    pels = 0
    filters = 0
    predictions = 2 if block.bipred else 1
    for _ in range(block.w):
        for _ in range(block.h):
            pels += predictions
            for fractional in (block.frac_h, block.frac_v):
                if fractional:
                    filters += predictions
    return float(pels), float(filters)


def test_pel_and_frac_match_per_pel_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        block = InterBlock(
            w=int(rng.choice([4, 8, 16, 32, 64])),
            h=int(rng.choice([4, 8, 16, 32, 64])),
            bipred=bool(rng.random() < 0.5),
            frac_h=bool(rng.random() < 0.5),
            frac_v=bool(rng.random() < 0.5),
        )
        assert pel_and_frac_counts(block) == _per_pel_filter_oracle(block)


def test_pel_frac_scaling_invariant():
    for w, h in ((4, 4), (8, 16), (32, 32)):
        pels, fracs = pel_and_frac_counts(
            InterBlock(w, h, bipred=True, frac_h=True, frac_v=True)
        )
        assert pels >= fracs / 2 >= 0
        assert pels == 2 * w * h


def test_pel_frac_scale_linearly_with_block_area():
    base = InterBlock(8, 16, bipred=True, frac_h=True)
    doubled = InterBlock(16, 32, bipred=True, frac_h=True)  # 4x the area
    pels, fracs = pel_and_frac_counts(base)
    pels4, fracs4 = pel_and_frac_counts(doubled)
    assert (pels4, fracs4) == (4 * pels, 4 * fracs)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_empty_trace_has_only_the_offset():
    vector = analyze(DecodeTrace("empty", Codec.HEVC, ()))
    assert vector["e0"] == 1.0
    others = [c for name, c in vector.as_dict().items() if name != "e0"]
    assert others == [0.0] * 18


def test_analyze_obmc_routes_away_from_inter_size():
    trace = DecodeTrace(
        "obmc",
        Codec.H263,
        (FrameStart(), InterBlock(16, 16, obmc=True)),
    )
    vector = analyze(trace)
    assert vector["frame"] == 1.0
    assert vector["obmc"] == 1.0
    assert vector["inter16"] == 0.0
    assert vector["pel"] == 256.0


def test_analyze_obmc_rectangle_counts_half():
    trace = DecodeTrace("o", Codec.H263, (FrameStart(), InterBlock(8, 16, obmc=True)))
    vector = analyze(trace)
    assert vector["obmc"] == 0.5
    assert vector["inter16"] == 0.0
    assert vector["pel"] == 128.0


def test_analyze_hand_computed_hevc_example():
    trace = DecodeTrace(
        "hand",
        Codec.HEVC,
        (
            FrameStart(),
            IntraBlock(16, 16),
            TransformBlock(4, 4),
            Coefficient(4, 3),
            Coefficient(-2, 2),
            Coefficient(1, 1),
        ),
    )
    vector = analyze(trace)
    assert vector["intra16"] == 1.0
    assert vector["trans4"] == 1.0
    assert vector["coeff"] == 3.0
    # log2(4) + log2(2) + log2(1)
    assert vector["val"] == 3.0


def test_analyze_routes_h264_residuals_by_entropy_mode():
    trace = DecodeTrace(
        "h264",
        Codec.H264,
        (
            FrameStart(),
            Coefficient(3, 5, EntropyMode.CAVLC),
            Coefficient(-1, 2, EntropyMode.CABAC),
            Coefficient(2, 4, EntropyMode.CABAC),
        ),
    )
    vector = analyze(trace)
    assert vector["coeff_cavlc"] == 1.0
    assert vector["coeff_cabac"] == 2.0
    assert vector["val_cavlc"] == 5.0
    assert vector["val_cabac"] == 6.0


def test_analyze_counts_sao_per_event():
    trace = DecodeTrace("sao", Codec.HEVC, (FrameStart(), SaoBlock(), SaoBlock()))
    assert analyze(trace)["sao"] == 2.0


def test_analyze_transform_merging_h263_h264():
    t263 = DecodeTrace(
        "t", Codec.H263, (FrameStart(), TransformBlock(8, 8), TransformBlock(16, 16))
    )
    assert analyze(t263)["trans8"] == 2.0
    t264 = DecodeTrace("t", Codec.H264, (FrameStart(), TransformBlock(4, 4), TransformBlock(8, 8)))
    assert analyze(t264)["trans4"] == 2.0


def test_analyze_intra_clamps_oversized_blocks():
    trace = DecodeTrace("i", Codec.HEVC, (FrameStart(), IntraBlock(64, 64)))
    vector = analyze(trace)
    assert vector["intra32"] == 1.0


def test_analyze_rejects_sao_outside_hevc():
    trace = DecodeTrace("bad", Codec.VP9, (FrameStart(), SaoBlock()))
    with pytest.raises(IllegalEventError, match="sao"):
        analyze(trace)


def test_analyze_rejects_obmc_outside_h263():
    trace = DecodeTrace("bad", Codec.H264, (FrameStart(), InterBlock(16, 16, obmc=True)))
    with pytest.raises(IllegalEventError, match="obmc"):
        analyze(trace)


def test_analyze_rejects_h264_coefficients_without_entropy_mode():
    trace = DecodeTrace("bad", Codec.H264, (FrameStart(), Coefficient(3, 5)))
    with pytest.raises(IllegalEventError, match="entropy"):
        analyze(trace)


def test_analyze_rejects_entropy_mode_outside_h264():
    trace = DecodeTrace(
        "bad", Codec.HEVC, (FrameStart(), Coefficient(3, 5, EntropyMode.CABAC))
    )
    with pytest.raises(IllegalEventError, match="entropy"):
        analyze(trace)


def test_analyze_rejects_illegal_dims_for_codec():
    trace = DecodeTrace("bad", Codec.H263, (FrameStart(), IntraBlock(4, 4)))
    with pytest.raises(IllegalEventError):
        analyze(trace)


def test_frame_count_is_exact():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 40):
        trace = random_trace(Codec.HEVC, rng, n_frames=n, blocks_per_frame=3)
        assert analyze(trace)["frame"] == float(n)


def test_analyze_is_order_insensitive_within_frames():
    rng = np.random.default_rng(42)
    for codec in Codec:
        trace = random_trace(codec, rng, n_frames=4, blocks_per_frame=12)
        baseline = analyze(trace)
        for _ in range(5):
            shuffled = shuffle_within_frames(trace, rng)
            assert np.array_equal(analyze(shuffled).counts, baseline.counts)


def test_concatenating_traces_sums_counts_except_e0():
    rng = np.random.default_rng(7)
    for codec in Codec:
        a = random_trace(codec, rng, n_frames=2, blocks_per_frame=6)
        b = random_trace(codec, rng, n_frames=3, blocks_per_frame=6)
        merged = DecodeTrace("merged", codec, a.events + b.events)
        va, vb, vm = analyze(a), analyze(b), analyze(merged)
        fs = build_feature_set(codec)
        expected = va.counts + vb.counts
        expected[fs.index_of("e0")] = 1.0
        assert np.allclose(vm.counts, expected, rtol=1e-12, atol=0.0)


def test_analyzed_vectors_always_validate():
    rng = np.random.default_rng(3)
    for codec in Codec:
        for _ in range(10):
            trace = random_trace(codec, rng)
            vector = analyze(trace)
            assert validate_vector(vector.feature_set, vector) == []
