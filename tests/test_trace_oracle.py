"""Differential and property tests of the trace counting core.

``trace_oracle.analyze`` is the earlier per-event implementation of the
counting rules.  On random traces for all four codecs, legal or not, the
library must give the same vector bytes or raise the same exception with the
same message, and its vectors must not depend on event order.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
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
)
from decegy.taxonomy import BLOCK_SIZES  # noqa: E402
from decegy.trace import CODEC_DIMS  # noqa: E402


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


@given(traces(legal=True))
def test_legal_traces_match_oracle_bytes(trace):
    _assert_same_as_oracle(trace)


@given(traces(legal=False))
def test_any_trace_matches_oracle_bytes_or_error(trace):
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
