"""Decode-event traces and the counting rules that turn them into vectors.

A trace is the record of what a decoder actually processed for one bitstream:
frame starts, intra/inter prediction blocks, inverse transforms, non-zero
residual coefficients and SAO-filtered blocks.  Traces are stored as JSON
Lines, one event per line, with an optional header line carrying stream id
and codec:

    {"stream_id": "foreman_qp32", "codec": "hevc"}
    {"event": "frame_start"}
    {"event": "intra", "w": 16, "h": 16}
    {"event": "inter", "w": 16, "h": 8, "bipred": false, "frac_h": true,
     "frac_v": false, "obmc": false}
    {"event": "transform", "w": 4, "h": 4}
    {"event": "coeff", "value": -3, "bits": 5, "entropy": "cabac"}
    {"event": "sao"}

Counting rules applied by :func:`analyze`:

* e0 is fixed to 1 per bitstream; ``frame`` counts frame starts.
* Block events are counted at the size that was actually processed.  A square
  block snaps to the smallest counted size that is at least as large (and to
  the largest counted size when it exceeds it) with weight 1; a rectangular
  block counts as half of the next bigger counted square.
* ``pel`` counts predicted pels (w*h per inter block, doubled under
  biprediction); ``frac`` counts one fractional-pel filtering per pel and
  fractional dimension (horizontal, vertical), doubled under biprediction.
* H.263 inter blocks flagged as OBMC count toward ``obmc`` instead of their
  size feature; pel/frac accumulate as usual.
* ``coeff`` counts non-zero coefficients; ``val`` accumulates log2(|value|)
  for HEVC and the number of coded bits otherwise.  For H.264 both route to
  the feature matching the entropy mode (CAVLC or CABAC).
* ``sao`` counts SAO-filtered 64x64 luma blocks (HEVC only); the trace
  producer is responsible for the geometry.

Every table derives from the codec's feature set and counted sizes, such as the
block table, built once per codec, that maps a block to its feature index and
weight.  One counting core takes a trace as ``(event, multiplicity)`` pairs and
adds each contribution times its multiplicity.  Every contribution except
``val`` is a multiple of 0.5, so these products and sums are exact in any
order; ``val`` maps each distinct contribution to its summed multiplicity and
goes to ``math.fsum`` as that many copies, the same multiset as one per event.

An event depends only on its line's text, so a trace's vector depends only on
the multiset of its lines.  :func:`analyze_lines` counts a file's lines and
runs :func:`parse_trace` over the distinct ones, in the order they first
occur, so the header, the first bad line and the "frame_start first" rule
come out as for the whole file; it then counts each event times its line's
multiplicity.  Decoding goes through a memo (``functools.lru_cache`` of
:data:`LINE_MEMO_SIZE` lines, shared by all calls), so a line repeated across
files is decoded once too.  Errors are raised without a line number inside
the memo; :func:`parse_trace` adds it, so its messages do not depend on the
memo.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, product, repeat, starmap
from typing import Iterable, Union

from .errors import DataValidationError, IllegalEventError, TraceParseError
from .taxonomy import (
    BLOCK_SIZES,
    Codec,
    EntropyMode,
    FeatureId,
    FeatureVector,
    Frozen,
    Kind,
    SIZED_KINDS,
    build_feature_set,
    counted_sizes,
)

#: Distinct trace lines whose decoded events are kept for reuse.
LINE_MEMO_SIZE = 4096

# Block edge lengths a codec can emit at all (before merging): those it counts.
CODEC_DIMS = {c: frozenset(s for s in BLOCK_SIZES for k in SIZED_KINDS if s in counted_sizes(c, k))
              for c in Codec}


class FrameStart(Frozen):
    __slots__ = ()


class IntraBlock(Frozen):
    __slots__ = ("w", "h")

    def __init__(self, w: int, h: int):
        self._set(w, h)


class InterBlock(Frozen):
    __slots__ = ("w", "h", "bipred", "frac_h", "frac_v", "obmc")

    def __init__(self, w: int, h: int, bipred: bool = False, frac_h: bool = False,
                 frac_v: bool = False, obmc: bool = False):
        self._set(w, h, bipred, frac_h, frac_v, obmc)


class TransformBlock(Frozen):
    __slots__ = ("w", "h")

    def __init__(self, w: int, h: int):
        self._set(w, h)


class Coefficient(Frozen):
    __slots__ = ("value", "coded_bits", "entropy")

    def __init__(self, value: int, coded_bits: int, entropy: EntropyMode | None = None):
        if value == 0:
            raise ValueError("coefficient value must be non-zero")
        if coded_bits <= 0:
            raise ValueError("coded_bits must be positive")
        self._set(value, coded_bits, entropy)


class SaoBlock(Frozen):
    __slots__ = ()


DecodeEvent = Union[FrameStart, IntraBlock, InterBlock, TransformBlock, Coefficient, SaoBlock]

_BLOCK_EVENTS = (IntraBlock, InterBlock, TransformBlock, Coefficient, SaoBlock)


class DecodeTrace(Frozen):
    """Ordered decode events of one bitstream."""

    __slots__ = ("stream_id", "codec", "events")

    def __init__(self, stream_id: str, codec: Codec, events: tuple[DecodeEvent, ...]):
        for ev in events:
            if isinstance(ev, FrameStart):
                break
            if isinstance(ev, _BLOCK_EVENTS):
                raise ValueError("block event before the first frame_start")
        self._set(stream_id, codec, events)


def _parse_codec(raw) -> Codec:
    try:
        return Codec.from_name(str(raw))
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def _require_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if type(value) is not int:  # JSON gives exact types; bool is not an integer here
        raise TraceParseError(f"field {key!r} must be an integer")
    return value


def _require_size(obj: dict, key: str) -> int:
    value = _require_int(obj, key)
    if value not in BLOCK_SIZES:
        raise TraceParseError(f"block size {value} outside {set(BLOCK_SIZES)}")
    return value


def _require_flag(obj: dict, key: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise TraceParseError(f"field {key!r} must be a boolean")
    return value


def _load_object(line: str) -> dict:
    """Decode one stripped line into a JSON object (errors carry no line number)."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            # a byte the file's UTF-8 decoding escaped into a lone surrogate
            byte = ord(line[exc.start]) - 0xDC00
            raise TraceParseError(
                f"not valid UTF-8: byte 0x{byte:02x} at column {exc.start + 1}"
            ) from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"malformed JSON at column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer over Python's digit limit
        raise TraceParseError(f"unreadable number: {exc}") from None
    except RecursionError:
        raise TraceParseError("malformed JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise TraceParseError("expected a JSON object")
    return obj


@lru_cache(maxsize=LINE_MEMO_SIZE)
def _decode_line(line: str) -> DecodeEvent:
    """The event of one stripped, non-header line.

    An event depends only on its line's text, so repeated lines are decoded
    once and share one frozen event; errors are not cached.
    """
    obj = _load_object(line)
    name = obj.get("event")
    if name is None:
        raise TraceParseError("missing 'event' field (a header line is only allowed first)")
    if name == "frame_start":
        return FrameStart()
    if name == "intra":
        return IntraBlock(_require_size(obj, "w"), _require_size(obj, "h"))
    if name == "inter":
        return InterBlock(
            _require_size(obj, "w"),
            _require_size(obj, "h"),
            bipred=_require_flag(obj, "bipred"),
            frac_h=_require_flag(obj, "frac_h"),
            frac_v=_require_flag(obj, "frac_v"),
            obmc=_require_flag(obj, "obmc"),
        )
    if name == "transform":
        return TransformBlock(_require_size(obj, "w"), _require_size(obj, "h"))
    if name == "coeff":
        value = _require_int(obj, "value")
        if value == 0:
            raise TraceParseError("zero coefficient")
        bits = _require_int(obj, "bits")
        if bits <= 0:
            raise TraceParseError("field 'bits' must be positive")
        try:
            float(bits)  # analyze counts coded bits as floats
        except OverflowError:
            raise TraceParseError("field 'bits' too large to count") from None
        raw_mode = obj.get("entropy")
        if raw_mode is None or raw_mode == "na":
            entropy = None
        else:
            try:
                entropy = EntropyMode(str(raw_mode).lower())
            except ValueError:
                raise TraceParseError(f"unknown entropy mode {raw_mode!r}") from None
        return Coefficient(value, bits, entropy)
    if name == "sao":
        return SaoBlock()
    raise TraceParseError(f"unknown event name {name!r}")


def parse_trace(source: Iterable[str], codec: Codec | None = None) -> DecodeTrace:
    """Parse a JSON-Lines trace from an iterable of lines (a file works).

    The codec comes from the header line when present, otherwise from the
    ``codec`` argument; giving both is an error if they disagree.  An empty
    file is a valid trace with zero events (the analyzer then yields e0=1
    and all other counts zero).  A file opened with
    ``errors="surrogateescape"`` gets its invalid UTF-8 reported by line.
    """
    events: list[DecodeEvent] = []
    header_codec: Codec | None = None
    header_id = ""
    header_line: int | None = None
    seen_content = False
    line_no = 0
    append, decode = events.append, _decode_line
    try:
        for raw in source:
            line_no += 1
            line = raw.strip()
            if not line:
                continue
            if not seen_content:
                seen_content = True
                obj = _load_object(line)
                if "event" not in obj:
                    if "codec" in obj:
                        header_codec = _parse_codec(obj["codec"])
                    header_id = obj.get("stream_id", "")
                    if not isinstance(header_id, str):
                        raise TraceParseError("field 'stream_id' must be a string")
                    header_line = line_no
                    continue
            append(decode(line))
    except TraceParseError as exc:  # raised without a line number
        raise TraceParseError(str(exc), line=line_no) from None
    if codec is not None and header_codec is not None and codec is not header_codec:
        raise TraceParseError(
            f"codec mismatch: header says {header_codec.value}, "
            f"caller says {codec.value}",
            line=header_line,
        )
    resolved = header_codec or codec
    if resolved is None:
        raise TraceParseError("codec unknown: no header line and no codec argument")
    try:
        return DecodeTrace(header_id, resolved, tuple(events))
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def analyze_lines(source: Iterable[str], codec: Codec | None = None):
    """``(stream_id or "", codec, vector)`` as :func:`parse_trace` then :func:`analyze` give
    them, with :func:`parse_trace` run over each distinct line once.  What they reject
    raises a DecegyError here too, but its line number counts distinct lines, and a
    repeated header has its own message: run them for the error the whole file gives."""
    lines = Counter(source)  # in first-occurrence order, so the first bad line comes first
    trace = parse_trace(lines, codec)
    counts = [m for line, m in lines.items() if line.strip()]
    if len(counts) > len(trace.events) and counts.pop(0) > 1:  # the header's count
        raise TraceParseError("header line repeated")
    return trace.stream_id, trace.codec, _tally(trace.codec, zip(trace.events, counts))


@lru_cache(maxsize=None)
def _block_table(codec: Codec) -> dict[tuple[Kind, int, int], tuple[int, float]]:
    """``(kind, w, h) -> (feature index, weight)`` for every block the codec can emit.

    Kinds are intra, inter and trans, plus obmc where the feature set has it.
    """
    fs, table = build_feature_set(codec), {}
    for w, h in product(CODEC_DIMS[codec], repeat=2):
        weight = 1.0 if w == h else 0.5
        for kind in SIZED_KINDS:
            sizes = counted_sizes(codec, kind)
            size = min((s for s in sizes if s >= max(w, h)), default=sizes[0])
            table[kind, w, h] = (fs.index_of(FeatureId(codec, kind, size)), weight)
        if "obmc" in fs:
            table[Kind.OBMC, w, h] = (fs.index_of("obmc"), weight)
    return table


def _illegal_block(codec: Codec, kind: Kind, w: int, h: int) -> IllegalEventError:
    if kind is Kind.OBMC and "obmc" not in build_feature_set(codec):
        return IllegalEventError(f"obmc flag illegal for {codec.value} (h263 only)")
    return IllegalEventError(
        f"{w}x{h} block illegal for {codec.value} "
        f"(legal edge lengths: {sorted(CODEC_DIMS[codec])})"
    )


def map_inter_block(codec: Codec, w: int, h: int) -> list[tuple[FeatureId, float]]:
    """Map an inter block onto counted features with merge weights.

    Square blocks count with weight 1 at their own size, snapped into the
    codec's counted range; rectangular blocks count as half of the next
    bigger counted square (e.g. an 8x16 block is half a 16x16 block).
    """
    try:
        index, weight = _block_table(codec)[Kind.INTER, w, h]
    except KeyError:
        raise _illegal_block(codec, Kind.INTER, w, h) from None
    return [(build_feature_set(codec).features[index], weight)]


def coeff_value_contribution(codec: Codec, value: int, coded_bits: int) -> float:
    """Per-coefficient contribution to the ``val`` feature.

    HEVC sums log2 of the coefficient magnitudes; the other codecs sum the
    number of coded bits per coefficient.
    """
    if value == 0:
        raise ValueError("zero coefficient")
    if codec is Codec.HEVC:
        return math.log2(abs(value))
    if coded_bits <= 0:
        raise ValueError("coded_bits must be positive")
    return float(coded_bits)


def pel_and_frac_counts(block: InterBlock) -> tuple[float, float]:
    """Predicted-pel and fractional-filtering counts of one inter block.

    Pels are counted twice under biprediction.  Fractional filterings count
    one per pel per fractional dimension, with the same doubling.
    """
    pels = float(block.w * block.h) * (2.0 if block.bipred else 1.0)
    return pels, pels * (block.frac_h + block.frac_v)


def _tally(codec: Codec, pairs: Iterable[tuple[DecodeEvent, int]]) -> FeatureVector:
    """The counting core: the vector of a trace given as ``(event, multiplicity)`` pairs
    (see the module docstring)."""
    fs, blocks = build_feature_set(codec), _block_table(codec)
    residual = {f.entropy_mode: (fs.index_of(f), fs.index_of(f.name.replace("coeff", "val")))
                for f in fs if f.kind is Kind.COEFF}
    sao = fs.index_of("sao") if "sao" in fs else None
    pel, frac, frame = fs.index_of("pel"), fs.index_of("frac"), fs.index_of("frame")
    counts = [0.0] * len(fs)
    counts[fs.index_of("e0")] = 1.0
    vals = {mode: defaultdict(int) for mode in residual}  # contribution -> multiplicity
    for ev, m in pairs:
        if isinstance(ev, FrameStart):
            counts[frame] += m
            continue
        if isinstance(ev, InterBlock):
            pels, fracs = pel_and_frac_counts(ev)
            counts[pel] += pels * m
            counts[frac] += fracs * m
            kind = Kind.OBMC if ev.obmc else Kind.INTER
        elif isinstance(ev, IntraBlock):
            kind = Kind.INTRA
        elif isinstance(ev, TransformBlock):
            kind = Kind.TRANS
        elif isinstance(ev, Coefficient):
            if ev.entropy not in residual:
                raise IllegalEventError(
                    f"{codec.value} coefficient requires an entropy mode (cavlc or cabac)"
                    if None not in residual
                    else f"entropy mode illegal for {codec.value} (h264 only)"
                )
            counts[residual[ev.entropy][0]] += m
            vals[ev.entropy][coeff_value_contribution(codec, ev.value, ev.coded_bits)] += m
            continue
        elif isinstance(ev, SaoBlock):
            if sao is None:
                raise IllegalEventError(f"sao event illegal for {codec.value}")
            counts[sao] += m
            continue
        else:
            raise IllegalEventError(f"unknown event type {type(ev).__name__}")
        entry = blocks.get((kind, ev.w, ev.h))
        if entry is None:
            raise _illegal_block(codec, kind, ev.w, ev.h)
        counts[entry[0]] += entry[1] * m
    for mode, (_, val) in residual.items():
        try:  # m copies of each value: the same multiset as one copy per event
            counts[val] = math.fsum(chain.from_iterable(starmap(repeat, vals[mode].items())))
        except OverflowError:
            raise DataValidationError(f"{fs.names[val]} sums past the float range") from None
    return FeatureVector(fs, counts)


def analyze(trace: DecodeTrace) -> FeatureVector:
    """Count feature occurrences in a decode trace.

    The sums are exact, so permuting block events leaves the vector
    bit-identical (see the module docstring).
    """
    return _tally(trace.codec, Counter(trace.events).items())
