"""Reference implementations of the trace parser and counting rules, kept as test oracles.

``parse_trace`` is the parser that decoded every line with its own
``json.loads`` and event build, before ``decegy.trace.parse_trace`` memoized
line decoding.  ``analyze`` is the per-event block mapping that
``decegy.trace.analyze`` used before it read one precomputed table per codec.
It re-derives every block's feature from ``counted_sizes`` and sums every
feature with ``math.fsum``, so it is slow but independent of the table.
``test_trace_oracle.py`` requires the library to produce the same traces and
vectors (bit for bit) or the same exception type and message.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from decegy.errors import IllegalEventError, TraceParseError
from decegy.taxonomy import (
    BLOCK_SIZES,
    Codec,
    EntropyMode,
    FeatureId,
    FeatureVector,
    Kind,
    build_feature_set,
    counted_sizes,
)
from decegy.trace import (
    CODEC_DIMS,
    Coefficient,
    DecodeEvent,
    DecodeTrace,
    FrameStart,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
)


def _parse_codec(raw, line: int) -> Codec:
    try:
        return Codec.from_name(str(raw))
    except ValueError as exc:
        raise TraceParseError(str(exc), line=line) from None


def _require_int(obj: dict, key: str, line: int) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceParseError(f"field {key!r} must be an integer", line=line)
    return value


def _require_size(obj: dict, key: str, line: int) -> int:
    value = _require_int(obj, key, line)
    if value not in BLOCK_SIZES:
        raise TraceParseError(
            f"block size {value} outside {set(BLOCK_SIZES)}", line=line
        )
    return value


def _require_flag(obj: dict, key: str, line: int) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise TraceParseError(f"field {key!r} must be a boolean", line=line)
    return value


def _parse_event(obj: dict, line: int) -> DecodeEvent:
    name = obj.get("event")
    if name is None:
        raise TraceParseError(
            "missing 'event' field (a header line is only allowed first)", line=line
        )
    if name == "frame_start":
        return FrameStart()
    if name == "intra":
        return IntraBlock(_require_size(obj, "w", line), _require_size(obj, "h", line))
    if name == "inter":
        return InterBlock(
            _require_size(obj, "w", line),
            _require_size(obj, "h", line),
            bipred=_require_flag(obj, "bipred", line),
            frac_h=_require_flag(obj, "frac_h", line),
            frac_v=_require_flag(obj, "frac_v", line),
            obmc=_require_flag(obj, "obmc", line),
        )
    if name == "transform":
        return TransformBlock(
            _require_size(obj, "w", line), _require_size(obj, "h", line)
        )
    if name == "coeff":
        value = _require_int(obj, "value", line)
        if value == 0:
            raise TraceParseError("zero coefficient", line=line)
        bits = _require_int(obj, "bits", line)
        if bits <= 0:
            raise TraceParseError("field 'bits' must be positive", line=line)
        raw_mode = obj.get("entropy")
        if raw_mode is None or raw_mode == "na":
            entropy = None
        else:
            try:
                entropy = EntropyMode(str(raw_mode).lower())
            except ValueError:
                raise TraceParseError(
                    f"unknown entropy mode {raw_mode!r}", line=line
                ) from None
        return Coefficient(value, bits, entropy)
    if name == "sao":
        return SaoBlock()
    raise TraceParseError(f"unknown event name {name!r}", line=line)


def parse_trace(source: Iterable[str], codec: Codec | None = None) -> DecodeTrace:
    events: list[DecodeEvent] = []
    header_codec: Codec | None = None
    header_id: str | None = None
    header_line: int | None = None
    seen_content = False
    line_no = 0
    for raw in source:
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(
                f"malformed JSON at column {exc.colno}: {exc.msg}", line=line_no
            ) from None
        if not isinstance(obj, dict):
            raise TraceParseError("expected a JSON object", line=line_no)
        if not seen_content and "event" not in obj:
            if "codec" in obj:
                header_codec = _parse_codec(obj["codec"], line_no)
            if "stream_id" in obj:
                header_id = str(obj["stream_id"])
            header_line = line_no
            seen_content = True
            continue
        seen_content = True
        events.append(_parse_event(obj, line_no))
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
        return DecodeTrace(header_id or "", resolved, tuple(events))
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def _check_dims(codec: Codec, w: int, h: int) -> None:
    legal = CODEC_DIMS[codec]
    if w not in legal or h not in legal:
        raise IllegalEventError(
            f"{w}x{h} block illegal for {codec.value} "
            f"(legal edge lengths: {sorted(legal)})"
        )


def _snap_size(edge: int, sizes_desc: tuple[int, ...]) -> int:
    # smallest counted size >= edge; above the largest counted, the largest
    for size in reversed(sizes_desc):
        if size >= edge:
            return size
    return sizes_desc[0]


def _map_sized_block(codec: Codec, kind: Kind, w: int, h: int) -> tuple[FeatureId, float]:
    _check_dims(codec, w, h)
    sizes = counted_sizes(codec, kind)
    if w == h:
        return FeatureId(codec, kind, _snap_size(w, sizes)), 1.0
    return FeatureId(codec, kind, _snap_size(max(w, h), sizes)), 0.5


def map_inter_block(codec: Codec, w: int, h: int) -> list[tuple[FeatureId, float]]:
    fid, weight = _map_sized_block(codec, Kind.INTER, w, h)
    return [(fid, weight)]


def coeff_value_contribution(codec: Codec, value: int, coded_bits: int) -> float:
    if value == 0:
        raise ValueError("zero coefficient")
    if codec is Codec.HEVC:
        return math.log2(abs(value))
    if coded_bits <= 0:
        raise ValueError("coded_bits must be positive")
    return float(coded_bits)


def pel_and_frac_counts(block: InterBlock) -> tuple[float, float]:
    base = float(block.w * block.h)
    factor = 2.0 if block.bipred else 1.0
    pels = base * factor
    fracs = base * (int(block.frac_h) + int(block.frac_v)) * factor
    return pels, fracs


def analyze(trace: DecodeTrace) -> FeatureVector:
    codec = trace.codec
    fs = build_feature_set(codec)
    parts: list[list[float]] = [[] for _ in range(len(fs))]
    frame_count = 0
    pel_idx = fs.index_of("pel")
    frac_idx = fs.index_of("frac")
    for ev in trace.events:
        if isinstance(ev, FrameStart):
            frame_count += 1
        elif isinstance(ev, IntraBlock):
            fid, weight = _map_sized_block(codec, Kind.INTRA, ev.w, ev.h)
            parts[fs.index_of(fid)].append(weight)
        elif isinstance(ev, InterBlock):
            pels, fracs = pel_and_frac_counts(ev)
            parts[pel_idx].append(pels)
            if fracs:
                parts[frac_idx].append(fracs)
            if ev.obmc:
                if codec is not Codec.H263:
                    raise IllegalEventError(
                        f"obmc flag illegal for {codec.value} (h263 only)"
                    )
                _check_dims(codec, ev.w, ev.h)
                weight = 1.0 if ev.w == ev.h else 0.5
                parts[fs.index_of("obmc")].append(weight)
            else:
                for fid, weight in map_inter_block(codec, ev.w, ev.h):
                    parts[fs.index_of(fid)].append(weight)
        elif isinstance(ev, TransformBlock):
            fid, weight = _map_sized_block(codec, Kind.TRANS, ev.w, ev.h)
            parts[fs.index_of(fid)].append(weight)
        elif isinstance(ev, Coefficient):
            if codec is Codec.H264:
                if ev.entropy is None:
                    raise IllegalEventError(
                        "h264 coefficient requires an entropy mode (cavlc or cabac)"
                    )
                coeff_name = f"coeff_{ev.entropy.value}"
                val_name = f"val_{ev.entropy.value}"
            else:
                if ev.entropy is not None:
                    raise IllegalEventError(
                        f"entropy mode illegal for {codec.value} (h264 only)"
                    )
                coeff_name, val_name = "coeff", "val"
            parts[fs.index_of(coeff_name)].append(1.0)
            parts[fs.index_of(val_name)].append(
                coeff_value_contribution(codec, ev.value, ev.coded_bits)
            )
        elif isinstance(ev, SaoBlock):
            if codec is not Codec.HEVC:
                raise IllegalEventError(f"sao event illegal for {codec.value}")
            parts[fs.index_of("sao")].append(1.0)
        else:
            raise IllegalEventError(f"unknown event type {type(ev).__name__}")
    counts = np.array([math.fsum(p) for p in parts])
    counts[fs.index_of("e0")] = 1.0
    counts[fs.index_of("frame")] = float(frame_count)
    return FeatureVector(fs, counts)
