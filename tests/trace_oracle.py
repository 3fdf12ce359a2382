"""Reference implementation of the trace counting rules, kept as a test oracle.

This is the per-event block mapping that ``decegy.trace.analyze`` used before
it read one precomputed table per codec.  It re-derives every block's feature
from ``counted_sizes`` and sums every feature with ``math.fsum``, so it is slow
but independent of the table.  ``test_trace_oracle.py`` requires the library
to produce the same vectors (bit for bit) or the same exception type.
"""

from __future__ import annotations

import math

import numpy as np

from decegy.errors import IllegalEventError
from decegy.taxonomy import (
    Codec,
    FeatureId,
    FeatureVector,
    Kind,
    build_feature_set,
    counted_sizes,
)
from decegy.trace import (
    CODEC_DIMS,
    Coefficient,
    DecodeTrace,
    FrameStart,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
)


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
