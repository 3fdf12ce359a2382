"""Shared helpers for the test suite: random traces, high-level records and changed values."""

from __future__ import annotations

import numpy as np

from decegy import (
    Codec,
    Coefficient,
    DecodeTrace,
    EntropyMode,
    FrameStart,
    HighLevelInfo,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
    predict_hl1,
    predict_hl2,
)
from decegy.trace import CODEC_DIMS

RESOLUTION_CHOICES = (416 * 240, 832 * 480, 1280 * 720, 1920 * 1080)


def random_trace(codec: Codec, rng: np.random.Generator, n_frames=3, blocks_per_frame=8) -> DecodeTrace:
    """A legal random trace for a codec (for invariance properties)."""
    dims = sorted(CODEC_DIMS[codec])
    events = []
    for _ in range(n_frames):
        events.append(FrameStart())
        for _ in range(blocks_per_frame):
            which = int(rng.integers(0, 5))
            w = int(dims[rng.integers(len(dims))])
            h = int(dims[rng.integers(len(dims))])
            if which == 0:
                events.append(IntraBlock(w, h))
            elif which == 1:
                events.append(
                    InterBlock(
                        w,
                        h,
                        bipred=bool(rng.random() < 0.5),
                        frac_h=bool(rng.random() < 0.5),
                        frac_v=bool(rng.random() < 0.5),
                        obmc=bool(codec is Codec.H263 and rng.random() < 0.3),
                    )
                )
            elif which == 2:
                events.append(TransformBlock(w, h))
            elif which == 3:
                value = int(rng.integers(1, 100)) * (1 if rng.random() < 0.5 else -1)
                entropy = None
                if codec is Codec.H264:
                    entropy = EntropyMode.CAVLC if rng.random() < 0.5 else EntropyMode.CABAC
                events.append(Coefficient(value, int(rng.integers(1, 12)), entropy))
            else:
                if codec is Codec.HEVC:
                    events.append(SaoBlock())
                else:
                    events.append(TransformBlock(w, h))
    return DecodeTrace(f"rand-{codec.value}", codec, tuple(events))


def shuffle_within_frames(trace: DecodeTrace, rng: np.random.Generator) -> DecodeTrace:
    """Permute block events inside each frame, keeping frame boundaries."""
    segments: list[list] = []
    for ev in trace.events:
        if isinstance(ev, FrameStart):
            segments.append([ev])
        else:
            segments[-1].append(ev)
    shuffled = []
    for segment in segments:
        head, rest = segment[0], segment[1:]
        order = rng.permutation(len(rest))
        shuffled.append(head)
        shuffled.extend(rest[i] for i in order)
    return DecodeTrace(trace.stream_id, trace.codec, tuple(shuffled))


def replace(value, **changes):
    """A value of a ``taxonomy.Frozen`` class with some fields changed, made again through
    its constructor, which checks it."""
    return type(value)(**{**dict(zip(value._fields, value._values())), **changes})


def hl1_records(rng: np.random.Generator, n: int, params, noise_sigma: float = 0.0):
    """(HighLevelInfo, energy) pairs generated exactly from an HL1 truth."""
    records = []
    for _ in range(n):
        pixels = float(rng.choice(RESOLUTION_CHOICES))
        frames = int(rng.integers(8, 65))
        bytes_per_pixel = float(rng.uniform(0.02, 3.0))
        info = HighLevelInfo(
            pixels_per_frame=pixels,
            frames=frames,
            file_size_bytes=bytes_per_pixel * pixels * frames,
            intra_rate=float(rng.uniform(0.0, 1.0)),
        )
        energy = predict_hl1(params, info)
        if noise_sigma > 0:
            while True:
                noisy = energy * (1.0 + rng.normal(0.0, noise_sigma))
                if noisy > 0:
                    break
            energy = noisy
        records.append((info, energy))
    return records


def hl2_records(rng: np.random.Generator, n: int, params):
    """(HighLevelInfo, energy) pairs generated exactly from an HL2 truth."""
    records = []
    for _ in range(n):
        pixels = float(rng.choice(RESOLUTION_CHOICES))
        frames = int(rng.integers(8, 65))
        bytes_per_pixel = float(rng.uniform(0.02, 3.0))
        info = HighLevelInfo(
            pixels_per_frame=pixels,
            frames=frames,
            file_size_bytes=bytes_per_pixel * pixels * frames,
            intra_rate=float(rng.uniform(0.0, 1.0)),
        )
        records.append((info, predict_hl2(params, info)))
    return records
