"""Seeded input generator: decode traces with expected counts, and datasets.

Every input the benchmark hands to ``decegy`` is written here from a seed.
The expected feature counts of each trace are computed from the counting
rules stated in the ``decegy.trace`` module docstring, without calling that
module, so the benchmark can check ``decegy analyze`` output exactly:

* square blocks count with weight 1 at the smallest counted size at least as
  large (the largest counted size when above it); rectangular blocks count as
  half of the next bigger counted square;
* ``pel`` counts w*h per inter block, ``frac`` w*h per fractional dimension,
  both doubled under biprediction;
* H.263 inter blocks flagged OBMC count toward ``obmc`` instead of their size;
* ``coeff`` counts coefficients and ``val`` sums log2|value| on HEVC and coded
  bits elsewhere, routed by entropy mode on H.264; ``sao`` counts SAO blocks.

Every contribution except HEVC ``val`` is a multiple of 0.5, so the counts are
kept as integers in half units and are exact.  HEVC ``val`` is the
``math.fsum`` of the ``math.log2`` magnitudes, which the analyzer must match
bit for bit whatever order it adds them in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from decegy.dataset import BASE_COLUMNS, default_count_ranges, default_specific_energies
from decegy.taxonomy import Codec, Kind, build_feature_set, counted_sizes

CODECS = (Codec.H263, Codec.H264, Codec.HEVC, Codec.VP9)

# Block edge lengths each codec's decoder emits (a property of the codec).
LEGAL_EDGES = {
    Codec.H263: (8, 16),
    Codec.H264: (4, 8, 16),
    Codec.HEVC: (4, 8, 16, 32, 64),
    Codec.VP9: (4, 8, 16, 32, 64),
}

# Event mix: share of block events per kind; frame_start every FRAME_EVENTS.
EVENT_KINDS = ("intra", "inter", "transform", "coeff", "sao")
EVENT_SHARES = (0.10, 0.25, 0.20, 0.40, 0.05)
FRAME_EVENTS = 400
MAX_MAGNITUDE = 300


def _snap_table(edges: tuple[int, ...], sizes: tuple[int, ...]) -> dict[int, int]:
    """Counted size of each block edge: the smallest at least as large, else the largest."""
    ascending = sorted(sizes)
    return {e: next((s for s in ascending if s >= e), ascending[-1]) for e in edges}


@dataclass
class Trace:
    """One generated trace file and the counts ``analyze`` must produce."""

    stream_id: str
    codec: Codec
    path: Path
    events: int
    expected: dict[str, float]


def _flag(value) -> str:
    return "true" if value else "false"


def _render(codec: Codec, event: tuple, snap: dict) -> tuple[str, dict[str, int]]:
    """JSON line of one event and its contributions in half units."""
    kind, w, h, bipred, frac_h, frac_v, obmc, value, bits, cabac = event
    kind = EVENT_KINDS[kind]
    weight = 2 if w == h else 1
    if kind in ("intra", "transform"):
        feature = ("intra" if kind == "intra" else "trans") + str(
            snap[Kind.INTRA if kind == "intra" else Kind.TRANS][max(w, h)]
        )
        return f'{{"event": "{kind}", "w": {w}, "h": {h}}}', {feature: weight}
    if kind == "inter":
        obmc_field = f', "obmc": {_flag(obmc)}' if codec is Codec.H263 else ""
        line = (
            f'{{"event": "inter", "w": {w}, "h": {h}, "bipred": {_flag(bipred)}, '
            f'"frac_h": {_flag(frac_h)}, "frac_v": {_flag(frac_v)}{obmc_field}}}'
        )
        factor = 2 if bipred else 1
        block = "obmc" if obmc else f"inter{snap[Kind.INTER][max(w, h)]}"
        return line, {
            "pel": 2 * w * h * factor,
            "frac": 2 * w * h * (frac_h + frac_v) * factor,
            block: weight,
        }
    if kind == "coeff":
        if codec is Codec.H264:
            mode = "cabac" if cabac else "cavlc"
            line = f'{{"event": "coeff", "value": {value}, "bits": {bits}, "entropy": "{mode}"}}'
            coeff_name, val_name = f"coeff_{mode}", f"val_{mode}"
        else:
            line = f'{{"event": "coeff", "value": {value}, "bits": {bits}}}'
            coeff_name, val_name = "coeff", "val"
        counts = {coeff_name: 2}
        if codec is not Codec.HEVC:
            counts[val_name] = 2 * bits
        return line, counts
    return '{"event": "sao"}', {"sao": 2}


def make_trace(
    rng: np.random.Generator,
    codec: Codec,
    n_events: int,
    path: Path,
    stream_id: str,
    header: bool,
) -> Trace:
    """Write a JSON Lines trace of ``n_events`` events and return its counts.

    With ``header`` the file starts with a stream id and codec line; without
    it ``decegy analyze`` needs ``--codec`` and takes the id from the file
    name, so ``stream_id`` must then equal the file stem.  Events repeat, so
    each distinct event is rendered and counted once and then multiplied.
    """
    edges = LEGAL_EDGES[codec]
    snap = {
        kind: _snap_table(edges, counted_sizes(codec, kind))
        for kind in (Kind.INTRA, Kind.INTER, Kind.TRANS)
    }
    shares = np.array(EVENT_SHARES)
    if codec is not Codec.HEVC:
        shares[EVENT_KINDS.index("sao")] = 0.0
    shares /= shares.sum()

    # one row per event: kind, w, h, bipred, frac_h, frac_v, obmc, value, bits, cabac
    ev = np.zeros((n_events, 10), dtype=np.int64)
    ev[:, 0] = rng.choice(len(EVENT_KINDS), size=n_events, p=shares)
    ev[:, 1:3] = rng.choice(edges, size=(n_events, 2))
    ev[:, 3:7] = rng.integers(0, 2, size=(n_events, 4))
    # mostly small magnitudes, some large; random sign
    ev[:, 7] = np.minimum(rng.geometric(0.15, size=n_events), MAX_MAGNITUDE)
    ev[:, 7] *= rng.choice((-1, 1), size=n_events)
    ev[:, 8] = rng.integers(1, 24, size=n_events)
    ev[:, 9] = rng.integers(0, 2, size=n_events)
    kind = ev[:, 0]
    sized = np.isin(kind, [EVENT_KINDS.index("intra"), EVENT_KINDS.index("transform")])
    inter = kind == EVENT_KINDS.index("inter")
    coeff = kind == EVENT_KINDS.index("coeff")
    ev[~(sized | inter), 1:3] = 0
    ev[~inter, 3:7] = 0
    if codec is not Codec.H263:
        ev[:, 6] = 0
    ev[~coeff, 7:10] = 0
    if codec is not Codec.H264:
        ev[:, 9] = 0

    # one integer per distinct event (mixed radix over the fields), for a fast unique
    offset = np.array([0, 0, 0, 0, 0, 0, 0, MAX_MAGNITUDE, 0, 0])
    radix = np.array([len(EVENT_KINDS), 65, 65, 2, 2, 2, 2, 2 * MAX_MAGNITUDE + 1, 24, 2])
    place = np.cumprod(np.concatenate(([1], radix[:0:-1])))[::-1]
    _, first, inverse, multiplicity = np.unique(
        (ev + offset) @ place, return_index=True, return_inverse=True, return_counts=True
    )
    unique = ev[first]
    half = dict.fromkeys(build_feature_set(codec).names, 0)  # counts in half units
    rendered = []
    for event, n in zip(unique.tolist(), multiplicity.tolist()):
        line, contributions = _render(codec, tuple(event), snap)
        rendered.append(line)
        for name, amount in contributions.items():
            half[name] += n * amount
    lines = np.array(rendered, dtype=object)[inverse.reshape(-1)].tolist()

    out = [f'{{"stream_id": "{stream_id}", "codec": "{codec.value}"}}'] if header else []
    frames = 0
    for begin in range(0, n_events, FRAME_EVENTS):
        out.append('{"event": "frame_start"}')
        out += lines[begin:begin + FRAME_EVENTS]
        frames += 1
    path.write_text("\n".join(out) + "\n", encoding="utf-8")

    expected = {name: count / 2 for name, count in half.items()}
    expected["e0"] = 1.0
    expected["frame"] = float(frames)
    if codec is Codec.HEVC:
        coeffs = unique[:, 0] == EVENT_KINDS.index("coeff")
        log2s = [math.log2(abs(v)) for v in unique[coeffs, 7].tolist()]
        expected["val"] = math.fsum(np.repeat(log2s, multiplicity[coeffs]).tolist())
    return Trace(stream_id, codec, path, n_events + frames, expected)


def write_dataset(
    rng: np.random.Generator,
    codec: Codec,
    count: int,
    sigma: float,
    path: Path,
) -> None:
    """Write a dataset CSV with two tag columns.

    Counts are drawn uniformly from ``default_count_ranges`` and energies are
    the feature-model value under ``default_specific_energies`` times
    (1 + N(0, sigma)) noise.  ``sequence`` and ``qp`` are extra columns that
    ``decegy`` loads as free-form tags.
    """
    fs = build_feature_set(codec)
    truth = default_specific_energies(codec).values
    ranges = default_count_ranges(codec)
    counts = np.empty((count, len(fs)))
    frames = rng.integers(8, 65, size=count)
    for j, fid in enumerate(fs):
        if fid.kind is Kind.E0:
            counts[:, j] = 1.0
        elif fid.kind is Kind.FRAME:
            counts[:, j] = frames
        else:
            lo, hi = ranges[fid.name]
            counts[:, j] = rng.uniform(lo, hi, size=count)
    noise = 1.0 + rng.normal(0.0, sigma, size=count) if sigma > 0 else np.ones(count)
    if not np.all(noise > 0):
        raise ValueError(f"sigma {sigma} drew a nonpositive energy")
    resolutions = ((416, 240), (832, 480), (1280, 720), (1920, 1080))
    res_idx = rng.integers(len(resolutions), size=count)
    intra = rng.integers(0, frames + 1)
    coeff_cols = [j for j, fid in enumerate(fs) if fid.kind in (Kind.COEFF, Kind.VAL)]
    sizes = np.maximum(1, np.round(200.0 * frames + 2.0 * counts[:, coeff_cols].sum(axis=1)))
    qps = rng.choice((22, 27, 32, 37), size=count)

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(BASE_COLUMNS) + list(fs.names) + ["qp", "sequence"])
        for i in range(count):
            energy = math.fsum(truth * counts[i]) * float(noise[i])
            width, height = resolutions[res_idx[i]]
            writer.writerow(
                [f"{codec.value}-{i:05d}", codec.value, width, height, int(frames[i]),
                 int(sizes[i]), int(intra[i]), repr(energy)]
                + [repr(float(c)) for c in counts[i]]
                + [int(qps[i]), f"seq{i % 17:02d}"]
            )
