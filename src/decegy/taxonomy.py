"""Codec feature taxonomies: the countable decoding processes per codec.

Every supported codec has a fixed, ordered set of countable features grouped
into six categories (OFFSET, INTRA, INTER, TRANS, COEFF, SAO).  A feature
counts one kind of decoding work: starting the decoder, initializing a frame,
predicting a block of a given size, filtering pels, running an inverse
transform, parsing a residual coefficient, or applying SAO.

The layout of a feature set is canonical so that vector indices, CSV columns
and parameter files stay stable across runs:

* categories in the order OFFSET, INTRA, INTER, TRANS, COEFF, SAO;
* within a block-sized kind, descending block size;
* for the duplicated H.264 residual features, CAVLC before CABAC.

Feature identifiers serialize as lowercase names such as ``e0``, ``frame``,
``inter32``, ``coeff_cavlc`` or ``sao``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from .errors import DataValidationError, json_text


class Codec(Enum):
    """The four supported hybrid video codecs."""

    H263 = "h263"
    H264 = "h264"
    HEVC = "hevc"
    VP9 = "vp9"

    @classmethod
    def from_name(cls, name: str) -> "Codec":
        if isinstance(name, str):
            try:
                return cls(name.strip().lower())
            except ValueError:
                pass
        raise DataValidationError(
            f"unknown codec {name!r}; expected one of {', '.join(c.value for c in cls)}"
        )


class Category(Enum):
    """Feature category. SAO occurs only in the HEVC feature set."""

    OFFSET = "OFFSET"
    INTRA = "INTRA"
    INTER = "INTER"
    TRANS = "TRANS"
    COEFF = "COEFF"
    SAO = "SAO"


class Kind(Enum):
    """Symbolic feature kind; sized kinds carry a block edge length."""

    E0 = "e0"
    FRAME = "frame"
    INTRA = "intra"
    INTER = "inter"
    OBMC = "obmc"
    PEL = "pel"
    FRAC = "frac"
    TRANS = "trans"
    COEFF = "coeff"
    VAL = "val"
    SAO = "sao"


class EntropyMode(Enum):
    """H.264 entropy-coding mode; residual features exist once per mode."""

    CAVLC = "cavlc"
    CABAC = "cabac"


#: Block edge lengths that may appear anywhere in a trace or feature id.
BLOCK_SIZES = (4, 8, 16, 32, 64)

_KIND_CATEGORY = {
    Kind.E0: Category.OFFSET,
    Kind.FRAME: Category.OFFSET,
    Kind.INTRA: Category.INTRA,
    Kind.INTER: Category.INTER,
    Kind.OBMC: Category.INTER,
    Kind.PEL: Category.INTER,
    Kind.FRAC: Category.INTER,
    Kind.TRANS: Category.TRANS,
    Kind.COEFF: Category.COEFF,
    Kind.VAL: Category.COEFF,
    Kind.SAO: Category.SAO,
}

_SIZED_KINDS = frozenset({Kind.INTRA, Kind.INTER, Kind.TRANS})

# Counted block sizes per codec and kind, largest first.  Only square sizes
# are counted; rectangular blocks are folded onto these by the analyzer.
_INTRA_SIZES = {
    Codec.H263: (16,),
    Codec.H264: (16, 4),
    Codec.HEVC: (32, 16, 8, 4),
    Codec.VP9: (32, 16, 8, 4),
}
_INTER_SIZES = {
    Codec.H263: (16, 8),
    Codec.H264: (16, 8, 4),
    Codec.HEVC: (64, 32, 16, 8),
    Codec.VP9: (64, 32, 16, 8, 4),
}
_TRANS_SIZES = {
    Codec.H263: (8,),
    Codec.H264: (4,),
    Codec.HEVC: (32, 16, 8, 4),
    Codec.VP9: (32, 16, 8, 4),
}


def counted_sizes(codec: Codec, kind: Kind) -> tuple[int, ...]:
    """Block sizes counted for a sized kind, in descending order."""
    table = {Kind.INTRA: _INTRA_SIZES, Kind.INTER: _INTER_SIZES, Kind.TRANS: _TRANS_SIZES}
    if kind not in table:
        raise ValueError(f"kind {kind.value!r} has no block sizes")
    return table[kind][codec]


@dataclass(frozen=True)
class FeatureId:
    """One countable feature of one codec.

    ``block_size`` is present exactly for the sized kinds (intra, inter,
    trans); ``entropy_mode`` exactly for the H.264 coeff/val features.
    """

    codec: Codec
    kind: Kind
    block_size: int | None = None
    entropy_mode: EntropyMode | None = None

    def __post_init__(self):
        if (self.block_size is not None) != (self.kind in _SIZED_KINDS):
            raise ValueError(
                f"block_size must be present iff kind is intra/inter/trans "
                f"(kind={self.kind.value}, block_size={self.block_size})"
            )
        if self.block_size is not None and self.block_size not in BLOCK_SIZES:
            raise ValueError(f"block size {self.block_size} outside {BLOCK_SIZES}")
        wants_entropy = self.codec is Codec.H264 and self.kind in (Kind.COEFF, Kind.VAL)
        if (self.entropy_mode is not None) != wants_entropy:
            raise ValueError(
                "entropy_mode is used exactly for H.264 coeff/val features "
                f"(codec={self.codec.value}, kind={self.kind.value})"
            )

    @property
    def category(self) -> Category:
        return _KIND_CATEGORY[self.kind]

    @property
    def name(self) -> str:
        """Canonical serialized name, e.g. ``inter32`` or ``coeff_cavlc``."""
        base = self.kind.value
        if self.block_size is not None:
            base += str(self.block_size)
        if self.entropy_mode is not None:
            base += "_" + self.entropy_mode.value
        return base

    @classmethod
    def from_name(cls, codec: Codec, name: str) -> "FeatureId":
        """The feature of ``codec``'s set with this canonical name; KeyError if none."""
        fs = build_feature_set(codec)
        return fs.features[fs.index_of(name.strip().lower())]


def feature_category(feature: FeatureId) -> Category:
    """Category a feature belongs to (fixed by its kind)."""
    return feature.category


@dataclass(frozen=True)
class FeatureSet:
    """The ordered, canonical feature list of one codec."""

    codec: Codec
    features: tuple[FeatureId, ...]

    def __post_init__(self):
        index: dict = {}
        columns: dict[Category, list[int]] = {cat: [] for cat in Category}
        for i, fid in enumerate(self.features):
            if fid.codec is not self.codec:
                raise ValueError(f"feature {fid.name} belongs to {fid.codec.value}")
            if fid in index or fid.name in index:
                raise ValueError(f"duplicate feature {fid.name}")
            index[fid] = i
            index[fid.name] = i
            columns[_KIND_CATEGORY[fid.kind]].append(i)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_names", tuple(fid.name for fid in self.features))
        object.__setattr__(self, "_category_columns", {c: tuple(i) for c, i in columns.items()})

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[FeatureId]:
        return iter(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def category_columns(self) -> dict[Category, tuple[int, ...]]:
        """Per category, in :class:`Category` order, the indices of its features (maybe none)."""
        return self._category_columns

    def index_of(self, feature: FeatureId | str) -> int:
        """Index of a feature (by id or canonical name) in the set."""
        key = feature if isinstance(feature, (FeatureId, str)) else None
        try:
            return self._index[key]
        except KeyError:
            name = feature.name if isinstance(feature, FeatureId) else feature
            raise KeyError(
                f"feature {name!r} not in the {self.codec.value} feature set"
            ) from None

    def __contains__(self, feature: FeatureId | str) -> bool:
        return feature in self._index

    def to_json(self, indent: int | None = None) -> str:
        """Export as ``{"codec": ..., "features": [...]}`` JSON."""
        return json_text({"codec": self.codec.value, "features": list(self.names)}, indent)


@lru_cache(maxsize=None)
def build_feature_set(codec: Codec) -> FeatureSet:
    """Build the canonical feature set of a codec.

    Cardinalities are fixed: 11 for H.263, 14 for H.264, 19 for HEVC and
    19 for VP9.  Repeated calls return the same object.
    """
    feats: list[FeatureId] = [
        FeatureId(codec, Kind.E0),
        FeatureId(codec, Kind.FRAME),
    ]
    feats += [FeatureId(codec, Kind.INTRA, s) for s in _INTRA_SIZES[codec]]
    feats += [FeatureId(codec, Kind.INTER, s) for s in _INTER_SIZES[codec]]
    if codec is Codec.H263:
        feats.append(FeatureId(codec, Kind.OBMC))
    feats += [FeatureId(codec, Kind.PEL), FeatureId(codec, Kind.FRAC)]
    feats += [FeatureId(codec, Kind.TRANS, s) for s in _TRANS_SIZES[codec]]
    if codec is Codec.H264:
        feats += [
            FeatureId(codec, Kind.COEFF, entropy_mode=EntropyMode.CAVLC),
            FeatureId(codec, Kind.COEFF, entropy_mode=EntropyMode.CABAC),
            FeatureId(codec, Kind.VAL, entropy_mode=EntropyMode.CAVLC),
            FeatureId(codec, Kind.VAL, entropy_mode=EntropyMode.CABAC),
        ]
    else:
        feats += [FeatureId(codec, Kind.COEFF), FeatureId(codec, Kind.VAL)]
    if codec is Codec.HEVC:
        feats.append(FeatureId(codec, Kind.SAO))
    return FeatureSet(codec, tuple(feats))


class FeatureVector:
    """Feature counts for one bitstream, aligned with a codec's feature set.

    Counts are real-valued (the half-weight rule for rectangular blocks
    produces 0.5 increments) and non-negative; the e0 count is 1 for any
    analyzed bitstream.  Construction is lenient -- use
    :func:`validate_vector` to collect invariant violations as data.

    Counts given as a list or tuple stay Python floats until the read-only
    float64 array :attr:`counts` is first read, so that numpy is not needed.
    """

    __slots__ = ("feature_set", "_floats", "_array")

    def __init__(self, feature_set: FeatureSet, counts):
        self.feature_set = feature_set
        listed = isinstance(counts, (list, tuple))
        self._floats = tuple(map(float, counts)) if listed else None
        self._array = None if listed else _read_only(counts)

    @property
    def counts(self):
        if self._array is None:
            self._array = _read_only(self._floats)
        return self._array

    @classmethod
    def from_dict(cls, feature_set: FeatureSet, mapping, default: float = 0.0):
        """Build from a name -> count mapping; unknown names are rejected."""
        counts = [default] * len(feature_set)
        for name, value in mapping.items():
            counts[feature_set.index_of(name)] = float(value)
        return cls(feature_set, counts)

    def tolist(self) -> list[float]:
        """The counts as Python floats."""
        return self._array.tolist() if self._floats is None else list(self._floats)

    def __getitem__(self, feature: FeatureId | str) -> float:
        return self.tolist()[self.feature_set.index_of(feature)]

    def __len__(self) -> int:
        return len(self.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.feature_set == other.feature_set and self.tolist() == other.tolist()

    def __repr__(self) -> str:
        return f"FeatureVector({self.feature_set.codec.value}, {self.counts!r})"

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.feature_set.names, self.tolist()))


def _read_only(counts):
    import numpy as np

    array = np.array(counts, dtype=float)
    array.setflags(write=False)
    return array


def validate_vector(feature_set: FeatureSet, vector: FeatureVector) -> list[str]:
    """Check a vector against the invariants; returns violations (empty = ok).

    Violations are data, not failures: every problem found is reported.
    """
    violations: list[str] = []
    if vector.feature_set != feature_set:
        violations.append(
            f"feature set mismatch: vector is for {vector.feature_set.codec.value}, "
            f"expected {feature_set.codec.value}"
        )
    counts = vector.tolist()
    n_expected = len(feature_set)
    if len(counts) != n_expected:
        violations.append(f"length mismatch: expected {n_expected}, got {len(counts)}")
    aligned = len(counts) == n_expected
    for i, value in enumerate(counts):
        label = feature_set.names[i] if aligned else f"index {i}"
        if not math.isfinite(value):
            violations.append(f"non-finite count: {label} = {value}")
        elif value < 0:
            violations.append(f"negative count: {label} = {value}")
    if aligned:
        e0 = counts[feature_set.index_of("e0")]
        if math.isfinite(e0) and e0 != 1.0:
            violations.append(f"e0 must be 1, got {e0}")
    return violations
