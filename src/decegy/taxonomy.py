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
from enum import Enum
from functools import lru_cache
from operator import attrgetter
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


class Frozen:
    """Base of every immutable value class: feature ids, sets and values, trace events and
    traces, dataset records, model inputs and parameters, folds, reports, breakdown rows and
    fit diagnostics.

    A subclass names its fields in ``__slots__`` in constructor order (then any derived
    values, if ``_fields`` names the fields alone), or keeps its parent's with empty
    ``__slots__``, and stores them with :meth:`_set`.  It gets equality and hashing over the
    fields within one type (the hash kept once made, as ``Counter(trace.events)`` asks for
    it often), the repr ``Name(field=value, ...)``, AttributeError on assignment and
    deletion, and copy and pickle through the constructor; :meth:`_values` gives the
    fields' values.  It stands in for the standard library's generated classes, whose
    module loads ``inspect``: importing and making them cost a process 10-15 ms of CPU.
    """

    __slots__ = ("_hash",)
    _slots = _fields = ()

    def __init_subclass__(cls):
        cls._slots = cls.__slots__ or cls._slots
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__ or cls._fields)
        cls._key = attrgetter(*fields or ["__class__"])  # a fieldless type has one value

    def _set(self, *values) -> None:
        for name, value in zip(self._slots, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        """The fields' values, in constructor order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first time
            object.__setattr__(self, "_hash", hash(self._key(self)))
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FeatureId(Frozen):
    """One countable feature of one codec.

    ``block_size`` is present exactly for the sized kinds (intra, inter,
    trans); ``entropy_mode`` exactly for the H.264 coeff/val features.
    """

    __slots__ = ("codec", "kind", "block_size", "entropy_mode")

    def __init__(self, codec: Codec, kind: Kind, block_size: int | None = None,
                 entropy_mode: EntropyMode | None = None):
        if (block_size is not None) != (kind in _SIZED_KINDS):
            raise ValueError(
                f"block_size must be present iff kind is intra/inter/trans "
                f"(kind={kind.value}, block_size={block_size})"
            )
        if block_size is not None and block_size not in BLOCK_SIZES:
            raise ValueError(f"block size {block_size} outside {BLOCK_SIZES}")
        wants_entropy = codec is Codec.H264 and kind in (Kind.COEFF, Kind.VAL)
        if (entropy_mode is not None) != wants_entropy:
            raise ValueError(
                "entropy_mode is used exactly for H.264 coeff/val features "
                f"(codec={codec.value}, kind={kind.value})"
            )
        self._set(codec, kind, block_size, entropy_mode)

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


class FeatureSet(Frozen):
    """The ordered, canonical feature list of one codec."""

    __slots__ = ("codec", "features", "_index", "_names", "_category_columns")
    _fields = __slots__[:2]

    def __init__(self, codec: Codec, features: tuple[FeatureId, ...]):
        index: dict = {}
        columns: dict[Category, list[int]] = {cat: [] for cat in Category}
        for i, fid in enumerate(features):
            if fid.codec is not codec:
                raise ValueError(f"feature {fid.name} belongs to {fid.codec.value}")
            if fid in index or fid.name in index:
                raise ValueError(f"duplicate feature {fid.name}")
            index[fid] = i
            index[fid.name] = i
            columns[_KIND_CATEGORY[fid.kind]].append(i)
        names = tuple(fid.name for fid in features)
        self._set(codec, features, index, names, {c: tuple(i) for c, i in columns.items()})

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


class FeatureValues(Frozen):
    """One number per feature of a codec's feature set, as Python floats in :attr:`floats`.

    Numbers given as a list or tuple get their read-only float64 array when it is first
    read, so that numpy is not needed."""

    __slots__ = ("feature_set", "floats", "_array")
    _fields = __slots__[:2]

    def __init__(self, feature_set: FeatureSet, values):
        listed = isinstance(values, (list, tuple))
        array = None if listed else float_array(values)
        self._set(feature_set, tuple(map(float, values) if listed else array.tolist()), array)

    def _read(self):
        if self._array is None:
            object.__setattr__(self, "_array", float_array(self.floats))
        return self._array

    @classmethod
    def from_dict(cls, feature_set: FeatureSet, mapping, default: float = 0.0):
        """Build from a name -> number mapping; unknown names are rejected."""
        values = [default] * len(feature_set)
        for name, value in mapping.items():
            values[feature_set.index_of(name)] = float(value)
        return cls(feature_set, values)

    def tolist(self) -> list[float]:
        """The numbers as Python floats."""
        return list(self.floats)

    def __getitem__(self, feature: FeatureId | str) -> float:
        return self.floats[self.feature_set.index_of(feature)]

    def __len__(self) -> int:
        return len(self.floats)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.feature_set.codec.value}, {self._read()!r})"

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.feature_set.names, self.floats))


class FeatureVector(FeatureValues):
    """Feature counts for one bitstream, aligned with a codec's feature set.

    Counts are real-valued (the half-weight rule for rectangular blocks
    produces 0.5 increments) and non-negative; the e0 count is 1 for any
    analyzed bitstream.  Construction is lenient -- use
    :func:`validate_vector` to collect invariant violations as data.
    """

    __slots__ = ()
    counts = property(FeatureValues._read, doc="The counts as a read-only float64 array.")


def float_array(values):
    """A read-only float64 array of ``values``; numpy loads on the first call."""
    import numpy as np

    array = np.array(values, dtype=float)
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
