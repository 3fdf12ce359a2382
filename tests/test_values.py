"""Value semantics of the feature ids and sets, trace events and traces.

They were frozen dataclasses and are plain slotted classes on ``taxonomy.Frozen``
now; each must still construct, compare, hash, print, refuse changes, copy and
pickle as the dataclass did, with the same validation messages.
"""

import copy
import pickle

import pytest

from decegy.taxonomy import Codec, EntropyMode, FeatureId, FeatureSet, Kind, build_feature_set
from decegy.trace import (
    Coefficient,
    DecodeTrace,
    FrameStart,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
)

E0, SAO = FeatureId(Codec.HEVC, Kind.E0), FeatureId(Codec.HEVC, Kind.SAO)

#: Per class: positional arguments, the same as keywords with every default left out,
#: the defaults, a value that differs in one field, and the repr the dataclass gave.
CASES = {
    "FeatureId": (
        FeatureId, (Codec.HEVC, Kind.INTER, 32), {"codec": Codec.HEVC, "kind": Kind.INTER,
                                                  "block_size": 32},
        {"entropy_mode": None}, FeatureId(Codec.HEVC, Kind.INTER, 16),
        "FeatureId(codec=<Codec.HEVC: 'hevc'>, kind=<Kind.INTER: 'inter'>, block_size=32, "
        "entropy_mode=None)",
    ),
    "FeatureSet": (
        FeatureSet, (Codec.HEVC, (E0, SAO)), {"codec": Codec.HEVC, "features": (E0, SAO)},
        {}, FeatureSet(Codec.HEVC, (SAO, E0)),
        "FeatureSet(codec=<Codec.HEVC: 'hevc'>, features=(FeatureId(codec=<Codec.HEVC: 'hevc'>, "
        "kind=<Kind.E0: 'e0'>, block_size=None, entropy_mode=None), FeatureId(codec=<Codec.HEVC:"
        " 'hevc'>, kind=<Kind.SAO: 'sao'>, block_size=None, entropy_mode=None)))",
    ),
    "FrameStart": (FrameStart, (), {}, {}, None, "FrameStart()"),
    "IntraBlock": (
        IntraBlock, (8, 16), {"w": 8, "h": 16}, {}, IntraBlock(16, 8), "IntraBlock(w=8, h=16)",
    ),
    "InterBlock": (
        InterBlock, (16, 8, True, False, True), {"w": 16, "h": 8, "bipred": True, "frac_v": True},
        {"frac_h": False, "obmc": False}, InterBlock(16, 8, True, False, True, True),
        "InterBlock(w=16, h=8, bipred=True, frac_h=False, frac_v=True, obmc=False)",
    ),
    "TransformBlock": (
        TransformBlock, (4, 4), {"w": 4, "h": 4}, {}, TransformBlock(4, 8),
        "TransformBlock(w=4, h=4)",
    ),
    "Coefficient": (
        Coefficient, (-3, 5), {"value": -3, "coded_bits": 5}, {"entropy": None},
        Coefficient(-3, 5, EntropyMode.CABAC),
        "Coefficient(value=-3, coded_bits=5, entropy=None)",
    ),
    "SaoBlock": (SaoBlock, (), {}, {}, None, "SaoBlock()"),
    "DecodeTrace": (
        DecodeTrace, ("s1", Codec.HEVC, (FrameStart(), IntraBlock(8, 8))),
        {"stream_id": "s1", "codec": Codec.HEVC, "events": (FrameStart(), IntraBlock(8, 8))},
        {}, DecodeTrace("s2", Codec.HEVC, (FrameStart(), IntraBlock(8, 8))),
        "DecodeTrace(stream_id='s1', codec=<Codec.HEVC: 'hevc'>, "
        "events=(FrameStart(), IntraBlock(w=8, h=8)))",
    ),
}

by_class = pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))


def _value(case):
    cls, args, *_ = case
    return cls(*args)


@by_class
def test_positional_and_keyword_construction_agree_and_fill_the_defaults(case):
    cls, args, kwargs, defaults, *_ = case
    value = cls(**kwargs)
    assert value == cls(*args)
    assert all(getattr(value, name) == default for name, default in defaults.items())


@by_class
def test_equal_values_are_equal_and_hash_alike(case):
    value, other = _value(case), _value(case)
    assert value is not other
    assert value == other and not value != other
    assert hash(value) == hash(other)


@by_class
def test_a_value_with_one_field_changed_differs(case):
    different = case[4]
    if different is not None:
        assert _value(case) != different
        assert different != _value(case)


def test_equality_holds_within_one_type_only():
    assert IntraBlock(8, 8) != TransformBlock(8, 8)
    assert FrameStart() != SaoBlock()
    assert len({IntraBlock(8, 8), TransformBlock(8, 8), FrameStart(), SaoBlock()}) == 4
    assert IntraBlock(8, 8) != (8, 8)


def test_a_feature_set_compares_and_hashes_on_its_codec_and_features():
    built = build_feature_set(Codec.VP9)
    again = FeatureSet(Codec.VP9, tuple(built.features))
    assert again is not built
    assert again == built and hash(again) == hash(built)


@by_class
def test_repr_is_the_dataclass_repr(case):
    assert repr(_value(case)) == case[5]


@by_class
def test_assignment_and_deletion_raise_attribute_error(case):
    value, fields = _value(case), (*case[2], *case[3])
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == _value(case)


@by_class
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trips(case, round_trip):
    value = _value(case)
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert repr(again) == repr(value)


def test_a_pickled_feature_set_keeps_its_index():
    again = pickle.loads(pickle.dumps(build_feature_set(Codec.H264)))
    assert again.index_of("coeff_cabac") == build_feature_set(Codec.H264).index_of("coeff_cabac")
    assert again.names == build_feature_set(Codec.H264).names


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Coefficient(0, 3), "coefficient value must be non-zero"),
        (lambda: Coefficient(1, 0), "coded_bits must be positive"),
        (lambda: FeatureId(Codec.HEVC, Kind.INTER),
         "block_size must be present iff kind is intra/inter/trans (kind=inter, block_size=None)"),
        (lambda: FeatureId(Codec.HEVC, Kind.E0, 8),
         "block_size must be present iff kind is intra/inter/trans (kind=e0, block_size=8)"),
        (lambda: FeatureId(Codec.HEVC, Kind.INTRA, 12), "block size 12 outside (4, 8, 16, 32, 64)"),
        (lambda: FeatureId(Codec.H264, Kind.COEFF),
         "entropy_mode is used exactly for H.264 coeff/val features (codec=h264, kind=coeff)"),
        (lambda: FeatureId(Codec.HEVC, Kind.VAL, entropy_mode=EntropyMode.CAVLC),
         "entropy_mode is used exactly for H.264 coeff/val features (codec=hevc, kind=val)"),
        (lambda: DecodeTrace("s", Codec.VP9, (IntraBlock(8, 8), FrameStart())),
         "block event before the first frame_start"),
    ],
    ids=["zero-value", "zero-bits", "unsized-inter", "sized-e0", "odd-size", "h264-no-mode",
         "hevc-mode", "block-first"],
)
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message
