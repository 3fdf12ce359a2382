"""Feature taxonomy: set contents, ordering, categories, vector validation."""

import json
import math

import numpy as np
import pytest

from decegy import (
    Category,
    Codec,
    EntropyMode,
    FeatureId,
    FeatureVector,
    Kind,
    build_feature_set,
    feature_category,
    validate_vector,
)

EXPECTED_NAMES = {
    Codec.H263: (
        "e0", "frame", "intra16", "inter16", "inter8", "obmc", "pel", "frac",
        "trans8", "coeff", "val",
    ),
    Codec.H264: (
        "e0", "frame", "intra16", "intra4", "inter16", "inter8", "inter4",
        "pel", "frac", "trans4", "coeff_cavlc", "coeff_cabac", "val_cavlc",
        "val_cabac",
    ),
    Codec.HEVC: (
        "e0", "frame", "intra32", "intra16", "intra8", "intra4", "inter64",
        "inter32", "inter16", "inter8", "pel", "frac", "trans32", "trans16",
        "trans8", "trans4", "coeff", "val", "sao",
    ),
    Codec.VP9: (
        "e0", "frame", "intra32", "intra16", "intra8", "intra4", "inter64",
        "inter32", "inter16", "inter8", "inter4", "pel", "frac", "trans32",
        "trans16", "trans8", "trans4", "coeff", "val",
    ),
}


def test_cardinalities():
    assert len(build_feature_set(Codec.H263)) == 11
    assert len(build_feature_set(Codec.H264)) == 14
    assert len(build_feature_set(Codec.HEVC)) == 19
    assert len(build_feature_set(Codec.VP9)) == 19


@pytest.mark.parametrize("codec", list(Codec))
def test_member_lists(codec):
    assert build_feature_set(codec).names == EXPECTED_NAMES[codec]


def test_h263_has_obmc_and_single_trans_size():
    names = build_feature_set(Codec.H263).names
    assert "obmc" in names
    assert [n for n in names if n.startswith("trans")] == ["trans8"]


def test_h264_residual_features_duplicated_per_entropy_mode():
    names = build_feature_set(Codec.H264).names
    assert names.count("coeff_cavlc") == 1 and names.count("coeff_cabac") == 1
    assert names.count("val_cavlc") == 1 and names.count("val_cabac") == 1


def test_sao_only_in_hevc():
    for codec in Codec:
        has_sao = "sao" in build_feature_set(codec).names
        assert has_sao == (codec is Codec.HEVC)


def test_build_is_pure_and_deterministic():
    for codec in Codec:
        a = build_feature_set(codec)
        b = build_feature_set(codec)
        assert a is b
        assert a.features == b.features


@pytest.mark.parametrize("codec", list(Codec))
def test_index_lookup_roundtrip(codec):
    fs = build_feature_set(codec)
    for i, fid in enumerate(fs):
        assert fs.index_of(fid) == i
        assert fs.index_of(fid.name) == i
        assert fs.features[fs.index_of(fid.name)] == fid


def test_index_of_unknown_feature():
    fs = build_feature_set(Codec.VP9)
    with pytest.raises(KeyError):
        fs.index_of("sao")


def test_feature_category_examples():
    frac = FeatureId(Codec.HEVC, Kind.FRAC)
    assert feature_category(frac) is Category.INTER
    frame = FeatureId(Codec.H263, Kind.FRAME)
    assert feature_category(frame) is Category.OFFSET
    val_cabac = FeatureId(Codec.H264, Kind.VAL, entropy_mode=EntropyMode.CABAC)
    assert feature_category(val_cabac) is Category.COEFF


@pytest.mark.parametrize("codec", list(Codec))
def test_every_feature_has_exactly_one_category(codec):
    fs = build_feature_set(codec)
    seen = set()
    for fid in fs:
        assert isinstance(fid.category, Category)
        seen.add(fid.category)
    expected = {Category.OFFSET, Category.INTRA, Category.INTER, Category.TRANS, Category.COEFF}
    if codec is Codec.HEVC:
        expected.add(Category.SAO)
    assert seen == expected


def test_feature_id_name_roundtrip():
    for codec in Codec:
        for fid in build_feature_set(codec):
            assert FeatureId.from_name(codec, fid.name) == fid


@pytest.mark.parametrize(
    "codec, name",
    [(Codec.HEVC, "inter4"), (Codec.VP9, "obmc"), (Codec.H263, "sao"), (Codec.HEVC, "coeff_cabac"),
     (Codec.H264, "coeff"), (Codec.HEVC, "inter128"), (Codec.VP9, "e1"), (Codec.VP9, "")],
)
def test_feature_name_outside_the_codec_set_is_rejected(codec, name):
    with pytest.raises(KeyError, match=f"not in the {codec.value} feature set"):
        FeatureId.from_name(codec, name)


def test_feature_id_invariants():
    with pytest.raises(ValueError):
        FeatureId(Codec.HEVC, Kind.PEL, block_size=16)
    with pytest.raises(ValueError):
        FeatureId(Codec.HEVC, Kind.INTRA)  # sized kind without size
    with pytest.raises(ValueError):
        FeatureId(Codec.HEVC, Kind.INTRA, block_size=12)


@pytest.mark.parametrize("mode", [None, *EntropyMode], ids=["no-mode", "cavlc", "cabac"])
@pytest.mark.parametrize("kind", [Kind.COEFF, Kind.VAL], ids=lambda kind: kind.value)
@pytest.mark.parametrize("codec", list(Codec), ids=lambda codec: codec.value)
def test_entropy_mode_is_given_exactly_for_the_h264_residual_features(codec, kind, mode):
    if (mode is not None) == (codec is Codec.H264):
        fid = FeatureId(codec, kind, entropy_mode=mode)
        assert fid.entropy_mode is mode and fid in build_feature_set(codec)
    else:
        with pytest.raises(ValueError) as caught:
            FeatureId(codec, kind, entropy_mode=mode)
        assert str(caught.value) == ("entropy_mode is used exactly for H.264 coeff/val features "
                                     f"(codec={codec.value}, kind={kind.value})")


def test_validate_vector_ok_for_zero_vector_with_e0():
    fs = build_feature_set(Codec.HEVC)
    counts = np.zeros(19)
    counts[fs.index_of("e0")] = 1.0
    assert validate_vector(fs, FeatureVector(fs, counts)) == []


def test_validate_vector_negative_count():
    fs = build_feature_set(Codec.H264)
    vec = FeatureVector.from_dict(fs, {"e0": 1.0, "pel": -3.0})
    violations = validate_vector(fs, vec)
    assert any("negative count" in v and "pel" in v for v in violations)


def test_validate_vector_length_mismatch():
    fs = build_feature_set(Codec.HEVC)
    vec = FeatureVector(fs, np.zeros(14))
    violations = validate_vector(fs, vec)
    assert any("length mismatch" in v for v in violations)


def test_validate_vector_reports_a_vector_of_another_codec():
    hevc, vp9 = build_feature_set(Codec.HEVC), build_feature_set(Codec.VP9)
    vector = FeatureVector.from_dict(vp9, {"e0": 1.0})
    assert validate_vector(hevc, vector) == [
        "feature set mismatch: vector is for vp9, expected hevc"
    ]


def test_validate_vector_e0_must_be_one():
    fs = build_feature_set(Codec.VP9)
    vec = FeatureVector(fs, np.zeros(19))
    assert any("e0" in v for v in validate_vector(fs, vec))


def test_fractional_counts_are_legal():
    fs = build_feature_set(Codec.H264)
    vec = FeatureVector.from_dict(fs, {"e0": 1.0, "inter16": 0.5})
    assert validate_vector(fs, vec) == []
    assert vec["inter16"] == 0.5


def test_feature_set_json_export():
    doc = json.loads(build_feature_set(Codec.HEVC).to_json())
    assert doc["codec"] == "hevc"
    assert doc["features"][0] == "e0"
    assert len(doc["features"]) == 19


@pytest.mark.parametrize("make", [list, tuple, np.array], ids=["list", "tuple", "array"])
def test_validate_vector_reports_non_finite_counts(make):
    fs = build_feature_set(Codec.HEVC)
    counts = [1.0] + [0.0] * 18
    counts[fs.index_of("pel")], counts[fs.index_of("val")] = math.inf, math.nan
    assert validate_vector(fs, FeatureVector(fs, make(counts))) == [
        "non-finite count: pel = inf",
        "non-finite count: val = nan",
    ]


@pytest.mark.parametrize("make", [list, tuple, np.array], ids=["list", "tuple", "array"])
def test_vector_counts_are_one_read_only_float64_array_whatever_the_input(make):
    fs = build_feature_set(Codec.H264)
    values = [1, 2.5, *range(12)]
    vector = FeatureVector(fs, make(values))
    assert vector.counts is vector.counts
    assert vector.counts.dtype == np.float64 and not vector.counts.flags.writeable
    assert vector.counts.tolist() == vector.tolist() == [float(v) for v in values]
    assert all(type(c) is float for c in vector.tolist()) and vector["frame"] == 2.5
    assert vector == FeatureVector(fs, np.array(values, dtype=float)) and len(vector) == 14


def test_vector_keeps_its_counts_when_the_input_changes_later():
    fs = build_feature_set(Codec.H263)
    for values in ([1.0] * 11, np.ones(11)):
        vector = FeatureVector(fs, values)
        values[3] = 7.0
        assert vector.tolist() == [1.0] * 11
