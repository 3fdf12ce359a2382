"""Predictors: feature-model sum, category breakdown, HL1/HL2 baselines."""

import json
import math

import mpmath
import numpy as np
import pytest

from decegy import (
    Category,
    DataValidationError,
    Codec,
    FeatureVector,
    HL1Params,
    HL2Params,
    HighLevelInfo,
    SpecificEnergies,
    build_feature_set,
    category_breakdown,
    params_from_json,
    params_to_json,
    predict_feature_model,
    predict_hl1,
    predict_hl2,
)

HEVC = build_feature_set(Codec.HEVC)


def _vec(mapping, codec=Codec.HEVC):
    return FeatureVector.from_dict(build_feature_set(codec), mapping)


def _energies(mapping, codec=Codec.HEVC):
    return SpecificEnergies.from_dict(build_feature_set(codec), mapping)


# ---------------------------------------------------------------------------
# feature model


def test_zero_energies_predict_zero():
    rng = np.random.default_rng(1)
    zero = SpecificEnergies(HEVC, np.zeros(19))
    for _ in range(5):
        vector = FeatureVector(HEVC, rng.uniform(0, 1e6, size=19))
        assert predict_feature_model(zero, vector) == 0.0


def test_unit_vector_returns_that_specific_energy():
    energies = _energies({"frame": 0.02})
    vector = _vec({"frame": 1.0})
    assert predict_feature_model(energies, vector) == 0.02


def test_hand_summed_example():
    energies = _energies({"e0": 0.1, "frame": 0.005, "pel": 2e-7})
    vector = _vec({"e0": 1.0, "frame": 40.0, "pel": 1e6})
    # 0.1 + 0.2 + 0.2
    assert predict_feature_model(energies, vector) == pytest.approx(0.5, rel=1e-14)


def test_specific_energies_need_one_finite_value_per_feature():
    with pytest.raises(ValueError) as caught:
        SpecificEnergies(HEVC, [1.0])
    assert type(caught.value) is ValueError and str(caught.value) == "expected 19 values, got 1"
    with pytest.raises(DataValidationError, match="^specific energies must be finite$"):
        SpecificEnergies(HEVC, [math.nan] * 19)


def test_feature_set_mismatch_rejected():
    energies = _energies({"e0": 0.1})
    vector = _vec({"e0": 1.0}, codec=Codec.VP9)
    with pytest.raises(ValueError, match="mismatch"):
        predict_feature_model(energies, vector)
    with pytest.raises(ValueError, match="mismatch"):
        category_breakdown(energies, vector)


def test_prediction_is_linear_in_the_vector():
    rng = np.random.default_rng(8)
    for _ in range(20):
        energies = SpecificEnergies(HEVC, rng.uniform(-1e-6, 1e-3, size=19))
        n1 = rng.uniform(0, 1e7, size=19)
        n2 = rng.uniform(0, 1e7, size=19)
        a, b = rng.uniform(-3, 3, size=2)
        combined = predict_feature_model(energies, FeatureVector(HEVC, a * n1 + b * n2))
        separate = a * predict_feature_model(
            energies, FeatureVector(HEVC, n1)
        ) + b * predict_feature_model(energies, FeatureVector(HEVC, n2))
        assert combined == pytest.approx(separate, rel=1e-12, abs=1e-15)


def test_summation_is_compensated_for_wide_dynamic_range():
    # pel terms near 1e8 against offset terms near 1e-1
    energies = _energies({"e0": 0.1, "pel": 1.0})
    vector = _vec({"e0": 1.0, "pel": 1e8})
    assert predict_feature_model(energies, vector) == math.fsum([0.1, 1e8])


# ---------------------------------------------------------------------------
# category breakdown


def test_breakdown_zero_energies():
    zero = SpecificEnergies(HEVC, np.zeros(19))
    vector = _vec({"e0": 1.0, "pel": 123.0})
    assert all(v == 0.0 for v in category_breakdown(zero, vector).values())


def test_breakdown_pel_only_lands_in_inter():
    energies = _energies({"pel": 2e-7})
    vector = _vec({"e0": 1.0, "pel": 1e6})
    breakdown = category_breakdown(energies, vector)
    assert breakdown[Category.INTER] == pytest.approx(0.2, rel=1e-14)
    assert all(v == 0.0 for cat, v in breakdown.items() if cat is not Category.INTER)


def test_breakdown_hand_partition():
    energies = _energies({"e0": 0.1, "frame": 0.005, "pel": 2e-7})
    vector = _vec({"e0": 1.0, "frame": 40.0, "pel": 1e6})
    breakdown = category_breakdown(energies, vector)
    assert breakdown[Category.OFFSET] == pytest.approx(0.3, rel=1e-14)
    assert breakdown[Category.INTER] == pytest.approx(0.2, rel=1e-14)
    for cat in (Category.INTRA, Category.TRANS, Category.COEFF, Category.SAO):
        assert breakdown[cat] == 0.0


def test_breakdown_sums_to_total_prediction():
    rng = np.random.default_rng(21)
    for codec in Codec:
        fs = build_feature_set(codec)
        for _ in range(10):
            energies = SpecificEnergies(fs, rng.uniform(-1e-5, 1e-2, size=len(fs)))
            vector = FeatureVector(fs, rng.uniform(0, 1e8, size=len(fs)))
            total = predict_feature_model(energies, vector)
            parts = sum(category_breakdown(energies, vector).values())
            assert parts == pytest.approx(total, rel=1e-12, abs=1e-18)


def test_breakdown_always_reports_all_six_categories():
    fs = build_feature_set(Codec.VP9)
    breakdown = category_breakdown(
        SpecificEnergies(fs, np.ones(19)), FeatureVector(fs, np.ones(19))
    )
    assert set(breakdown) == set(Category)
    assert breakdown[Category.SAO] == 0.0


def test_breakdown_of_an_estimate_past_the_float_range_is_refused():
    """Offset and inter parts of 1e308 each are finite but their sum is not: the breakdown
    raises the estimate's error, as a report row does."""
    energies = _energies({"e0": 1e308, "pel": 1e300})
    vector = _vec({"e0": 1.0, "pel": 1e8})
    for estimate in (predict_feature_model, category_breakdown):
        with pytest.raises(DataValidationError, match="^estimated energy overflows the float"):
            estimate(energies, vector)


# ---------------------------------------------------------------------------
# HL1


def test_hl1_degenerates_to_linear_when_rate_coeff_is_zero():
    params = HL1Params(base_joules=0.3, per_pixel_joules=2e-8, rate_coeff=0.0, rate_power=1.7)
    for size in (1e3, 1e5, 5e7):
        info = HighLevelInfo(99840.0, 40, size, 0.5)
        expected = 0.3 + 99840.0 * 40 * 2e-8
        assert predict_hl1(params, info) == pytest.approx(expected, rel=1e-15)


def test_hl1_linear_case():
    pixels = 99840.0 * 40
    params = HL1Params(1.0, 0.0, 1.0, 1.0)
    info = HighLevelInfo(99840.0, 40, pixels, 0.0)  # one byte per pixel
    assert predict_hl1(params, info) == pytest.approx(1.0 + pixels, rel=1e-15)


def test_hl1_against_high_precision_oracle():
    mpmath.mp.dps = 60
    S, N, B = 416 * 240, 40, 20.3e3
    C, alpha, beta, gamma = 0.2, 1e-8, 1e-7, 0.5
    params = HL1Params(C, alpha, beta, gamma)
    info = HighLevelInfo(float(S), N, B, 0.25)
    sn = mpmath.mpf(S) * N
    expected = mpmath.mpf(C) + sn * (
        mpmath.mpf(alpha) + mpmath.mpf(beta) * (mpmath.mpf(B) / sn) ** mpmath.mpf(gamma)
    )
    assert predict_hl1(params, info) == pytest.approx(float(expected), rel=1e-13)


def test_hl1_monotone_in_file_size():
    params = HL1Params(0.1, 1e-8, 3e-7, 0.8)
    values = [
        predict_hl1(params, HighLevelInfo(99840.0, 40, b, 0.0))
        for b in np.linspace(1e3, 1e7, 50)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_hl1_param_invariants():
    with pytest.raises(ValueError):
        HL1Params(0.0, 0.0, 1.0, 0.0)  # exponent must be positive
    with pytest.raises(ValueError):
        HL1Params(0.0, 0.0, -1.0, 1.0)  # power-law coefficient must be >= 0


# ---------------------------------------------------------------------------
# HL2


def test_hl2_all_zero_coefficients():
    params = HL2Params(0.0, 0.0, 0.0, 0.0)
    assert predict_hl2(params, HighLevelInfo(99840.0, 40, 2e4, 0.5)) == 0.0


def test_hl2_base_only_ignores_size_and_intra_rate():
    params = HL2Params(0.0, 0.0, 0.0, 3e-8)
    pixels = 99840.0 * 40
    for size, p_i in ((1e3, 0.0), (9e6, 1.0), (5e5, 0.3)):
        info = HighLevelInfo(99840.0, 40, size, p_i)
        assert predict_hl2(params, info) == pytest.approx(3e-8 * pixels, rel=1e-15)


def test_hl2_symbolic_simplification_case():
    pixels_per_frame, frames = 99840.0, 40
    pixels = pixels_per_frame * frames
    params = HL2Params(1.0, 1.0, 1.0, 1.0)
    info = HighLevelInfo(pixels_per_frame, frames, pixels, 1.0)  # B = S*N, p_I = 1
    assert predict_hl2(params, info) == pytest.approx(4.0 * pixels, rel=1e-15)


@pytest.mark.parametrize("vary", ["intra_rate", "file_size_bytes"])
def test_hl2_is_affine_in_each_input(vary):
    params = HL2Params(2e-9, 5e-8, 3e-9, 1e-8)
    base = dict(pixels_per_frame=99840.0, frames=40, file_size_bytes=4e5, intra_rate=0.4)
    if vary == "intra_rate":
        xs = (0.1, 0.5, 0.9)
    else:
        xs = (1e5, 5e5, 9e5)
    ys = []
    for x in xs:
        info = HighLevelInfo(**{**base, vary: x})
        ys.append(predict_hl2(params, info))
    # three-point collinearity: midpoint value is the mean of the endpoints
    assert ys[1] == pytest.approx((ys[0] + ys[2]) / 2.0, rel=1e-12)


def test_highlevel_info_invariants():
    with pytest.raises(ValueError):
        HighLevelInfo(0.0, 40, 1e4, 0.5)
    with pytest.raises(ValueError):
        HighLevelInfo(99840.0, 0, 1e4, 0.5)
    with pytest.raises(ValueError):
        HighLevelInfo(99840.0, 40, 0.0, 0.5)
    with pytest.raises(ValueError):
        HighLevelInfo(99840.0, 40, 1e4, 1.5)


# ---------------------------------------------------------------------------
# parameter files


def test_feature_params_roundtrip():
    energies = _energies({"e0": 0.06, "pel": 3.5e-9, "sao": 2.5e-6})
    text = params_to_json(energies, Codec.HEVC)
    kind, codec, loaded = params_from_json(text)
    assert kind == "feature" and codec is Codec.HEVC
    assert loaded == energies


def test_hl1_params_roundtrip():
    params = HL1Params(0.4, 2.1e-8, 1.3e-7, 0.7)
    kind, codec, loaded = params_from_json(params_to_json(params, Codec.VP9))
    assert kind == "hl1" and codec is Codec.VP9
    assert loaded == params


def test_hl2_params_roundtrip():
    params = HL2Params(2e-9, 5e-8, 3e-9, 1e-8)
    kind, codec, loaded = params_from_json(params_to_json(params, Codec.H263))
    assert kind == "hl2" and codec is Codec.H263
    assert loaded == params


@pytest.mark.parametrize(
    "params, field, value",
    [
        (HL1Params(0.4, 2.1e-8, 1.3e-7, 0.7), "rate_power", [1]),
        (HL1Params(0.4, 2.1e-8, 1.3e-7, 0.7), "base_joules", True),
        (HL2Params(2e-9, 5e-8, 3e-9, 1e-8), "intra_bytes_coeff", None),
        (SpecificEnergies(HEVC, np.ones(len(HEVC))), "specific_energies", [1.0]),
        (SpecificEnergies(HEVC, np.ones(len(HEVC))), "inter32", "1e-6"),
    ],
)
def test_malformed_params_file_names_the_field(params, field, value):
    doc = json.loads(params_to_json(params, Codec.HEVC))
    target = doc["specific_energies"] if field in HEVC else doc
    if value is None:
        del target[field]
    else:
        target[field] = value
    with pytest.raises(ValueError, match=f"'{field}'"):
        params_from_json(json.dumps(doc))


def test_feature_params_file_must_cover_all_features():
    doc = {
        "model": "feature",
        "codec": "hevc",
        "specific_energies": {"e0": 0.06},
    }
    with pytest.raises(ValueError, match="missing features"):
        params_from_json(json.dumps(doc))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_json_refuses_a_non_finite_number(value):
    params = _energies({"e0": 0.06})
    with pytest.raises(DataValidationError, match="non-finite number"):
        params_to_json(params, Codec.HEVC, extra={"diagnostics": {"condition": value}})
    assert json.loads(params_to_json(params, Codec.HEVC, extra={"diagnostics": {}}))
