"""Folds, the relative error metric, cross-validation, breakdown reports."""

import json

import numpy as np
import pytest

from decegy import (
    Category,
    Codec,
    FeatureVector,
    SpecificEnergies,
    SynthSpec,
    breakdown_csv,
    breakdown_report,
    breakdown_svg,
    build_feature_set,
    cross_validate,
    default_specific_energies,
    make_folds,
    mean_relative_error,
    synth_dataset,
)
from decegy.dataset import BitstreamRecord
from decegy.errors import DataValidationError


# ---------------------------------------------------------------------------
# folds


def test_fold_sizes_are_near_equal_for_uneven_split():
    partition = make_folds(23, 10, seed=1)
    assert sorted(partition.fold_sizes()) == [2] * 7 + [3] * 3


def test_fold_sizes_exact_for_even_split():
    for seed in (0, 1, 99):
        partition = make_folds(20, 10, seed=seed)
        assert partition.fold_sizes() == [2] * 10


def test_folds_are_deterministic_per_seed():
    a = make_folds(37, 10, seed=42)
    b = make_folds(37, 10, seed=42)
    assert np.array_equal(a.assignment, b.assignment)
    c = make_folds(37, 10, seed=43)
    assert not np.array_equal(a.assignment, c.assignment)
    for seed in (np.int64(42), np.uint32(42)):  # any integer type deals the folds of its value
        same = make_folds(37, 10, seed=seed)
        assert np.array_equal(same.assignment, a.assignment) and same.k == a.k
        assert type(same.seed) is int and same.seed == a.seed


def test_fold_argument_validation():
    with pytest.raises(ValueError):
        make_folds(5, 10, seed=0)
    with pytest.raises(ValueError):
        make_folds(5, 1, seed=0)
    with pytest.raises(DataValidationError, match=r"^seed must be an integer, got 2\.0$"):
        make_folds(5, 2, seed=2.0)


def test_fold_partition_properties_random():
    rng = np.random.default_rng(123)
    for _ in range(300):
        m = int(rng.integers(2, 200))
        k = int(rng.integers(2, m + 1))
        partition = make_folds(m, k, seed=int(rng.integers(0, 2**31)))
        covered = np.concatenate([partition.fold_indices(i) for i in range(k)])
        assert sorted(covered.tolist()) == list(range(m))  # disjoint + covering
        sizes = partition.fold_sizes()
        assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# mean relative error


def test_perfect_estimator_has_zero_error():
    energies = np.array([0.3, 1.7, 42.0])
    assert mean_relative_error(energies, energies) == 0.0


def test_ten_percent_overestimate():
    assert mean_relative_error([110.0], [100.0]) == pytest.approx(0.10, rel=1e-14)


def test_hand_averaged_two_stream_error():
    assert mean_relative_error([90.0, 120.0], [100.0, 100.0]) == pytest.approx(
        0.15, rel=1e-14
    )


def test_error_metric_input_validation():
    with pytest.raises(ValueError):
        mean_relative_error([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mean_relative_error([], [])
    with pytest.raises(ValueError):
        mean_relative_error([1.0], [0.0])
    with pytest.raises(ValueError):
        mean_relative_error([1.0], [-2.0])


def test_error_metric_is_scale_invariant():
    rng = np.random.default_rng(3)
    est = rng.uniform(0.5, 2.0, size=40)
    meas = rng.uniform(0.5, 2.0, size=40)
    base = mean_relative_error(est, meas)
    for factor in (1e-6, 3.0, 1e9):
        scaled = mean_relative_error(factor * est, factor * meas)
        assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# cross-validation


def test_noise_free_feature_cv_is_essentially_exact():
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 200, seed=7))
    report = cross_validate(dataset, "feature", k=10, seed=42)
    assert report.overall_error < 1e-8
    assert report.failed_folds == []


def test_cv_is_deterministic_per_seed():
    dataset = synth_dataset(SynthSpec(Codec.VP9, 60, noise_sigma=0.05, seed=1))
    a = cross_validate(dataset, "feature", k=5, seed=11)
    b = cross_validate(dataset, "feature", k=5, seed=11)
    assert a.to_json() == b.to_json()
    for seed in (np.int64(11), np.uint32(11)):
        assert cross_validate(dataset, "feature", k=5, seed=seed).to_json() == a.to_json()


def test_cv_validates_every_stream_exactly_once():
    dataset = synth_dataset(SynthSpec(Codec.H264, 53, noise_sigma=0.02, seed=5))
    report = cross_validate(dataset, "feature", k=10, seed=2)
    assert set(report.per_stream) == {rec.stream_id for rec in dataset}
    assert sum(report.fold_sizes) == len(dataset)


def test_cv_overall_error_pools_per_stream_errors():
    dataset = synth_dataset(SynthSpec(Codec.H263, 40, noise_sigma=0.1, seed=9))
    report = cross_validate(dataset, "feature", k=8, seed=3)
    pooled = float(np.mean(list(report.per_stream.values())))
    assert report.overall_error == pytest.approx(pooled, rel=1e-15)


def test_cv_supports_all_three_models():
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 80, noise_sigma=0.05, seed=4))
    eps = {}
    for kind in ("feature", "hl1", "hl2"):
        report = cross_validate(dataset, kind, k=5, seed=6)
        assert report.failed_folds == []
        eps[kind] = report.overall_error
    assert eps["feature"] < eps["hl1"]
    assert eps["feature"] < eps["hl2"]


def test_cv_reports_failed_folds_instead_of_aborting():
    # HL1 cannot fit records sharing one bytes-per-pixel value: every fold fails
    fs = build_feature_set(Codec.HEVC)
    records = []
    for i in range(20):
        counts = np.zeros(19)
        counts[fs.index_of("e0")] = 1.0
        counts[fs.index_of("frame")] = 10.0
        records.append(
            BitstreamRecord(
                stream_id=f"s{i}",
                codec=Codec.HEVC,
                features=FeatureVector(fs, counts),
                width=416,
                height=240,
                frames=10,
                file_size_bytes=99840 * 10,  # one byte per pixel everywhere
                intra_frames=5,
                energy_joules=1.0 + 0.01 * i,
            )
        )
    from decegy.dataset import Dataset

    dataset = Dataset(tuple(records))
    with pytest.warns(UserWarning, match="fold 0 failed"):
        report = cross_validate(dataset, "hl1", k=4, seed=1)
    assert report.failed_folds == [0, 1, 2, 3]
    assert np.isnan(report.overall_error)
    assert report.fold_errors == [None] * 4
    with pytest.raises(DataValidationError, match="non-finite number cannot be written as JSON"):
        report.to_json()


def test_cv_passes_trust_region_options_through():
    from decegy import TrustRegionOptions

    dataset = synth_dataset(SynthSpec(Codec.HEVC, 40, noise_sigma=0.05, seed=10))
    report = cross_validate(
        dataset,
        "hl1",
        k=4,
        seed=2,
        fit_options={"trust_region": TrustRegionOptions(max_iterations=60)},
    )
    assert report.failed_folds == []
    assert np.isfinite(report.overall_error)


def test_cv_rejects_unknown_model_and_small_datasets():
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 8, seed=2))
    with pytest.raises(ValueError, match="model"):
        cross_validate(dataset, "boosted-trees", k=4)
    with pytest.raises(ValueError, match="fewer"):
        cross_validate(dataset, "feature", k=10)


def test_cv_report_json_is_complete():
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 30, noise_sigma=0.05, seed=3))
    report = cross_validate(dataset, "feature", k=3, seed=8)
    doc = json.loads(report.to_json())
    assert doc["model"] == "feature"
    assert doc["k"] == 3 and doc["seed"] == 8
    assert len(doc["fold_params"]) == 3
    assert "specific_energies" in doc["fold_params"][0]


# ---------------------------------------------------------------------------
# breakdown reports


def _toy_report(codec=Codec.HEVC, energies=None, n=1):
    dataset = synth_dataset(SynthSpec(codec, max(n, 1), seed=5))
    e = energies if energies is not None else default_specific_energies(codec)
    return breakdown_report(dataset.records[:n], e), dataset


def test_breakdown_zero_energies_keeps_measured_column():
    fs = build_feature_set(Codec.HEVC)
    rows, dataset = _toy_report(energies=SpecificEnergies(fs, np.zeros(19)))
    assert rows[0].measured_joules == dataset.records[0].energy_joules
    assert rows[0].estimated_joules == 0.0
    assert all(v == 0.0 for v in rows[0].by_category.values())


def test_breakdown_single_category_stack():
    fs = build_feature_set(Codec.HEVC)
    energies = SpecificEnergies.from_dict(fs, {"pel": 2e-8})
    rows, _ = _toy_report(energies=energies)
    row = rows[0]
    assert row.by_category[Category.INTER] == pytest.approx(row.estimated_joules, rel=1e-12)
    assert all(
        v == 0.0 for cat, v in row.by_category.items() if cat is not Category.INTER
    )


def test_breakdown_csv_layout_and_row_sums():
    rows, _ = _toy_report(n=6)
    text = breakdown_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "stream_id,E_dec,E_hat,OFFSET,INTRA,INTER,TRANS,COEFF,SAO"
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        estimated = float(cells[2])
        categories = [float(c) for c in cells[3:]]
        assert sum(categories) == pytest.approx(estimated, rel=1e-9)


def test_breakdown_sao_column_present_and_zero_for_vp9():
    rows, _ = _toy_report(codec=Codec.VP9)
    text = breakdown_csv(rows)
    assert "SAO" in text.splitlines()[0]
    assert rows[0].by_category[Category.SAO] == 0.0


def test_breakdown_svg_renders_two_bars_per_stream():
    rows = []
    for codec in Codec:
        r, _ = _toy_report(codec=codec)
        rows.extend(r)
    svg = breakdown_svg(rows)
    assert svg.count('class="bar-measured"') == 4
    # every stream shows a stacked estimate with at least one segment
    assert svg.count('class="seg-') >= 4
    assert svg.startswith("<svg")
    assert "Energy [J]" in svg


def test_breakdown_requires_measured_energy():
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 1, seed=5))
    rec = dataset.records[0]
    bare = BitstreamRecord(
        stream_id="x",
        codec=rec.codec,
        features=rec.features,
        energy_joules=None,
    )
    with pytest.raises(DataValidationError, match="measured energy"):
        breakdown_report([bare], default_specific_energies(Codec.HEVC))
