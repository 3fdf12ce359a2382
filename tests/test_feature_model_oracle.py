"""Differential test of the per-row feature-model estimate and its category sums.

``predict_feature_model`` and ``category_sums`` multiply and add Python floats, so
that ``decegy predict`` and ``decegy report`` need no numpy.  The oracles below are
the numpy path they replaced: ``math.fsum(values * counts)`` over float64 arrays,
and the same products split by ``FeatureSet.category_columns``, each with the
library's overflow error for a sum that is not finite.  Python's float product is
IEEE's, as numpy's is, so on random specific energies and counts of all four
codecs, with products near and past the top of the float range, both must give
bit-equal floats or the same error, row by row through a dataset too.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decegy import (  # noqa: E402
    BitstreamRecord,
    Codec,
    Dataset,
    FeatureVector,
    SpecificEnergies,
    breakdown_report,
    build_feature_set,
    predict_feature_model,
)
from decegy.errors import DataValidationError  # noqa: E402
from decegy.evaluation import MODELS  # noqa: E402
from decegy.models import category_sums  # noqa: E402

_OVERFLOW = "estimated energy overflows the float range"


def _finite_fsum(terms) -> float:
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):
        raise DataValidationError(_OVERFLOW) from None
    if not math.isfinite(total):
        raise DataValidationError(_OVERFLOW)
    return total


def oracle_estimate(values: np.ndarray, counts: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return _finite_fsum(values * counts)


def oracle_category_sums(fs, values: np.ndarray, counts: np.ndarray) -> tuple[float, ...]:
    with np.errstate(over="ignore"):
        products = (values * counts).tolist()
    return tuple(
        _finite_fsum([products[i] for i in columns]) for columns in fs.category_columns.values()
    )


def _outcome(fn, *args):
    """The result as float bits, or the exception type and message."""
    try:
        result = fn(*args)
    except DataValidationError as exc:
        return type(exc), str(exc)
    return tuple(value.hex() for value in result) if isinstance(result, tuple) else result.hex()


@st.composite
def rows(draw, count=1):
    """A codec, specific energies of both signs over wide magnitudes and ``count`` rows of
    counts (e0 = 1); some draws scale counts and energies to products near or past the top
    of the float range."""
    codec = draw(st.sampled_from(list(Codec)))
    fs = build_feature_set(codec)
    n = len(fs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1e-5, 1e-2, n) * 10.0 ** rng.integers(-6, 3, n)
    counts = rng.uniform(0, 1e8, (count, n)) * 10.0 ** rng.integers(-8, 1, (count, n))
    counts[rng.random((count, n)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        counts *= 10.0 ** draw(st.integers(290, 300))
        values *= 10.0 ** draw(st.integers(0, 12)) * rng.choice([-1.0, 1.0], n)
    counts[:, fs.index_of("e0")] = 1.0
    return fs, values, counts


@settings(max_examples=300)
@given(rows())
def test_estimate_and_category_sums_match_the_numpy_path(drawn):
    fs, values, (counts,) = drawn
    energies, vector = SpecificEnergies(fs, values.tolist()), FeatureVector(fs, counts.tolist())
    assert _outcome(predict_feature_model, energies, vector) == _outcome(
        oracle_estimate, values, counts
    )
    assert _outcome(category_sums, energies, vector) == _outcome(
        oracle_category_sums, fs, values, counts
    )


@settings(max_examples=60)
@given(rows(count=6))
def test_dataset_rows_match_the_numpy_path_row_by_row(drawn):
    fs, values, counts = drawn
    dataset = Dataset(
        BitstreamRecord(f"s{i}", fs.codec, FeatureVector(fs, row.tolist()), energy_joules=1.0)
        for i, row in enumerate(counts)
    )
    assert dataset.counts.tobytes() == counts.tobytes()
    energies = SpecificEnergies(fs, values)
    for i in range(len(counts)):
        expected = _outcome(oracle_estimate, values, counts[i])
        assert _outcome(lambda: MODELS["feature"].predict(energies, dataset, [i])[0]) == expected
        try:
            (row,) = breakdown_report(dataset, energies, [i])
        except DataValidationError as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert row.estimated_joules.hex() == expected
            parts = tuple(value.hex() for value in row.category_joules)
            assert parts == _outcome(oracle_category_sums, fs, values, counts[i])
