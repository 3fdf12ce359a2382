"""Differential test of the per-category energy split.

``category_breakdown`` sums the columns that ``FeatureSet.category_columns``
lists for each category.  ``oracle_category_breakdown`` is the loop it
replaced, which groups every feature's product by ``FeatureId.category`` on
every call.  On random specific energies and counts of all four codecs, both
must give bit-equal sums in ``Category`` order, or the same exception type and
message.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decegy import (  # noqa: E402
    Category,
    Codec,
    FeatureVector,
    SpecificEnergies,
    build_feature_set,
    category_breakdown,
)
from decegy.errors import DataValidationError  # noqa: E402

_OVERFLOW = "estimated energy overflows the float range"


def oracle_category_breakdown(energies: SpecificEnergies, vector: FeatureVector) -> dict:
    """The per-feature grouping loop, with the library's overflow error: a sum past
    the float range, infinite products of both signs, or an infinite product."""
    terms: dict[Category, list[float]] = {cat: [] for cat in Category}
    products = energies.values * vector.counts
    for i, fid in enumerate(energies.feature_set):
        terms[fid.category].append(products[i])
    try:
        sums = {cat: math.fsum(parts) for cat, parts in terms.items()}
    except (ValueError, OverflowError):
        raise DataValidationError(_OVERFLOW) from None
    if not all(map(math.isfinite, sums.values())):
        raise DataValidationError(_OVERFLOW)
    return sums


def _outcome(fn, energies, vector):
    """The (category, float bits) pairs in result order, or the exception type and message."""
    try:
        return [(cat, value.hex()) for cat, value in fn(energies, vector).items()]
    except DataValidationError as exc:
        return type(exc), str(exc)


@st.composite
def splits(draw):
    """A codec with random specific energies and counts over wide magnitudes; some
    rows have zeroed features, and some have products of both signs near or past the
    top of the float range."""
    codec = draw(st.sampled_from(list(Codec)))
    n = len(build_feature_set(codec))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1e-5, 1e-2, n) * 10.0 ** rng.integers(-6, 3, n)
    counts = rng.uniform(0, 1e8, n) * 10.0 ** rng.integers(-8, 1, n)
    counts[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        counts *= 10.0 ** draw(st.integers(295, 300))
        values *= 10.0 ** draw(st.integers(0, 12)) * rng.choice([-1.0, 1.0], n)
    return codec, values, counts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products past the float range
@given(splits())
def test_category_breakdown_matches_the_per_feature_loop(split):
    codec, values, counts = split
    fs = build_feature_set(codec)
    energies, vector = SpecificEnergies(fs, values), FeatureVector(fs, counts)
    expected = _outcome(oracle_category_breakdown, energies, vector)
    assert _outcome(category_breakdown, energies, vector) == expected
    if isinstance(expected, list):
        assert [cat for cat, _ in expected] == list(Category)
