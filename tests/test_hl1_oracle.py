"""Differential tests of the HL1 fit against the earlier path in ``hl1_oracle``.

The fit now computes residuals without the Jacobian, bytes per pixel and its
logarithm once per fit, and tells whether all records share one bytes-per-pixel
value without ``np.unique``.  On drawn high-level columns (exact, noisy and
unrelated energies, tied and extreme bytes-per-pixel values, too few records)
both paths must give the same parameters, diagnostics and cost history to the
last bit, or fail with the same message.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import hl1_oracle  # noqa: E402
from decegy import fitting  # noqa: E402
from decegy import FitError, HL1Params, TrustRegionOptions  # noqa: E402
from decegy.models import HighLevelColumns  # noqa: E402

MODES = ("truth", "noisy", "unrelated", "ties", "extreme")


def _columns(seed: int, n: int, mode: str) -> HighLevelColumns:
    rng = np.random.default_rng(seed)
    pixels_per_frame = rng.choice([416 * 240, 832 * 480, 1280 * 720, 1920 * 1080], n).astype(float)
    frames = rng.integers(1, 65, n).astype(float)
    pixels = pixels_per_frame * frames
    bytes_per_pixel = rng.uniform(0.02, 3.0, n)
    if mode == "ties":  # two or three values, or one
        bytes_per_pixel = rng.choice(rng.uniform(0.02, 3.0, int(rng.integers(1, 4))), n)
    elif mode == "extreme":
        pixels_per_frame = 10.0 ** rng.uniform(0, 15, n)
        pixels = pixels_per_frame * frames
        bytes_per_pixel = 10.0 ** rng.uniform(-12, 12, n)
    sizes = bytes_per_pixel * pixels
    truth = HL1Params(
        float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 5e-8)),
        float(rng.uniform(1e-9, 5e-7)), float(rng.uniform(0.2, 1.8)),
    )
    power_law = truth.rate_coeff * (sizes / pixels) ** truth.rate_power
    energies = truth.base_joules + pixels * (truth.per_pixel_joules + power_law)
    if mode == "noisy":
        energies = energies * np.abs(1.0 + rng.normal(0.0, 0.2, n))
    elif mode in ("unrelated", "extreme"):
        energies = 10.0 ** rng.uniform(-3, 6, n)
    return HighLevelColumns(pixels_per_frame, frames, sizes, rng.uniform(0, 1, n), energies)


def _outcome(fit, data, options=None) -> str:
    """Parameters, diagnostics and cost history, or the failure, in a form that tells
    every bit (``repr`` of a float round-trips, and tells -0.0 and NaN apart)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            params, diagnostics = fit(data, options)
        except FitError as exc:
            return f"FitError: {exc}"
    return repr((params._values(), diagnostics.as_dict(), diagnostics.cost_history))


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from(MODES))
def test_hl1_fit_is_bit_equal_to_the_earlier_path(seed, n, mode):
    data = _columns(seed, n, mode)
    assert _outcome(fitting.fit_hl1, data) == _outcome(hl1_oracle.fit_hl1, data)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.sampled_from(MODES), st.integers(1, 12))
def test_hl1_fit_is_bit_equal_under_every_iteration_cap(seed, n, mode, max_iterations):
    data = _columns(seed, n, mode)
    options = TrustRegionOptions(max_iterations=max_iterations, initial_radius=0.1)
    assert _outcome(fitting.fit_hl1, data, options) == _outcome(hl1_oracle.fit_hl1, data, options)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.sampled_from(MODES),
       st.floats(-3.0, 3.0), st.floats(1e-3, 5.0))
def test_hl1_residuals_and_jacobian_are_bit_equal_to_the_earlier_terms(
    seed, n, mode, log_coeff, power
):
    data = _columns(seed, n, mode)
    params = HL1Params(0.5, 2e-8, 10.0 ** log_coeff * 1e-7, power)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mine = fitting.hl1_residuals_jacobian(params, data)
        theirs = hl1_oracle.hl1_residuals_jacobian(params, data)
    assert [a.tobytes() for a in mine] == [a.tobytes() for a in theirs]


_EDGE_VALUES = [0.0, -0.0, 1.0, 1.0 + 2**-52, 2.5, 1e-300, math.inf, -math.inf, math.nan,
                -math.nan]


@given(st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(), max_size=6))
def test_one_value_decides_as_np_unique_did(values):
    x = np.array(values, dtype=float)
    assert fitting._one_value(x) == hl1_oracle.one_value(x)


@pytest.mark.parametrize(
    "values, expected",
    [([], True), ([math.nan] * 3, True), ([math.nan, 1.0], False), ([1.0, math.nan, 1.0], False),
     ([math.inf] * 2, True), ([math.inf, -math.inf], False), ([0.0, -0.0], True),
     ([2.0, 2.0, 2.0], True), ([2.0, 2.0, 3.0], False)],
)
def test_one_value_on_ties_nan_and_infinity(values, expected):
    x = np.array(values, dtype=float)
    assert fitting._one_value(x) is expected
    assert hl1_oracle.one_value(x) == expected
