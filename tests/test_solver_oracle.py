"""Differential tests of the numpy solvers against the scipy calls they replaced.

``solver_oracle.scipy_solvers`` runs the fitting functions on scipy's
gelsd, pivoted QR and triangular solve.  On drawn systems with exactly or
nearly collinear columns, zero columns, a 1e8 dynamic range between columns,
and on HL1 and HL2 designs, both paths must report the same rank, drop the
same columns and clamp the same ones.  Linear coefficients must agree within
1e-12 relative in the solver's unit-maximum columns, HL1 parameters within
1e-12 relative each.  Where a fit reports a condition above 1e4 the fitted
values ``A @ x`` are compared at that tolerance instead, relative to the
magnitude ``|A| @ |x|`` of their terms.  The one difference allowed is on an
exact pivot tie: two columns equal once scaled, of which the paths may keep
different ones; the fitted values must then agree.
"""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import solver_oracle  # noqa: E402
from decegy import fitting  # noqa: E402
from decegy import HL1Params, HL2Params, LinearSystem, fit_hl1, fit_hl2, fit_linear_ls  # noqa: E402
from decegy.models import HighLevelColumns  # noqa: E402
from util import hl1_records, hl2_records  # noqa: E402

RTOL = 1e-12
CONDITION_LIMIT = 1e4
EPS = np.finfo(float).eps


def _both(fn, *args, **kwargs):
    """``fn`` on the numpy kernels, then on scipy's; warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mine = fn(*args, **kwargs)
        with solver_oracle.scipy_solvers():
            theirs = fn(*args, **kwargs)
    return mine, theirs


def _assert_close(mine, theirs):
    """Within RTOL of the largest entry of ``theirs``."""
    gap = np.max(np.abs(np.asarray(mine) - theirs))
    assert gap <= RTOL * np.max(np.abs(theirs)), (gap, mine, theirs)


def _assert_close_fitted(A, x, x_ref):
    """Each fitted value within RTOL of the magnitude of its terms, ``|A| @ |x_ref|``:
    computing ``A @ x_ref`` alone already rounds at that scale."""
    gap = np.abs(A @ (x - x_ref))
    assert np.all(gap <= RTOL * (np.abs(A) @ np.abs(x_ref))), (gap, x, x_ref)


def _tied(scaled: np.ndarray, i: int, j: int) -> bool:
    """Whether two unit-maximum columns are equal up to sign and rounding: an exact pivot tie."""
    a, b = scaled[:, i], scaled[:, j]
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= 4 * EPS


def _assert_same_fit(system: LinearSystem, mine, theirs):
    """Same rank, dropped and clamped columns; close coefficients, or fitted values."""
    (x, diag), (x_ref, diag_ref) = mine, theirs
    A, labels = system.matrix, system.labels
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0.0] = 1.0
    assert diag.rank == diag_ref.rank
    if diag.kkt is not None:
        clamped = [c["label"] for c in diag.kkt["clamped"]]
        assert clamped == [c["label"] for c in diag_ref.kkt["clamped"]]
    kept = [labels.index(c) for c in set(diag_ref.dropped) - set(diag.dropped)]
    other = [labels.index(c) for c in set(diag.dropped) - set(diag_ref.dropped)]
    if kept or other:
        # a legitimate difference: on an exact tie the two QRs may keep different
        # columns of a tied group, and then only the fitted values must agree
        assert len(kept) == len(other)
        assert all(any(_tied(A / scale, i, j) for j in other) for i in kept)
    if kept or (diag_ref.condition or 1.0) > CONDITION_LIMIT:
        _assert_close_fitted(A, x, x_ref)
    else:  # in the solver's own unit-maximum columns
        _assert_close(x * scale, x_ref * scale)


@st.composite
def systems(draw):
    """A random m x k system; some columns exactly or nearly collinear with another
    or zero, columns scaled over up to eight decades, and targets from a truth of
    mixed signs (so that the non-negative fit clamps) with or without noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 19))
    m = draw(st.integers(max(1, k - 3), 80))
    A = rng.uniform(0.0, 1.0, size=(m, k))
    A *= 10.0 ** rng.uniform(0.0, draw(st.sampled_from([0.0, 3.0, 8.0])), size=k)
    for _ in range(draw(st.integers(0, min(3, k - 1)))):
        i, j = rng.choice(k, size=2, replace=False)
        A[:, j] = draw(st.sampled_from([1.0, 2.0, -0.5, 3.0, 1e-8])) * A[:, i]
        A[:, j] *= 1.0 + draw(st.sampled_from([0.0, 1e-9, 1e-5])) * rng.normal(size=m)
    for j in range(k):
        if draw(st.booleans()) and rng.random() < 0.15:
            A[:, j] = 0.0
    truth = rng.uniform(-0.5, 2.0, size=k) / np.maximum(np.max(np.abs(A), axis=0), 1e-300)
    y = A @ truth
    y += draw(st.sampled_from([0.0, 0.01, 0.3])) * rng.normal(0.0, 1.0, size=m) * np.abs(y)
    return LinearSystem(A, y, tuple(f"c{j}" for j in range(k)))


@settings(max_examples=300)
@given(systems(), st.booleans())
def test_linear_fit_matches_the_scipy_path(system, nonneg):
    mine, theirs = _both(fit_linear_ls, system, nonneg=nonneg)
    _assert_same_fit(system, mine, theirs)


def _truths(rng):
    hl1 = HL1Params(
        base_joules=float(rng.uniform(0.0, 2.0)),
        per_pixel_joules=float(rng.uniform(0.0, 5e-8)),
        rate_coeff=float(rng.uniform(1e-9, 5e-7)),
        rate_power=float(rng.uniform(0.2, 1.8)),
    )
    hl2 = HL2Params(*rng.uniform(-1e-7, 1e-7, size=4) * [1e2, 1.0, 1e2, 1.0])
    return hl1, hl2


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.sampled_from([0.0, 0.02, 0.2]))
def test_hl1_fit_and_its_design_match_the_scipy_path(seed, n, noise):
    rng = np.random.default_rng(seed)
    truth, _ = _truths(rng)
    data = HighLevelColumns.of(hl1_records(rng, n, truth, noise_sigma=noise))
    assume(np.unique(data.file_size_bytes / data.pixels).size > 1)
    (params, diag), (params_ref, diag_ref) = _both(fit_hl1, data)
    assert diag.iterations == diag_ref.iterations
    assert diag.termination == diag_ref.termination
    if (diag_ref.condition or 1.0) > CONDITION_LIMIT:
        # compare the fitted energies, which the HL1 terms give as residual + energy
        _assert_close(_hl1_fitted(params, data), _hl1_fitted(params_ref, data))
    else:
        mine, theirs = np.array(astuple(params)), np.array(astuple(params_ref))
        assert np.all(np.abs(mine - theirs) <= RTOL * np.abs(theirs)), (mine, theirs)
    # the preliminary design at exponent 1, as a linear system of its own
    design = np.column_stack([np.ones(n), data.pixels, data.file_size_bytes])
    system = LinearSystem(design, data.energies, ("base", "pixels", "bytes"))
    _assert_same_fit(system, *_both(fit_linear_ls, system))


def _hl1_fitted(params, data):
    residuals, _ = fitting.hl1_residuals_jacobian(params, data)
    return residuals + data.energies


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.booleans())
def test_hl2_fit_matches_the_scipy_path(seed, n, all_intra):
    rng = np.random.default_rng(seed)
    _, truth = _truths(rng)
    data = HighLevelColumns.of(hl2_records(rng, n, truth))
    if all_intra:  # every record all-intra: the intra columns repeat the others
        data = data._replace(intra_rate=np.ones(n))
    (params, diag), (params_ref, diag_ref) = _both(fit_hl2, data)
    intra, sizes, pixels = data.intra_rate, data.file_size_bytes, data.pixels
    A = np.column_stack([intra * sizes, intra * pixels, sizes, pixels])
    system = LinearSystem(A, data.energies, tuple(params.__dict__))
    x, x_ref = np.array(params.as_tuple()), np.array(params_ref.as_tuple())
    _assert_same_fit(system, (x, diag), (x_ref, diag_ref))


def test_lstsq_keeps_singular_values_that_scipy_kept():
    """Singular values are cut below eps times the largest, scipy's gelsd default,
    not below eps * max(m, n) times it, numpy's default."""
    A = np.zeros((50, 2))
    A[0, 0], A[1, 1] = 1.0, 8.0 * EPS  # above eps, below 50 * eps
    b = A @ np.ones(2)
    assert fitting._lstsq(A, b) == pytest.approx(np.ones(2), rel=RTOL)
    assert solver_oracle.lstsq(A, b) == pytest.approx(np.ones(2), rel=RTOL)
