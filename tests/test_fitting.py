"""Solvers: pivoted-QR least squares, NNLS active set, dogleg trust region."""

import itertools
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from decegy import (
    Codec,
    CollinearityWarning,
    FitError,
    HL1Params,
    HL2Params,
    LinearSystem,
    SynthSpec,
    TrustRegionOptions,
    default_specific_energies,
    feature_linear_system,
    fit_hl1,
    fit_hl2,
    fit_linear_ls,
    fit_trust_region,
    hl1_residuals_jacobian,
    synth_dataset,
)
from decegy.models import HighLevelColumns
from util import hl1_records, hl2_records

TRUE_HL1 = HL1Params(base_joules=0.4, per_pixel_joules=2.1e-8, rate_coeff=1.3e-7, rate_power=0.7)


# ---------------------------------------------------------------------------
# linear least squares


def test_exact_single_column_fit():
    system = LinearSystem(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]), ("n",))
    coeffs, _ = fit_linear_ls(system)
    assert coeffs[0] == pytest.approx(2.0, rel=1e-14)


def test_constant_column_fits_the_mean():
    system = LinearSystem(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), ("c",))
    coeffs, _ = fit_linear_ls(system)
    assert coeffs[0] == pytest.approx(2.0, rel=1e-14)


def test_recovers_generating_energies_from_noiseless_synthetic_data():
    true = default_specific_energies(Codec.HEVC)
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 200, seed=12))
    coeffs, _ = fit_linear_ls(feature_linear_system(dataset.records))
    assert np.max(np.abs(coeffs - true.values) / true.values) < 1e-9


def test_empty_and_nonfinite_systems_rejected():
    with pytest.raises(FitError):
        LinearSystem(np.empty((0, 2)), np.empty(0), ("a", "b"))
    with pytest.raises(FitError):
        LinearSystem(np.array([[1.0, np.nan]]), np.array([1.0]), ("a", "b"))


def test_residual_is_orthogonal_to_the_column_space():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.uniform(0, 1e6, size=(60, 7)) * rng.uniform(1e-6, 1.0, size=7)
        x_true = rng.uniform(-2, 2, size=7)
        y = A @ x_true + rng.normal(0, 0.05 * np.abs(A @ x_true))
        coeffs, _ = fit_linear_ls(LinearSystem(A, y, tuple("abcdefg")))
        r = A @ coeffs - y
        bound = 1e-8 * np.linalg.norm(A) * np.linalg.norm(r)
        assert np.linalg.norm(A.T @ r) <= max(bound, 1e-12)


def test_duplicate_column_is_zeroed_with_a_warning():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, size=30)
    A = np.column_stack([a, a, rng.uniform(0, 1, size=30)])
    y = 2.0 * a + 0.5 * A[:, 2]
    with pytest.warns(CollinearityWarning):
        coeffs, diagnostics = fit_linear_ls(LinearSystem(A, y, ("a1", "a2", "b")))
    assert diagnostics.rank == 2
    assert len(diagnostics.dropped) == 1
    zeroed = {"a1": 0, "a2": 1}[diagnostics.dropped[0]]
    assert coeffs[zeroed] == 0.0
    # the fit itself is still optimal
    assert np.linalg.norm(A @ coeffs - y) < 1e-10


def test_all_zero_column_is_dropped():
    A = np.column_stack([np.ones(5), np.zeros(5)])
    with pytest.warns(CollinearityWarning):
        coeffs, _ = fit_linear_ls(LinearSystem(A, np.full(5, 3.0), ("c", "z")))
    assert coeffs[1] == 0.0
    assert coeffs[0] == pytest.approx(3.0, rel=1e-14)


def _nnls_oracle(A, y):
    """Enumerate all support sets; return the feasible KKT point."""
    m, n = A.shape
    best = None
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            x = np.zeros(n)
            if support:
                sub = A[:, list(support)]
                sol, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if np.any(sol <= 0):
                    continue
                x[list(support)] = sol
            w = A.T @ (y - A @ x)
            if np.all(w[x == 0.0] <= 1e-9 * max(1.0, np.abs(w).max())):
                res = np.linalg.norm(A @ x - y)
                if best is None or res < best[0] - 1e-12:
                    best = (res, x)
    assert best is not None
    return best[1]


def test_nonneg_fit_clamps_negative_coefficients_at_kkt_point():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.uniform(0, 1, size=(25, 3))
        # targets that push one coefficient negative in the free fit
        y = A @ np.array([2.0, -0.8, 0.5]) + rng.normal(0, 0.01, size=25)
        free, _ = fit_linear_ls(LinearSystem(A, y, ("a", "b", "c")))
        if not np.any(free < 0):
            continue
        coeffs, diagnostics = fit_linear_ls(LinearSystem(A, y, ("a", "b", "c")), nonneg=True)
        assert np.all(coeffs >= 0.0)
        oracle = _nnls_oracle(A, y)
        assert coeffs == pytest.approx(oracle, rel=1e-8, abs=1e-10)
        clamped = [c["label"] for c in diagnostics.kkt["clamped"]]
        assert clamped  # something was actually clamped
        for entry in diagnostics.kkt["clamped"]:
            assert entry["multiplier"] <= 1e-8


def test_nonneg_fit_matches_scipy_reference_residuals():
    import scipy.optimize

    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(5, 60))
        n = int(rng.integers(1, min(m, 12) + 1))
        A = rng.uniform(0, 1, size=(m, n)) * (10.0 ** rng.uniform(-3, 3, size=n))
        y = A @ rng.uniform(-1, 2, size=n) + rng.normal(0, 0.01, size=m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mine, _ = fit_linear_ls(
                LinearSystem(A, y, tuple(f"c{i}" for i in range(n))), nonneg=True
            )
        reference, _ = scipy.optimize.nnls(A, y)
        assert np.all(mine >= 0)
        r_mine = np.linalg.norm(A @ mine - y)
        r_ref = np.linalg.norm(A @ reference - y)
        assert r_mine <= r_ref * (1 + 1e-9) + 1e-12


def test_nonneg_fit_matches_free_fit_when_truth_is_nonnegative():
    dataset = synth_dataset(SynthSpec(Codec.H263, 100, seed=3))
    system = feature_linear_system(dataset.records)
    free, _ = fit_linear_ls(system)
    constrained, _ = fit_linear_ls(system, nonneg=True)
    assert constrained == pytest.approx(free, rel=1e-8)


def test_fits_are_deterministic():
    dataset = synth_dataset(SynthSpec(Codec.VP9, 80, noise_sigma=0.05, seed=2))
    system = feature_linear_system(dataset.records)
    a, _ = fit_linear_ls(system)
    b, _ = fit_linear_ls(system)
    assert np.array_equal(a, b)


def _values(params) -> bytes:
    return np.array(params if isinstance(params, np.ndarray) else astuple(params)).tobytes()


@pytest.mark.parametrize("kind", ["feature", "hl1", "hl2"])
def test_fits_of_strided_views_equal_fits_of_contiguous_copies(kind):
    dataset = synth_dataset(SynthSpec(Codec.HEVC, 10, noise_sigma=0.05, seed=0))
    if kind == "feature":
        counts = np.repeat(dataset.counts, 2, axis=1)[:, ::2]
        columns = (counts, np.repeat(dataset.energies[:, None], 5, axis=1)[:, 0])

        def fit(*columns):
            return fit_linear_ls(LinearSystem(*columns, dataset.feature_set.names))

    else:
        fit_kind = fit_hl1 if kind == "hl1" else fit_hl2
        # (HighLevelInfo, energy) pairs become views into one array of rows of five
        columns = HighLevelColumns.of([(rec.highlevel, rec.energy_joules) for rec in dataset])

        def fit(*columns):
            return fit_kind(HighLevelColumns(*columns))

    assert columns[-1].strides == (40,)
    params, diagnostics = fit(*columns)
    params_copy, diagnostics_copy = fit(*(np.ascontiguousarray(c) for c in columns))
    assert _values(params) == _values(params_copy)
    assert diagnostics.as_dict() == diagnostics_copy.as_dict()


# ---------------------------------------------------------------------------
# trust region


def test_scalar_residual_converges():
    x, diagnostics = fit_trust_region(
        lambda v: np.array([v[0] - 3.0]), lambda v: np.array([[1.0]]), [0.0]
    )
    assert x[0] == pytest.approx(3.0, abs=1e-9)
    assert diagnostics.termination in ("gradient_tolerance", "step_tolerance")


def test_rosenbrock_residuals_converge_to_the_minimum():
    def residual(v):
        return np.array([10.0 * (v[1] - v[0] ** 2), 1.0 - v[0]])

    def jacobian(v):
        return np.array([[-20.0 * v[0], 10.0], [-1.0, 0.0]])

    x, diagnostics = fit_trust_region(residual, jacobian, [-1.2, 1.0])
    assert np.max(np.abs(x - 1.0)) < 1e-6
    assert diagnostics.iterations <= 200


def test_objective_never_increases_over_accepted_steps():
    def residual(v):
        return np.array([10.0 * (v[1] - v[0] ** 2), 1.0 - v[0], 0.3 * v[0] * v[1]])

    def jacobian(v):
        return np.array(
            [[-20.0 * v[0], 10.0], [-1.0, 0.0], [0.3 * v[1], 0.3 * v[0]]]
        )

    _, diagnostics = fit_trust_region(residual, jacobian, [2.0, -3.0])
    history = diagnostics.cost_history
    assert len(history) > 1
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_nonfinite_start_rejected():
    with pytest.raises(FitError):
        fit_trust_region(
            lambda v: np.array([np.nan]), lambda v: np.array([[1.0]]), [0.0]
        )


def test_trust_region_options_validated():
    with pytest.raises(ValueError):
        TrustRegionOptions(max_iterations=0)
    with pytest.raises(ValueError):
        TrustRegionOptions(gradient_tolerance=-1.0)


def test_trust_region_is_deterministic():
    def residual(v):
        return np.array([10.0 * (v[1] - v[0] ** 2), 1.0 - v[0]])

    def jacobian(v):
        return np.array([[-20.0 * v[0], 10.0], [-1.0, 0.0]])

    x1, d1 = fit_trust_region(residual, jacobian, [-1.2, 1.0])
    x2, d2 = fit_trust_region(residual, jacobian, [-1.2, 1.0])
    assert np.array_equal(x1, x2)
    assert d1.iterations == d2.iterations


# ---------------------------------------------------------------------------
# HL1 residuals/Jacobian


def test_jacobian_power_column_vanishes_when_coeff_is_zero():
    rng = np.random.default_rng(2)
    records = hl1_records(rng, 10, TRUE_HL1)
    params = HL1Params(0.1, 1e-8, 0.0, 1.3)
    _, jacobian = hl1_residuals_jacobian(params, records)
    assert np.all(jacobian[:, 3] == 0.0)


def test_jacobian_rate_coeff_column_is_file_size_at_unit_power():
    rng = np.random.default_rng(3)
    [(info, energy)] = hl1_records(rng, 1, TRUE_HL1)
    params = HL1Params(0.1, 1e-8, 2e-7, 1.0)
    _, jacobian = hl1_residuals_jacobian(params, [(info, energy)])
    # pixels * (B/pixels)**1 == B
    assert jacobian[0, 2] == pytest.approx(info.file_size_bytes, rel=1e-12)


def _fd_jacobian(params_vec, records, rel_step=1e-6):
    def residuals(vec):
        r, _ = hl1_residuals_jacobian(HL1Params(*vec), records)
        return r

    J = np.empty((len(records), 4))
    for j in range(4):
        h = rel_step * max(abs(params_vec[j]), 1e-9)
        plus = np.array(params_vec, dtype=float)
        minus = np.array(params_vec, dtype=float)
        plus[j] += h
        minus[j] -= h
        J[:, j] = (residuals(plus) - residuals(minus)) / (2.0 * h)
    return J


def _jacobian_max_rel_error(analytic, fd):
    scale = np.maximum(np.max(np.abs(analytic), axis=0), 1e-300)
    return float(np.max(np.abs(analytic - fd) / scale))


def test_jacobian_matches_central_finite_differences():
    rng = np.random.default_rng(4)
    params_vec = [
        float(rng.uniform(0.01, 2.0)),
        float(10.0 ** rng.uniform(-9, -7)),
        float(10.0 ** rng.uniform(-8, -6)),
        float(rng.uniform(0.3, 2.0)),
    ]
    records = hl1_records(rng, 20, TRUE_HL1)
    _, analytic = hl1_residuals_jacobian(HL1Params(*params_vec), records)
    fd = _fd_jacobian(params_vec, records)
    assert _jacobian_max_rel_error(analytic, fd) < 1e-4


# ---------------------------------------------------------------------------
# HL1 fit


def test_hl1_fit_recovers_noise_free_truth():
    rng = np.random.default_rng(6)
    records = hl1_records(rng, 80, TRUE_HL1)
    fitted, _ = fit_hl1(records)
    assert fitted.base_joules == pytest.approx(TRUE_HL1.base_joules, rel=1e-4)
    assert fitted.per_pixel_joules == pytest.approx(TRUE_HL1.per_pixel_joules, rel=1e-4)
    assert fitted.rate_coeff == pytest.approx(TRUE_HL1.rate_coeff, rel=1e-3)
    assert abs(fitted.rate_power - TRUE_HL1.rate_power) < 1e-3


def test_hl1_fit_degenerate_without_power_term():
    rng = np.random.default_rng(7)
    truth = HL1Params(0.0, 2e-8, 0.0, 1.0)
    records = hl1_records(rng, 50, truth)
    fitted, diagnostics = fit_hl1(records)
    assert fitted.per_pixel_joules == pytest.approx(2e-8, rel=1e-6)
    # the power-law term fits to (numerically) nothing and is flagged
    assert any("unidentifiable" in note for note in diagnostics.notes)
    pixels = np.array([info.pixels_per_frame * info.frames for info, _ in records])
    bpp = np.array([info.file_size_bytes for info, _ in records]) / pixels
    power_term = fitted.rate_coeff * pixels * bpp ** fitted.rate_power
    assert np.max(power_term) < 1e-9 * 2e-8 * np.max(pixels)


def test_hl1_fit_with_multiplicative_noise_tracks_the_noise_level():
    rng = np.random.default_rng(8)
    records = hl1_records(rng, 400, TRUE_HL1, noise_sigma=0.05)
    fitted, _ = fit_hl1(records)
    residuals, _ = hl1_residuals_jacobian(fitted, records)
    energies = np.array([e for _, e in records])
    training_error = float(np.mean(np.abs(residuals) / energies))
    assert training_error <= 0.05 + 0.01


def test_hl1_fit_underdetermined_cases():
    rng = np.random.default_rng(9)
    records = hl1_records(rng, 3, TRUE_HL1)
    with pytest.raises(FitError, match="under-determined"):
        fit_hl1(records)
    # many records but a single bytes-per-pixel value
    info_template = hl1_records(rng, 1, TRUE_HL1)[0][0]
    cloned = [(info_template, 1.0 + i * 0.0) for i in range(10)]
    with pytest.raises(FitError, match="under-determined"):
        fit_hl1(cloned)


# ---------------------------------------------------------------------------
# HL2 fit


def test_hl2_fit_recovers_base_only_truth():
    rng = np.random.default_rng(10)
    truth = HL2Params(0.0, 0.0, 0.0, 4e-8)
    records = hl2_records(rng, 40, truth)
    fitted, _ = fit_hl2(records)
    assert fitted.base_coeff == pytest.approx(4e-8, rel=1e-9)
    assert abs(fitted.intra_bytes_coeff) < 1e-16
    assert abs(fitted.intra_coeff) < 1e-16
    assert abs(fitted.bytes_coeff) < 1e-16


def test_hl2_fit_exactly_recovers_random_truth():
    rng = np.random.default_rng(11)
    for _ in range(5):
        truth = HL2Params(
            float(rng.uniform(1e-9, 1e-7)),
            float(rng.uniform(1e-9, 1e-7)),
            float(rng.uniform(1e-9, 1e-7)),
            float(rng.uniform(1e-9, 1e-7)),
        )
        records = hl2_records(rng, 50, truth)
        fitted, _ = fit_hl2(records)
        assert np.asarray(fitted.as_tuple()) == pytest.approx(
            np.asarray(truth.as_tuple()), rel=1e-9
        )


def test_hl2_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(12)
    truth = HL2Params(3e-9, 6e-8, 2e-9, 1.2e-8)
    records = hl2_records(rng, 60, truth)
    # add noise so the solution is not trivially the truth
    noisy = [(info, e * (1.0 + rng.normal(0, 0.05))) for info, e in records]
    fitted, _ = fit_hl2(noisy)
    pixels = np.array([i.pixels_per_frame * i.frames for i, _ in noisy])
    sizes = np.array([i.file_size_bytes for i, _ in noisy])
    intra = np.array([i.intra_rate for i, _ in noisy])
    A = np.column_stack([intra * sizes, intra * pixels, sizes, pixels])
    y = np.array([e for _, e in noisy])
    oracle = np.linalg.solve(A.T @ A, A.T @ y)
    assert np.asarray(fitted.as_tuple()) == pytest.approx(oracle, rel=1e-8)


def test_hl2_fit_all_intra_triggers_collinearity_warning():
    rng = np.random.default_rng(13)
    truth = HL2Params(3e-9, 6e-8, 2e-9, 1.2e-8)
    records = [
        (
            type(info)(info.pixels_per_frame, info.frames, info.file_size_bytes, 1.0),
            energy,
        )
        for info, energy in hl2_records(rng, 30, truth)
    ]
    records = [(info, 1.0 + i * 0.01) for i, (info, _) in enumerate(records)]
    with pytest.warns(CollinearityWarning):
        fitted, diagnostics = fit_hl2(records)
    assert diagnostics.rank == 2
    assert len(diagnostics.dropped) == 2


def test_hl2_fit_underdetermined():
    rng = np.random.default_rng(14)
    records = hl2_records(rng, 3, HL2Params(0.0, 0.0, 0.0, 1e-8))
    with pytest.raises(FitError, match="under-determined"):
        fit_hl2(records)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "seed, radius", [(5, 1e6), (0, 1e3)], ids=["exp-underflow", "exp-overflow"]
)
def test_hl1_trial_outside_the_model_is_a_rejected_step(seed, radius):
    # Energies falling over 600 decades as bytes per pixel rise, and a wide first
    # radius: trial exponents leave exp's range (rate_power 0, or an overflow).
    records = synth_dataset(SynthSpec(Codec.H263, 24, seed=seed, noise_sigma=0.3)).records
    infos = [rec.highlevel for rec in records]
    bytes_per_pixel = [i.file_size_bytes / (i.pixels_per_frame * i.frames) for i in infos]
    rank = np.argsort(np.argsort(bytes_per_pixel))
    pairs = list(zip(infos, np.logspace(300, -300, 24)[rank]))
    params, diagnostics = fit_hl1(pairs, TrustRegionOptions(initial_radius=radius))
    assert params.rate_power > 0 and np.isfinite(diagnostics.residual_norm)
