"""The HL1 fit as it was before its residuals and Jacobian were computed apart.

``fit_hl1`` here is the earlier ``decegy.fitting.fit_hl1``: its residual
function built the full Jacobian on every call and dropped it, recomputed
bytes per pixel and its logarithm each time, and the distinct bytes-per-pixel
test was ``np.unique``.  ``fit_trust_region`` is the earlier dogleg loop, which
also set a trial cost that overflowed to infinity again and solved for the
Gauss-Newton point on every iteration, a rejected step's too.  The least-squares
kernel, the dogleg step and the Jacobian check are the package's own, so
``test_hl1_oracle.py`` compares only what was rewritten.
"""

from __future__ import annotations

import math

import numpy as np

from decegy.errors import DataValidationError, FitError
from decegy.fitting import FitDiagnostics, TrustRegionOptions, _dogleg_step, _jacobian, _lstsq
from decegy.models import HL1Params, HighLevelColumns


def fit_trust_region(
    residual_fn,
    jacobian_fn,
    x0,
    options: TrustRegionOptions | None = None,
) -> tuple[np.ndarray, FitDiagnostics]:
    """The earlier trust region, which re-checked a finite trial cost."""
    opts = options or TrustRegionOptions()
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x0 must be a 1-D parameter vector")
    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitError("residual not finite at the starting point")
    cost = 0.5 * float(r @ r)
    best_x, best_cost = x.copy(), cost
    radius = opts.initial_radius
    J = _jacobian(jacobian_fn, x)
    g = J.T @ r
    gnorm0 = float(np.linalg.norm(g, np.inf))
    gradient_floor = opts.gradient_tolerance * max(1.0, gnorm0)

    termination, cost_history, iteration = "max_iterations", [cost], 0
    while iteration < opts.max_iterations:
        iteration += 1
        gnorm = float(np.linalg.norm(g, np.inf))
        if gnorm <= gradient_floor:
            termination = "gradient_tolerance"
            break
        step = _dogleg_step(J, _lstsq(J, -r), g, radius)  # solved on every iteration
        step_norm = float(np.linalg.norm(step))
        if step_norm <= opts.step_tolerance * (float(np.linalg.norm(x)) + opts.step_tolerance):
            termination = "step_tolerance"
            break
        with np.errstate(all="ignore"):
            r_trial = np.asarray(residual_fn(x + step), dtype=float)
            if np.all(np.isfinite(r_trial)):
                cost_trial = 0.5 * float(r_trial @ r_trial)
                if not math.isfinite(cost_trial):
                    cost_trial = math.inf
            else:
                cost_trial = math.inf
        Jp = J @ step
        predicted = -(float(g @ step) + 0.5 * float(Jp @ Jp))
        actual = cost - cost_trial
        rho = actual / predicted if predicted > 0 else -math.inf

        if rho < 0.25:
            radius = 0.25 * step_norm
        elif rho > 0.75 and step_norm >= 0.99 * radius:
            radius = min(2.0 * radius, 1e12)

        if rho > 1e-4 and actual > 0:
            x = x + step
            r = r_trial
            cost = cost_trial
            J = _jacobian(jacobian_fn, x)
            g = J.T @ r
            cost_history.append(cost)
            if cost < best_cost:
                best_cost = cost
                best_x = x.copy()

        if radius <= 1e-16 * max(1.0, float(np.linalg.norm(x))):
            termination = "radius_collapse"
            break

    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(J))
    gnorm = float(np.linalg.norm(g, np.inf))
    return best_x, FitDiagnostics(iteration, termination, math.sqrt(2.0 * best_cost), gnorm,
                                  cond if math.isfinite(cond) else None, cost_history=cost_history)


def one_value(x: np.ndarray) -> bool:
    """The earlier test for records that share one bytes-per-pixel value."""
    return np.unique(x).size < 2


def hl1_terms(
    params: HL1Params, pixels: np.ndarray, sizes: np.ndarray, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and Jacobian of HL1 over pixel, size and energy arrays."""
    x = sizes / pixels
    xg = x ** params.rate_power
    pred = params.base_joules + pixels * (params.per_pixel_joules + params.rate_coeff * xg)
    residuals = pred - energies
    jacobian = np.column_stack(
        [
            np.ones_like(pixels),
            pixels,
            pixels * xg,
            pixels * params.rate_coeff * xg * np.log(x),
        ]
    )
    return residuals, jacobian


def hl1_residuals_jacobian(params: HL1Params, streams) -> tuple[np.ndarray, np.ndarray]:
    data = HighLevelColumns.of(streams)
    if not data.energies.size:
        raise FitError("no records")
    return hl1_terms(params, data.pixels, data.file_size_bytes, data.energies)


def fit_hl1(
    streams, options: TrustRegionOptions | None = None
) -> tuple[HL1Params, FitDiagnostics]:
    data = HighLevelColumns.of(streams)
    if data.energies.size < 4:
        raise FitError(f"under-determined: {data.energies.size} records for 4 parameters")
    pixels, sizes, energies = data.pixels, data.file_size_bytes, data.energies
    x = sizes / pixels
    if one_value(x):
        raise FitError("under-determined: all records share one bytes-per-pixel value")

    e_scale = float(np.mean(np.abs(energies)))
    if e_scale == 0.0:
        e_scale = 1.0
    p_scale = float(np.mean(pixels))

    def to_params(theta: np.ndarray) -> HL1Params:
        return HL1Params(
            base_joules=theta[0] * e_scale,
            per_pixel_joules=theta[1] * e_scale / p_scale,
            rate_coeff=math.exp(theta[2]) * e_scale / p_scale,
            rate_power=math.exp(theta[3]),
        )

    def residual_fn(theta: np.ndarray) -> np.ndarray:
        try:
            params = to_params(theta)
        except (DataValidationError, OverflowError):
            return np.full_like(energies, math.inf)
        r, _ = hl1_terms(params, pixels, sizes, energies)
        return r / e_scale

    def jacobian_fn(theta: np.ndarray) -> np.ndarray:
        params = to_params(theta)
        _, J = hl1_terms(params, pixels, sizes, energies)
        chain = np.array(
            [e_scale, e_scale / p_scale, params.rate_coeff, params.rate_power]
        )
        return J * chain / e_scale

    best: tuple[float, np.ndarray, FitDiagnostics] | None = None
    for gamma0 in (0.5, 1.0, 1.5):
        xg0 = x ** gamma0
        design = np.column_stack([np.ones_like(pixels), pixels, pixels * xg0])
        prelim = _lstsq(design, energies)
        beta_floor = 1e-12 * e_scale / float(np.mean(pixels * xg0))
        beta0 = max(float(prelim[2]), beta_floor)
        theta0 = np.array(
            [
                float(prelim[0]) / e_scale,
                float(prelim[1]) * p_scale / e_scale,
                math.log(beta0 * p_scale / e_scale),
                math.log(gamma0),
            ]
        )
        theta, diag = fit_trust_region(residual_fn, jacobian_fn, theta0, options)
        cost = 0.5 * float(np.sum(residual_fn(theta) ** 2))
        if best is None or cost < best[0]:
            best = (cost, theta, diag)

    assert best is not None
    _, theta, diagnostics = best
    params = to_params(theta)

    xg = x ** params.rate_power
    power_share = float(
        np.mean(np.abs(params.rate_coeff * pixels * xg))
        / max(np.mean(np.abs(energies)), 1e-300)
    )
    if power_share < 1e-9:
        *head, notes, history = diagnostics._values()
        notes += ("power-law term negligible: rate_power is unidentifiable",)
        diagnostics = FitDiagnostics(*head, notes, history)
    return params, diagnostics
