"""Parameter training: linear least squares and a dogleg trust-region solver.

The feature model and the HL2 baseline are linear in their parameters and are
fitted by QR with column pivoting (rank-deficient columns get coefficient 0
plus a :class:`CollinearityWarning`); an optional active-set pass constrains
the feature-model coefficients to be non-negative.  The HL1 baseline is
nonlinear in its power-law exponent and is fitted by a dogleg trust-region
Gauss-Newton iteration with the exponent and the power-law coefficient kept
positive through exp-reparameterization.

All solvers are deterministic: identical inputs give bit-identical outputs.

The solvers need numpy alone (LAPACK's QR and gelsd through ``numpy.linalg``),
so no command loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataValidationError, FitError
from .dataset import Dataset
from .models import HL1Params, HL2Params, HighLevelColumns


class CollinearityWarning(UserWarning):
    """Regressor columns are linearly dependent; some coefficients were zeroed."""


@dataclass
class LinearSystem:
    """Rows of (regressor vector, target) for a least-squares fit."""

    matrix: np.ndarray
    targets: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        # contiguous copies of strided views, which BLAS would round differently
        self.matrix = np.ascontiguousarray(self.matrix, dtype=float)
        self.targets = np.ascontiguousarray(self.targets, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        m, k = self.matrix.shape
        if m == 0 or k == 0:
            raise FitError("empty linear system")
        if self.targets.shape != (m,):
            raise ValueError(f"expected {m} targets, got {self.targets.shape}")
        if len(self.labels) != k:
            raise ValueError(f"expected {k} labels, got {len(self.labels)}")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.targets))):
            raise FitError("non-finite values in linear system")


@dataclass
class FitDiagnostics:
    """Solver bookkeeping, serializable as JSON via :meth:`as_dict`."""

    iterations: int = 0
    termination: str = "direct"
    residual_norm: float = 0.0
    gradient_norm: float | None = None
    condition: float | None = None
    rank: int | None = None
    dropped: tuple[str, ...] = ()
    kkt: dict | None = None
    notes: tuple[str, ...] = ()
    cost_history: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "iterations": self.iterations,
            "termination": self.termination,
            "residual_norm": self.residual_norm,
        }
        if self.gradient_norm is not None:
            out["gradient_norm"] = self.gradient_norm
        if self.condition is not None:
            out["condition"] = self.condition
        if self.rank is not None:
            out["rank"] = self.rank
        if self.dropped:
            out["dropped"] = list(self.dropped)
        if self.kkt is not None:
            out["kkt"] = self.kkt
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution by SVD, cutting singular values below eps * max."""
    return np.linalg.lstsq(A, b, rcond=np.finfo(float).eps)[0]


def _pivoted_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economic QR with column pivoting, ``A[:, piv] == Q @ R``: numpy's QR of A, then
    Householder steps on its small triangle, whose column norms are A's, each taking
    the column of largest remaining norm first."""
    Q, R = np.linalg.qr(A)
    Qs, piv = np.eye(R.shape[0]), np.arange(R.shape[1])
    for j in range(R.shape[0]):
        p = j + int(np.argmax(np.linalg.norm(R[j:, j:], axis=0)))
        R[:, [j, p]], piv[[j, p]] = R[:, [p, j]], piv[[p, j]]
        v = R[j:, j].copy()
        v[0] += math.copysign(np.linalg.norm(v), v[0])
        vv = float(v @ v)
        if vv > 0.0:
            R[j:, j:] -= np.outer(v, (2.0 / vv) * (v @ R[j:, j:]))
            Qs[:, j:] -= np.outer(Qs[:, j:] @ v, (2.0 / vv) * v)
            R[j + 1 :, j] = 0.0
    return Q @ Qs, R, piv


def _back_substitute(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``R @ x == b`` for a non-singular upper triangular R."""
    x = np.array(b, dtype=float)
    for j in range(x.size - 1, -1, -1):
        x[j] /= R[j, j]
        x[:j] -= x[j] * R[:j, j]
    return x


def _nnls_active_set(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lawson-Hanson non-negative least squares.

    Returns (x, w) where x >= 0 minimizes ||Ax - y|| and w = A'(y - Ax) holds
    the KKT multipliers: w <= 0 (up to tolerance) on the clamped coordinates,
    ~0 on the free ones.
    """
    m, n = A.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ y
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(np.max(np.abs(w)), 1.0)
    for _ in range(3 * n + 10):
        candidates = np.flatnonzero(~passive & (w > tol))
        if candidates.size == 0:
            break
        j = candidates[np.argmax(w[candidates])]
        passive[j] = True
        while True:
            cols = np.flatnonzero(passive)
            z = _lstsq(A[:, cols], y)
            if np.all(z > 0):
                x = np.zeros(n)
                x[cols] = z
                break
            # step toward z until the first passive coordinate hits zero
            mask = z <= 0
            denom = x[cols][mask] - z[mask]
            ratios = np.where(denom > 0, x[cols][mask] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = np.min(ratios)
            x[cols] = x[cols] + alpha * (z - x[cols])
            drop = cols[np.abs(x[cols]) < 1e-14]
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                x = np.zeros(n)
                break
        w = A.T @ (y - A @ x)
    return x, w


def fit_linear_ls(
    system: LinearSystem, nonneg: bool = False
) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimize the squared residual of a linear system.

    Columns are normalized to unit maximum before solving (the dynamic range
    between pel counts and offset columns reaches 1e8) and the coefficients
    unscaled afterwards.  Solved by QR with column pivoting; columns beyond
    the numerical rank get coefficient 0 and a CollinearityWarning.  With
    ``nonneg`` an active-set pass keeps all coefficients >= 0 at a KKT point.
    """
    A, y = system.matrix, system.targets
    m, k = A.shape
    scale = np.max(np.abs(A), axis=0)
    zero_cols = scale == 0.0
    scale_safe = np.where(zero_cols, 1.0, scale)
    As = A / scale_safe

    diagnostics = FitDiagnostics()
    coeffs_scaled = np.zeros(k)
    dropped: list[str] = []

    if nonneg:
        x, w = _nnls_active_set(As, y)
        coeffs_scaled = x
        clamped = [
            {"label": system.labels[j], "multiplier": float(w[j])}
            for j in range(k)
            if x[j] == 0.0
        ]
        diagnostics.kkt = {
            "clamped": clamped,
            "max_free_gradient": float(np.max(np.abs(w[x > 0]))) if np.any(x > 0) else 0.0,
        }
        diagnostics.termination = "active_set"
        dropped = [system.labels[j] for j in np.flatnonzero(zero_cols)]
    else:
        active = np.flatnonzero(~zero_cols)
        if active.size:
            Q, R, piv = _pivoted_qr(As[:, active])
            diag = np.abs(np.diag(R))
            threshold = max(m, k) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
            rank = int(np.sum(diag > threshold)) if diag.size else 0
            diagnostics.rank = rank
            if rank > 0:
                qty = Q.T @ y
                z = _back_substitute(R[:rank, :rank], qty[:rank])
                coeffs_scaled[active[piv[:rank]]] = z
                if rank < active.size:
                    dropped = [system.labels[active[j]] for j in piv[rank:]]
                diagnostics.condition = float(diag[0] / diag[rank - 1])
            else:
                dropped = [system.labels[j] for j in active]
        dropped += [system.labels[j] for j in np.flatnonzero(zero_cols)]

    if dropped:
        dropped = sorted(set(dropped), key=system.labels.index)
        warnings.warn(
            f"rank-deficient system: zeroed coefficients for {', '.join(dropped)}",
            CollinearityWarning,
            stacklevel=2,
        )
        diagnostics.dropped = tuple(dropped)

    coefficients = coeffs_scaled / scale_safe
    with np.errstate(all="ignore"):  # infinite coefficients give a NaN residual
        residual = A @ coefficients - y
    norm = float(np.linalg.norm(residual))  # its sum of squares overflows past about 1e154
    diagnostics.residual_norm = norm if norm < math.inf else math.hypot(*residual)
    if not (np.all(np.isfinite(coefficients)) and math.isfinite(diagnostics.residual_norm)):
        raise FitError("coefficients overflow the float range")  # or the fit's residual does
    return coefficients, diagnostics


@dataclass(frozen=True)
class TrustRegionOptions:
    """Dogleg iteration controls; all values must be positive."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    initial_radius: float = 1.0

    def __post_init__(self):
        if not (
            self.max_iterations > 0
            and self.gradient_tolerance > 0
            and self.step_tolerance > 0
            and self.initial_radius > 0
        ):
            raise ValueError("all trust-region options must be positive")


def _dogleg_step(J: np.ndarray, r: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Dogleg minimizer of the Gauss-Newton model within the radius."""
    p_gn = _lstsq(J, -r)
    if np.linalg.norm(p_gn) <= radius:
        return p_gn
    Jg = J @ g
    t = float(g @ g) / float(Jg @ Jg)
    p_sd = -t * g
    norm_sd = np.linalg.norm(p_sd)
    if norm_sd >= radius:
        return -(radius / np.linalg.norm(g)) * g
    # walk from the Cauchy point toward the Gauss-Newton point to the boundary
    d = p_gn - p_sd
    a = float(d @ d)
    b = 2.0 * float(p_sd @ d)
    c = float(p_sd @ p_sd) - radius * radius
    s = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return p_sd + s * d


def _jacobian(jacobian_fn, x: np.ndarray) -> np.ndarray:
    J = np.atleast_2d(np.asarray(jacobian_fn(x), dtype=float))
    if not np.all(np.isfinite(J)):
        raise FitError("Jacobian not finite")
    return J


def fit_trust_region(
    residual_fn,
    jacobian_fn,
    x0,
    options: TrustRegionOptions | None = None,
) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimize 0.5*||residual(x)||^2 by a dogleg trust-region iteration.

    Steps minimize the Gauss-Newton model inside an adaptive radius; a step is
    accepted when it achieves a positive fraction of the predicted decrease.
    Terminates on a small scaled gradient, a small step, radius collapse or
    the iteration cap, and always returns the best point seen.
    """
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

    diagnostics = FitDiagnostics(termination="max_iterations")
    diagnostics.cost_history.append(cost)
    iteration = 0
    while iteration < opts.max_iterations:
        iteration += 1
        gnorm = float(np.linalg.norm(g, np.inf))
        if gnorm <= gradient_floor:
            diagnostics.termination = "gradient_tolerance"
            break
        step = _dogleg_step(J, r, g, radius)
        step_norm = float(np.linalg.norm(step))
        if step_norm <= opts.step_tolerance * (float(np.linalg.norm(x)) + opts.step_tolerance):
            diagnostics.termination = "step_tolerance"
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
            diagnostics.cost_history.append(cost)
            if cost < best_cost:
                best_cost = cost
                best_x = x.copy()

        if radius <= 1e-16 * max(1.0, float(np.linalg.norm(x))):
            diagnostics.termination = "radius_collapse"
            break

    diagnostics.iterations = iteration
    diagnostics.residual_norm = math.sqrt(2.0 * best_cost)
    diagnostics.gradient_norm = float(np.linalg.norm(g, np.inf))
    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(J))
    diagnostics.condition = cond if math.isfinite(cond) else None
    return best_x, diagnostics


# ---------------------------------------------------------------------------
# HL1: offset + power-law model


def hl1_residuals_jacobian(params: HL1Params, streams) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (prediction - measured) and analytic Jacobian of HL1.

    ``streams`` is a :class:`HighLevelColumns` or a list of (HighLevelInfo,
    energy) pairs.  Jacobian columns follow the parameter order (base_joules,
    per_pixel_joules, rate_coeff, rate_power).
    """
    data = HighLevelColumns.of(streams)
    if not data.energies.size:
        raise FitError("no records")
    return _hl1_terms(params, data.pixels, data.file_size_bytes, data.energies)


def _hl1_terms(
    params: HL1Params, pixels: np.ndarray, sizes: np.ndarray, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hl1_residuals_jacobian` over pixel, size and energy arrays."""
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


_HL1_STARTS = (0.5, 1.0, 1.5)


def fit_hl1(
    streams, options: TrustRegionOptions | None = None
) -> tuple[HL1Params, FitDiagnostics]:
    """Fit the HL1 model by the dogleg trust region.

    ``streams`` is a :class:`HighLevelColumns` or a list of (HighLevelInfo,
    energy) pairs.  The power-law exponent and coefficient are kept positive
    by optimizing their logarithms; the iteration is started from exponent
    guesses 0.5, 1.0 and 1.5 (each with a preliminary linear fit of the
    remaining parameters) and the lowest-residual result wins.
    """
    data = HighLevelColumns.of(streams)
    if data.energies.size < 4:
        raise FitError(f"under-determined: {data.energies.size} records for 4 parameters")
    pixels, sizes, energies = data.pixels, data.file_size_bytes, data.energies
    x = sizes / pixels
    if np.unique(x).size < 2:
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
        except (DataValidationError, OverflowError):  # outside the model: reject the step
            return np.full_like(energies, math.inf)
        r, _ = _hl1_terms(params, pixels, sizes, energies)
        return r / e_scale

    def jacobian_fn(theta: np.ndarray) -> np.ndarray:
        params = to_params(theta)
        _, J = _hl1_terms(params, pixels, sizes, energies)
        chain = np.array(
            [e_scale, e_scale / p_scale, params.rate_coeff, params.rate_power]
        )
        return J * chain / e_scale

    best: tuple[float, np.ndarray, FitDiagnostics] | None = None
    for gamma0 in _HL1_STARTS:
        # preliminary linear fit of (base, per-pixel, coeff) at fixed exponent
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

    # flag an unidentifiable exponent when the power-law term is negligible
    xg = x ** params.rate_power
    power_share = float(
        np.mean(np.abs(params.rate_coeff * pixels * xg))
        / max(np.mean(np.abs(energies)), 1e-300)
    )
    if power_share < 1e-9:
        diagnostics.notes = diagnostics.notes + (
            "power-law term negligible: rate_power is unidentifiable",
        )
    return params, diagnostics


def fit_hl2(streams) -> tuple[HL2Params, FitDiagnostics]:
    """Fit the HL2 model by unconstrained linear least squares.

    ``streams`` is as for :func:`fit_hl1`.  Regressors are (intra_rate*bytes/pixel,
    intra_rate, bytes/pixel, 1), each scaled by total pixels.  Collinear data
    (e.g. every record all-intra) yields a CollinearityWarning with the
    dependent coefficients zeroed.
    """
    data = HighLevelColumns.of(streams)
    if data.energies.size < 4:
        raise FitError(f"under-determined: {data.energies.size} records for 4 parameters")
    intra, sizes, pixels = data.intra_rate, data.file_size_bytes, data.pixels
    matrix = np.column_stack([intra * sizes, intra * pixels, sizes, pixels])
    system = LinearSystem(matrix, data.energies, tuple(f.name for f in fields(HL2Params)))
    coeffs, diagnostics = fit_linear_ls(system)
    return HL2Params(*(float(c) for c in coeffs)), diagnostics


def feature_linear_system(dataset, rows=None) -> LinearSystem:
    """Linear system mapping the feature counts of ``rows`` of a dataset to their energies.

    ``rows`` defaults to every row; ``dataset`` may also be the records of one.
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(dataset)
    if not len(dataset):
        raise FitError("no records")
    rows = slice(None) if rows is None else rows
    return LinearSystem(dataset.counts[rows], dataset.energies[rows], dataset.feature_set.names)
