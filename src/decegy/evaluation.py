"""Validation loop: fold partitioning, cross-validation, error metric, reports.

Cross-validation randomly deals the records of a dataset into k near-equal
folds; each fold serves once as the validation set while the remaining folds
train the parameters, and the mean relative estimation error pools the
per-stream errors of all validation predictions.  A relative error of zero
means a perfect estimator.

The breakdown report decomposes estimated energies by feature category per
stream, serialized as CSV and optionally as an SVG chart with one measured
bar above one stacked estimated bar per stream.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain, repeat
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _lazy
from .dataset import Dataset, csv_text
from .errors import DataValidationError, FitError, json_text
from .models import Category, ModelParams, SpecificEnergies, estimate_by_category, feature_estimate
from .models import feature_values, params_to_dict, predict_hl1, predict_hl2
from .models import category_breakdown, predict_feature_model  # noqa: F401  bench/spans.py wraps
from .taxonomy import Frozen

if TYPE_CHECKING:
    import numpy as np

    from .fitting import FitDiagnostics

# The solvers of decegy.fitting, bound here on first use (bench/spans.py wraps them here),
# so that numpy loads only for a fit; a name bound already is kept.
_SOLVERS = {"fitting": "feature_linear_system fit_hl1 fit_hl2 fit_linear_ls"}
_solver = __getattr__ = _lazy(globals(), _SOLVERS)[1]


def _fit_feature(dataset: Dataset, rows, nonneg: bool) -> tuple[SpecificEnergies, FitDiagnostics]:
    system = _solver("feature_linear_system")(dataset, rows)
    coeffs, diagnostics = _solver("fit_linear_ls")(system, nonneg=nonneg)
    return SpecificEnergies(dataset.feature_set, coeffs), diagnostics


def _by_row(values: Iterable, rows: Sequence[int]) -> list:
    """The values computed for ``rows`` as a list; a DataValidationError gets its row's index."""
    done: list = []
    try:
        done.extend(values)  # which keeps the values computed before an error
    except DataValidationError as exc:
        exc.index = int(rows[len(done)])
        raise
    return done


def _predict_feature(params: SpecificEnergies, data: Dataset, rows) -> list[float]:
    values = feature_values(params, data.feature_set)
    return _by_row(map(feature_estimate, repeat(values), data.count_rows(rows)), rows)


class Model(NamedTuple):
    """One energy model: how to fit it and how to predict.

    ``fit(dataset, rows, options)`` trains on the given rows of a dataset and
    returns ``(params, FitDiagnostics)``; ``predict(params, dataset, rows)``
    returns the estimated energies of those rows in joules, row by row.
    """

    fit: Callable[[Dataset, Sequence[int], dict], tuple[ModelParams, FitDiagnostics]]
    predict: Callable[[ModelParams, Dataset, Sequence[int]], list[float]]


# The solvers and predictors are looked up in this module's globals at call
# time, so that wrappers installed on them (bench/spans.py) see every call.
MODELS: dict[str, Model] = {
    "feature": Model(
        lambda data, rows, options: _fit_feature(data, rows, options.get("nonneg", False)),
        _predict_feature,
    ),
    "hl1": Model(
        lambda data, rows, options: _solver("fit_hl1")(
            data.highlevel(rows), options.get("trust_region")
        ),
        lambda params, data, rows: _by_row(map(predict_hl1, repeat(params), data.infos(rows)),
                                           rows),
    ),
    "hl2": Model(
        lambda data, rows, options: _solver("fit_hl2")(data.highlevel(rows)),
        lambda params, data, rows: _by_row(map(predict_hl2, repeat(params), data.infos(rows)),
                                           rows),
    ),
}


class FoldPartition(Frozen):
    """Assignment of M records to k disjoint, near-equal folds."""

    __slots__ = ("k", "assignment", "seed")

    def __init__(self, k: int, assignment: np.ndarray, seed: int):
        import numpy as np

        arr = np.asarray(assignment, dtype=int)
        arr.setflags(write=False)
        if k < 2:
            raise ValueError("k must be >= 2")
        if arr.size < k:
            raise ValueError("fewer records than folds")
        sizes = np.bincount(arr, minlength=k)
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError("fold labels out of range")
        if sizes.max() - sizes.min() > 1:
            raise ValueError("fold sizes differ by more than 1")
        self._set(k, arr, seed)

    def fold_indices(self, fold: int) -> np.ndarray:
        return (self.assignment == fold).nonzero()[0]

    def fold_sizes(self) -> list[int]:
        import numpy as np

        return np.bincount(self.assignment, minlength=self.k).tolist()


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 2549297995355413924 << 64 | 4865540595714422341


def _hasher(const: int, multiplier: int) -> Callable[[int], int]:
    """numpy SeedSequence's 32-bit hash, whose constant advances on each call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _pcg64(seed: int) -> Iterator[int]:
    """The 64-bit outputs of numpy's PCG64 as ``default_rng(seed)`` seeds it: a SeedSequence
    mixes the seed's 32-bit words into 4 and hashes them into the 128-bit state and stream."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]] + words[4:]  # these mix in last
    for source, target in ((s, t) for s in range(len(pool)) for t in range(4) if s != t):
        value = (0xCA01F9DD * pool[target] - 0x4973F715 * hashmix(pool[source])) & _MASK32
        pool[target] = value ^ value >> 16
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(pool[i % 4]) for i in range(8)]  # four 64-bit words, each low half first
    state, stream = (w[i] << 64 | w[i + 1] << 96 | w[i + 2] | w[i + 3] << 32 for i in (0, 4))
    inc = (stream << 1 | 1) & _MASK128
    state = ((inc + state) * _PCG64_MULTIPLIER + inc) & _MASK128  # one step from 0, one after
    while True:  # a 128-bit LCG step, then the XSL-RR output of the new state
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (x >> rot | x << 64 - rot) & _MASK64


def _permutation(n: int, seed: int) -> list[int]:
    """``numpy.random.default_rng(seed).permutation(n)`` as a list: Generator.shuffle's
    Fisher-Yates, each index drawn by mask rejection from 32-bit draws while they suffice."""
    outputs = _pcg64(seed)
    halves = chain.from_iterable((x & _MASK32, x >> 32) for x in outputs)  # 64-bit draws first
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        mask, draws = (1 << i.bit_length()) - 1, outputs if i > _MASK32 else halves
        while (j := next(draws) & mask) > i:
            pass
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def make_folds(record_count: int, k: int, seed: int) -> FoldPartition:
    """Deal numpy's ``default_rng(seed).permutation``, computed in pure Python, round-robin
    into k folds, so a seed's folds do not depend on the installed numpy's ``Generator``."""
    if k < 2:
        raise DataValidationError(f"k must be >= 2, got {k}")
    if k > record_count:
        raise DataValidationError(f"dataset has {record_count} records, fewer than k={k}")
    try:
        seed = index(seed)
    except TypeError:
        raise DataValidationError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DataValidationError(f"seed must be >= 0, got {seed}")
    import numpy as np

    perm = _permutation(record_count, seed)
    assignment = np.empty(record_count, dtype=int)
    assignment[perm] = np.arange(record_count) % k
    return FoldPartition(k=k, assignment=assignment, seed=seed)


def _relative_errors(estimates, measured) -> np.ndarray:
    """|estimate - measured| / measured per record."""
    import numpy as np

    est = np.asarray(estimates, dtype=float)
    meas = np.asarray(measured, dtype=float)
    if est.shape != meas.shape or est.ndim != 1:
        raise ValueError(f"length mismatch: {est.shape} vs {meas.shape}")
    if est.size == 0:
        raise ValueError("empty input")
    if np.any(meas <= 0):
        raise ValueError("measured energies must be positive")
    return np.abs(est - meas) / meas


def mean_relative_error(estimates, measured) -> float:
    """Mean of |estimate - measured| / measured; 0 for a perfect estimator."""
    return float(_relative_errors(estimates, measured).mean())


class CVReport(Frozen):
    """Cross-validation outcome; ``overall_error`` pools all validation errors."""

    __slots__ = ("model_kind", "k", "seed", "overall_error", "fold_errors", "fold_sizes",
                 "fold_params", "per_stream", "failed_folds")

    def __init__(self, model_kind: str, k: int, seed: int, overall_error: float,
                 fold_errors: list[float | None], fold_sizes: list[int],
                 fold_params: list[dict | None], per_stream: dict[str, float],
                 failed_folds: list[int] | None = None):
        self._set(model_kind, k, seed, overall_error, fold_errors, fold_sizes, fold_params,
                  per_stream, [] if failed_folds is None else failed_folds)

    def to_json(self) -> str:
        doc = {
            "model": self.model_kind,
            "k": self.k,
            "seed": self.seed,
            "overall_error": self.overall_error,
            "fold_errors": self.fold_errors,
            "fold_sizes": self.fold_sizes,
            "failed_folds": self.failed_folds,
            "fold_params": self.fold_params,
            "per_stream": self.per_stream,
        }
        return json_text(doc, 2)


def cross_validate(
    dataset: Dataset,
    model_kind: str,
    k: int = 10,
    seed: int = 42,
    fit_options: dict | None = None,
) -> CVReport:
    """k-fold cross-validation of one model over a dataset.

    Each fold is validated with parameters trained on the other k-1 folds.
    A fold whose fit fails is reported and excluded from the pooled error
    instead of aborting the whole run; a record the model cannot use (HL1 or
    HL2 without metadata) raises DataValidationError in the first fold, which
    trains or validates on every record.  Deterministic per seed.
    """
    import numpy as np

    model = MODELS.get(model_kind)
    if model is None:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {tuple(MODELS)}")
    partition = make_folds(len(dataset), k, seed)  # which checks k and seed
    energies = [dataset.energy(i) for i in range(len(dataset))]
    options = fit_options or {}

    fold_errors: list[float | None] = []
    fold_params: list[dict | None] = []
    per_stream: dict[str, float] = {}
    errors_of_fits: list[np.ndarray] = []  # of the folds that fit, in the order of `per_stream`
    failed: list[int] = []
    for fold in range(k):
        val_idx = partition.fold_indices(fold).tolist()
        try:
            params, _ = model.fit(dataset, np.flatnonzero(partition.assignment != fold), options)
            errors = _relative_errors(model.predict(params, dataset, val_idx),
                                      [energies[i] for i in val_idx])
            per_stream.update(zip([dataset.ids[i] for i in val_idx], errors.tolist()))
            fold_errors.append(float(errors.mean()))
            fold_params.append(params_to_dict(params))
            errors_of_fits.append(errors)
        except FitError as exc:
            warnings.warn(f"fold {fold} failed: {exc}", stacklevel=2)
            failed.append(fold)
            fold_errors.append(None)
            fold_params.append(None)
    overall = float(np.concatenate(errors_of_fits).mean()) if errors_of_fits else math.nan
    return CVReport(model_kind, k, partition.seed, overall, fold_errors, partition.fold_sizes(),
                    fold_params, per_stream, failed)


# ---------------------------------------------------------------------------
# Category breakdown reports

_CATEGORY_ORDER = tuple(Category)


class BreakdownRow(Frozen):
    __slots__ = ("stream_id", "measured_joules", "estimated_joules", "category_joules")

    def __init__(self, stream_id: str, measured_joules: float, estimated_joules: float,
                 category_joules: tuple[float, ...]):  # in Category order
        self._set(stream_id, measured_joules, estimated_joules, category_joules)

    @property
    def by_category(self) -> dict[Category, float]:
        return dict(zip(_CATEGORY_ORDER, self.category_joules))


def breakdown_report(dataset, energies: SpecificEnergies, rows=None) -> list[BreakdownRow]:
    """Measured vs estimated energy with per-category decomposition.

    Covers ``rows`` of a dataset (every row by default); ``dataset`` may also
    be the records of one.
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(dataset)
    rows = range(len(dataset)) if rows is None else rows
    if not len(rows):
        return []
    fs = dataset.feature_set
    values = feature_values(energies, fs)
    made = (BreakdownRow(dataset.ids[i], dataset.energy(i), *estimate_by_category(fs, values, c))
            for i, c in zip(rows, dataset.count_rows(rows)))
    return _by_row(made, rows)


def breakdown_csv(rows: list[BreakdownRow]) -> str:
    header = ["stream_id", "E_dec", "E_hat", *(c.value for c in _CATEGORY_ORDER)]
    numbers = ([r.measured_joules, r.estimated_joules, *r.category_joules] for r in rows)
    columns = [[r.stream_id for r in rows], *(map(repr, column) for column in zip(*numbers))]
    return csv_text(chain([header], zip(*columns)))


_CATEGORY_COLORS = {
    Category.OFFSET: "#7995c4",
    Category.INTRA: "#e6a37d",
    Category.INTER: "#80be8e",
    Category.TRANS: "#d37a7d",
    Category.COEFF: "#a195c6",
    Category.SAO: "#d9cb97",
}
_MEASURED_COLOR = "#36415c"
_SEGMENTS = tuple((c.value, _CATEGORY_COLORS[c]) for c in _CATEGORY_ORDER)  # label, color


def _nice_ticks(maximum: float) -> list[float]:
    """Ticks from 0 past ``maximum`` in a round step that takes at most five to reach it."""
    magnitude = 10 ** math.floor(math.log10(maximum / 5))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step * 5 >= maximum:
            break
    n = int(math.floor(maximum / step)) + 1
    return [i * step for i in range(n + 1)]


def breakdown_svg(rows: list[BreakdownRow], title: str = "Decoding energy by category") -> str:
    """Render one measured bar above one stacked estimated bar per stream."""
    import html

    if not rows:
        raise ValueError("no rows to render")
    left, right, top, bottom = 150, 30, 70, 34
    bar_h, pair_gap, group_gap = 15, 3, 16
    plot_w = 560
    group_h = 2 * bar_h + pair_gap
    plot_h = len(rows) * (group_h + group_gap) - group_gap
    width = left + plot_w + right
    height = top + plot_h + bottom
    peak = max(max(r.measured_joules, r.estimated_joules) for r in rows)
    if not 1e-300 <= peak <= 1e300:
        raise DataValidationError(f"energy {peak!r} J is outside the chart's range")
    ticks = _nice_ticks(peak * 1.05)
    xmax = ticks[-1]

    def sx(value: float) -> float:
        return left + plot_w * value / xmax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="18" font-size="13" font-weight="bold">'
        f'{html.escape(title, quote=False)}</text>',
    ]
    # legend
    lx = left
    for label, color in (("E_dec", _MEASURED_COLOR), *_SEGMENTS):
        parts.append(f'<rect x="{lx}" y="30" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="39">{label}</text>')
        lx += 14 + 7 * len(label) + 18
    # axis
    axis_y = top + plot_h
    for tick in ticks:
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{axis_y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 14}" text-anchor="middle">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{axis_y + 28}" '
        f'text-anchor="middle">Energy [J]</text>'
    )
    y = top
    for row in rows:
        parts.append(
            f'<text x="{left - 8}" y="{y + group_h / 2 + 4:.1f}" '
            f'text-anchor="end">{html.escape(row.stream_id, quote=False)}</text>'
        )
        parts.append(
            f'<rect class="bar-measured" x="{left}" y="{y}" '
            f'width="{sx(row.measured_joules) - left:.2f}" height="{bar_h}" '
            f'fill="{_MEASURED_COLOR}"/>'
        )
        seg_x = float(left)
        seg_y = y + bar_h + pair_gap
        for (label, color), value in zip(_SEGMENTS, row.category_joules):
            if value <= 0:
                continue
            seg_w = plot_w * value / xmax
            parts.append(
                f'<rect class="seg-{label}" x="{seg_x:.2f}" y="{seg_y}" '
                f'width="{seg_w:.2f}" height="{bar_h}" fill="{color}"/>'
            )
            seg_x += seg_w
        y += group_h + group_gap
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
