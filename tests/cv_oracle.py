"""Reference fitting and cross-validation over record lists, kept as a test oracle.

This is the fold loop that ``decegy.evaluation.cross_validate`` ran before datasets
became columns: it lists the training records of every fold, stacks their count
rows into the feature model's linear system and rebuilds the (HighLevelInfo,
energy) pairs of the high-level models.  The solvers and predictors are the
library's.  ``test_cv_oracle.py`` requires the library's fit parameters and
cross-validation reports to be the same bytes, or the same exception type and
message.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from decegy.dataset import METADATA_COLUMNS, BitstreamRecord, Dataset
from decegy.errors import DataValidationError, FitError
from decegy.evaluation import CVReport, make_folds
from decegy.fitting import LinearSystem, fit_hl1, fit_hl2, fit_linear_ls
from decegy.models import (
    HighLevelInfo,
    SpecificEnergies,
    params_to_dict,
    params_to_json,
    predict_feature_model,
    predict_hl1,
    predict_hl2,
)


def _highlevel(rec: BitstreamRecord) -> HighLevelInfo:
    info = rec.highlevel
    if info is None:
        raise DataValidationError(
            f"record {rec.stream_id!r} lacks high-level metadata ({'/'.join(METADATA_COLUMNS)})"
        )
    return info


def _highlevel_pairs(records) -> list[tuple[HighLevelInfo, float]]:
    return [(_highlevel(rec), rec.energy_joules) for rec in records]


def feature_linear_system(records) -> LinearSystem:
    records = list(records)
    if not records:
        raise FitError("no records")
    fs = records[0].features.feature_set
    matrix = np.vstack([r.features.counts for r in records])
    targets = np.array([float(r.energy_joules) for r in records])
    return LinearSystem(matrix, targets, fs.names)


def _fit_feature(records, nonneg: bool):
    coeffs, diagnostics = fit_linear_ls(feature_linear_system(records), nonneg=nonneg)
    return SpecificEnergies(records[0].features.feature_set, coeffs), diagnostics


FIT = {
    "feature": lambda records, options: _fit_feature(records, options.get("nonneg", False)),
    "hl1": lambda records, options: fit_hl1(
        _highlevel_pairs(records), options.get("trust_region")
    ),
    "hl2": lambda records, options: fit_hl2(_highlevel_pairs(records)),
}
PREDICT = {
    "feature": lambda params, rec: predict_feature_model(params, rec.features),
    "hl1": lambda params, rec: predict_hl1(params, _highlevel(rec)),
    "hl2": lambda params, rec: predict_hl2(params, _highlevel(rec)),
}


def fit_json(dataset: Dataset, model_kind: str, nonneg: bool = False) -> str:
    """The parameter file ``decegy fit`` writes for the whole dataset."""
    params, diagnostics = FIT[model_kind](dataset.records, {"nonneg": nonneg})
    return params_to_json(params, dataset.codec, extra={"diagnostics": diagnostics.as_dict()})


def cross_validate(
    dataset: Dataset, model_kind: str, k: int = 10, seed: int = 42, fit_options=None
) -> CVReport:
    records = list(dataset)
    if len(records) < k:
        raise DataValidationError(f"dataset has {len(records)} records, fewer than k={k}")
    for rec in records:
        if rec.energy_joules is None:
            raise DataValidationError(f"record {rec.stream_id!r} has no measured energy")
    options = fit_options or {}
    partition = make_folds(len(records), k, seed)
    fold_errors, fold_params, per_stream, failed = [], [], {}, []
    for fold in range(k):
        val_idx = partition.fold_indices(fold)
        train = [records[i] for i in range(len(records)) if partition.assignment[i] != fold]
        try:
            params, _ = FIT[model_kind](train, options)
            errors = []
            for i in val_idx:
                rec = records[i]
                estimate = PREDICT[model_kind](params, rec)
                errors.append(abs(estimate - rec.energy_joules) / rec.energy_joules)
                per_stream[rec.stream_id] = errors[-1]
            fold_errors.append(float(np.mean(errors)))
            fold_params.append(params_to_dict(params))
        except FitError as exc:
            warnings.warn(f"fold {fold} failed: {exc}", stacklevel=2)
            failed.append(fold)
            fold_errors.append(None)
            fold_params.append(None)
    overall = float(np.mean(list(per_stream.values()))) if per_stream else math.nan
    return CVReport(
        model_kind=model_kind,
        k=k,
        seed=seed,
        overall_error=overall,
        fold_errors=fold_errors,
        fold_sizes=partition.fold_sizes(),
        fold_params=fold_params,
        per_stream=per_stream,
        failed_folds=failed,
    )
