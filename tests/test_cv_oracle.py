"""Differential tests of fitting and cross-validation over dataset columns.

``cv_oracle`` holds the fold loop over record lists that ``cross_validate``
ran before datasets became columns.  On random synthetic datasets of all four
codecs, some with one metadata field of one row left empty, the library's
parameter files and cross-validation reports must be the same bytes as the
oracle's, or the same exception type and message, for the feature model
(free and non-negative), HL1 and HL2.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cv_oracle  # noqa: E402
from decegy import Codec, SynthSpec, cross_validate, synth_dataset  # noqa: E402
from decegy.dataset import METADATA_COLUMNS, Dataset  # noqa: E402
from decegy.evaluation import MODELS  # noqa: E402
from decegy.models import params_to_json  # noqa: E402

RUNS = (("feature", False), ("feature", True), ("hl1", False), ("hl2", False))


def _outcome(fn, *args):
    """What ``fn`` returns, or its exception type and message; warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return "ok", fn(*args)
        except Exception as exc:
            return type(exc), str(exc)


def _fit_json(dataset: Dataset, kind: str, nonneg: bool) -> str:
    every_row = np.arange(len(dataset))
    params, diagnostics = MODELS[kind].fit(dataset, every_row, {"nonneg": nonneg})
    return params_to_json(params, dataset.codec, extra={"diagnostics": diagnostics.as_dict()})


def _cv_json(validate, dataset: Dataset, kind: str, nonneg: bool, k: int, seed: int) -> str:
    options = {"nonneg": True} if nonneg else {}
    return validate(dataset, kind, k=k, seed=seed, fit_options=options).to_json()


@st.composite
def datasets(draw):
    """A synthetic dataset; with one metadata cell emptied in about half of them."""
    spec = SynthSpec(
        draw(st.sampled_from(list(Codec))),
        draw(st.integers(4, 40)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    records = list(synth_dataset(spec))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = replace(records[i], **{draw(st.sampled_from(METADATA_COLUMNS)): None})
    return Dataset(records)


@settings(max_examples=40)
@given(datasets(), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_fit_and_crossval_match_the_oracle(dataset, k, seed):
    for kind, nonneg in RUNS:
        fitted = _outcome(_fit_json, dataset, kind, nonneg)
        assert fitted == _outcome(cv_oracle.fit_json, dataset, kind, nonneg)
        validated = _outcome(_cv_json, cross_validate, dataset, kind, nonneg, k, seed)
        oracle = _outcome(_cv_json, cv_oracle.cross_validate, dataset, kind, nonneg, k, seed)
        assert validated == oracle
