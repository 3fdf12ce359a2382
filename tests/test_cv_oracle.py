"""Differential tests of fitting and cross-validation over dataset columns.

``cv_oracle`` holds the fold loop over record lists that ``cross_validate``
ran before datasets became columns.  On random synthetic datasets of all four
codecs, some with one metadata field of one row left empty, the library's
parameter files and cross-validation reports must be the same bytes as the
oracle's, or the same exception type and message, for the feature model
(free and non-negative), HL1 and HL2.

numpy's ``default_rng(seed).permutation``, which ``make_folds`` dealt before the
permutation was computed in pure Python, is the oracle of the fold generator.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cv_oracle  # noqa: E402
from decegy import Codec, SynthSpec, cross_validate, make_folds, synth_dataset  # noqa: E402
from decegy.dataset import METADATA_COLUMNS, Dataset  # noqa: E402
from decegy.evaluation import MODELS, _pcg64, _permutation  # noqa: E402
from decegy.models import params_to_json  # noqa: E402
from util import replace  # noqa: E402

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


SEEDS = st.integers(0, 2**130)  # seeds of one to five 32-bit words


@settings(max_examples=150)
@given(st.integers(1, 6000), SEEDS)
@example(5000, 0)
@example(5000, 2**32)
@example(4097, 2**64 + 3)
@example(17, 10**30)
def test_permutation_is_numpy_default_rng_permutation(n, seed):
    """Draws below 2**32 only: a 64-bit draw needs more than 2**32 rows."""
    assert _permutation(n, seed) == np.random.default_rng(seed).permutation(n).tolist()


@settings(max_examples=50)
@given(SEEDS)
def test_pcg64_outputs_are_numpy_pcg64_raw_outputs(seed):
    outputs = _pcg64(seed)
    assert [next(outputs) for _ in range(9)] == np.random.PCG64(seed).random_raw(9).tolist()


@settings(max_examples=100)
@given(st.integers(2, 300).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, m))), SEEDS)
def test_make_folds_deals_the_numpy_permutation(m_and_k, seed):
    m, k = m_and_k
    assignment = np.empty(m, dtype=int)
    assignment[np.random.default_rng(seed).permutation(m)] = np.arange(m) % k
    assert make_folds(m, k, seed).assignment.tolist() == assignment.tolist()
