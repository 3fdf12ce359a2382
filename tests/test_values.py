"""Value semantics of the package's immutable values: feature ids, sets and vectors, trace
events and traces, dataset records and synth specs, high-level inputs, specific energies
and parameters, folds, cross-validation reports and breakdown rows, linear systems,
trust-region options and fit diagnostics.

They were dataclasses or plain slotted classes and are plain slotted classes on
``taxonomy.Frozen`` now; each must still construct, compare, hash, print, copy and pickle
as before, with the same validation messages, and refuse changes (``CVReport``,
``LinearSystem``, ``FitDiagnostics``, ``FeatureVector`` and ``SpecificEnergies``, which
could be changed, now do too).  A dataset copies and pickles as its records.
"""

import copy
import math
import pickle
from operator import attrgetter

import numpy as np
import pytest

from decegy.dataset import BitstreamRecord, Dataset, SynthSpec, default_specific_energies
from decegy.dataset import synth_dataset
from decegy.evaluation import BreakdownRow, CVReport, FoldPartition
from decegy.fitting import FitDiagnostics, LinearSystem, TrustRegionOptions
from decegy.models import HighLevelInfo, HL1Params, HL2Params, SpecificEnergies
from decegy.taxonomy import Codec, EntropyMode, FeatureId, FeatureSet, FeatureValues
from decegy.taxonomy import FeatureVector, Kind, build_feature_set
from decegy.trace import (
    Coefficient,
    DecodeTrace,
    FrameStart,
    InterBlock,
    IntraBlock,
    SaoBlock,
    TransformBlock,
)

E0, SAO = FeatureId(Codec.HEVC, Kind.E0), FeatureId(Codec.HEVC, Kind.SAO)
H263 = build_feature_set(Codec.H263)
COUNTS, JOULES = [1.0, 2.0] + [0.0] * 9, [0.5, 1e-9] + [2.5e-8] * 9
VEC = FeatureVector(H263, COUNTS)
# one array object for every value of a case: == on two distinct arrays is ambiguous
FOLDS, EYE, TARGETS = np.array([0, 1, 1, 0]), np.eye(2), np.array([1.0, 2.0])
CV_ARGS = ("hl2", 2, 5, 0.125, [0.1, None], [2, 2], [{"a": 1.0}, None], {"s1": 0.1})
CV_FIELDS = ("model_kind", "k", "seed", "overall_error", "fold_errors", "fold_sizes",
             "fold_params", "per_stream")

#: Per class: positional arguments, the same as keywords with every default left out,
#: the defaults, a value that differs in one field, and the repr the class gave before
#: it was a ``Frozen``.
CASES = {
    "FeatureId": (
        FeatureId, (Codec.HEVC, Kind.INTER, 32), {"codec": Codec.HEVC, "kind": Kind.INTER,
                                                  "block_size": 32},
        {"entropy_mode": None}, FeatureId(Codec.HEVC, Kind.INTER, 16),
        "FeatureId(codec=<Codec.HEVC: 'hevc'>, kind=<Kind.INTER: 'inter'>, block_size=32, "
        "entropy_mode=None)",
    ),
    "FeatureVector": (
        FeatureVector, (H263, COUNTS), {"feature_set": H263, "values": COUNTS}, {},
        FeatureVector(H263, [1.0, 3.0] + [0.0] * 9),
        "FeatureVector(h263, array([1., 2., 0., 0., 0., 0., 0., 0., 0., 0., 0.]))",
    ),
    "FeatureSet": (
        FeatureSet, (Codec.HEVC, (E0, SAO)), {"codec": Codec.HEVC, "features": (E0, SAO)},
        {}, FeatureSet(Codec.HEVC, (SAO, E0)),
        "FeatureSet(codec=<Codec.HEVC: 'hevc'>, features=(FeatureId(codec=<Codec.HEVC: 'hevc'>, "
        "kind=<Kind.E0: 'e0'>, block_size=None, entropy_mode=None), FeatureId(codec=<Codec.HEVC:"
        " 'hevc'>, kind=<Kind.SAO: 'sao'>, block_size=None, entropy_mode=None)))",
    ),
    "FrameStart": (FrameStart, (), {}, {}, None, "FrameStart()"),
    "IntraBlock": (
        IntraBlock, (8, 16), {"w": 8, "h": 16}, {}, IntraBlock(16, 8), "IntraBlock(w=8, h=16)",
    ),
    "InterBlock": (
        InterBlock, (16, 8, True, False, True), {"w": 16, "h": 8, "bipred": True, "frac_v": True},
        {"frac_h": False, "obmc": False}, InterBlock(16, 8, True, False, True, True),
        "InterBlock(w=16, h=8, bipred=True, frac_h=False, frac_v=True, obmc=False)",
    ),
    "TransformBlock": (
        TransformBlock, (4, 4), {"w": 4, "h": 4}, {}, TransformBlock(4, 8),
        "TransformBlock(w=4, h=4)",
    ),
    "Coefficient": (
        Coefficient, (-3, 5), {"value": -3, "coded_bits": 5}, {"entropy": None},
        Coefficient(-3, 5, EntropyMode.CABAC),
        "Coefficient(value=-3, coded_bits=5, entropy=None)",
    ),
    "SaoBlock": (SaoBlock, (), {}, {}, None, "SaoBlock()"),
    "DecodeTrace": (
        DecodeTrace, ("s1", Codec.HEVC, (FrameStart(), IntraBlock(8, 8))),
        {"stream_id": "s1", "codec": Codec.HEVC, "events": (FrameStart(), IntraBlock(8, 8))},
        {}, DecodeTrace("s2", Codec.HEVC, (FrameStart(), IntraBlock(8, 8))),
        "DecodeTrace(stream_id='s1', codec=<Codec.HEVC: 'hevc'>, "
        "events=(FrameStart(), IntraBlock(w=8, h=8)))",
    ),
    "BitstreamRecord": (
        BitstreamRecord, ("s1", Codec.H263, VEC, 416, 240, 2, 900, 1),
        {"stream_id": "s1", "codec": Codec.H263, "features": VEC, "width": 416, "height": 240,
         "frames": 2, "file_size_bytes": 900, "intra_frames": 1},
        {"energy_joules": None, "tags": {}}, BitstreamRecord("s2", Codec.H263, VEC),
        "BitstreamRecord(stream_id='s1', codec=<Codec.H263: 'h263'>, features=FeatureVector("
        "h263, array([1., 2., 0., 0., 0., 0., 0., 0., 0., 0., 0.])), width=416, height=240, "
        "frames=2, file_size_bytes=900, intra_frames=1, energy_joules=None, tags=mappingproxy({}))",
    ),
    "SynthSpec": (
        SynthSpec, (Codec.HEVC, 3), {"codec": Codec.HEVC, "count": 3},
        {"true_params": None, "count_ranges": None, "noise_sigma": 0.0, "seed": 0},
        SynthSpec(Codec.HEVC, 3, seed=1),
        "SynthSpec(codec=<Codec.HEVC: 'hevc'>, count=3, true_params=None, count_ranges=None, "
        "noise_sigma=0.0, seed=0)",
    ),
    "HighLevelInfo": (
        HighLevelInfo, (99840.0, 8, 5000.0, 0.25),
        {"pixels_per_frame": 99840.0, "frames": 8, "file_size_bytes": 5000.0, "intra_rate": 0.25},
        {}, HighLevelInfo(99840.0, 8, 5000.0, 0.5),
        "HighLevelInfo(pixels_per_frame=99840.0, frames=8, file_size_bytes=5000.0, "
        "intra_rate=0.25)",
    ),
    "HL1Params": (
        HL1Params, (0.4, 2.1e-8, 1.3e-7, 0.7),
        {"base_joules": 0.4, "per_pixel_joules": 2.1e-8, "rate_coeff": 1.3e-7, "rate_power": 0.7},
        {}, HL1Params(0.4, 2.1e-8, 1.3e-7, 0.8),
        "HL1Params(base_joules=0.4, per_pixel_joules=2.1e-08, rate_coeff=1.3e-07, rate_power=0.7)",
    ),
    "HL2Params": (
        HL2Params, (2e-9, 5e-8, 3e-9, 1e-8),
        {"intra_bytes_coeff": 2e-9, "intra_coeff": 5e-8, "bytes_coeff": 3e-9, "base_coeff": 1e-8},
        {}, HL2Params(2e-9, 5e-8, 3e-9, 2e-8),
        "HL2Params(intra_bytes_coeff=2e-09, intra_coeff=5e-08, bytes_coeff=3e-09, "
        "base_coeff=1e-08)",
    ),
    "SpecificEnergies": (
        SpecificEnergies, (H263, JOULES), {"feature_set": H263, "values": JOULES}, {},
        SpecificEnergies(H263, JOULES[:-1] + [3e-8]),
        "SpecificEnergies(h263, array([5.0e-01, 1.0e-09, 2.5e-08, 2.5e-08, 2.5e-08, 2.5e-08, "
        "2.5e-08,\n       2.5e-08, 2.5e-08, 2.5e-08, 2.5e-08]))",
    ),
    "FoldPartition": (
        FoldPartition, (2, FOLDS, 3), {"k": 2, "assignment": FOLDS, "seed": 3}, {},
        FoldPartition(2, FOLDS, 4), "FoldPartition(k=2, assignment=array([0, 1, 1, 0]), seed=3)",
    ),
    "CVReport": (
        CVReport, CV_ARGS, dict(zip(CV_FIELDS, CV_ARGS)), {"failed_folds": []},
        CVReport(*CV_ARGS[:3], 0.25, *CV_ARGS[4:]),
        "CVReport(model_kind='hl2', k=2, seed=5, overall_error=0.125, fold_errors=[0.1, None], "
        "fold_sizes=[2, 2], fold_params=[{'a': 1.0}, None], per_stream={'s1': 0.1}, "
        "failed_folds=[])",
    ),
    "BreakdownRow": (
        BreakdownRow, ("s1", 1.5, 1.25, (0.5, 0.25, 0.5, 0.0, 0.0, 0.0)),
        {"stream_id": "s1", "measured_joules": 1.5, "estimated_joules": 1.25,
         "category_joules": (0.5, 0.25, 0.5, 0.0, 0.0, 0.0)},
        {}, BreakdownRow("s2", 1.5, 1.25, (0.5, 0.25, 0.5, 0.0, 0.0, 0.0)),
        "BreakdownRow(stream_id='s1', measured_joules=1.5, estimated_joules=1.25, "
        "category_joules=(0.5, 0.25, 0.5, 0.0, 0.0, 0.0))",
    ),
    "LinearSystem": (
        LinearSystem, (EYE, TARGETS, ("a", "b")),
        {"matrix": EYE, "targets": TARGETS, "labels": ("a", "b")}, {},
        LinearSystem(EYE, TARGETS, ("a", "c")),
        "LinearSystem(matrix=array([[1., 0.],\n       [0., 1.]]), targets=array([1., 2.]), "
        "labels=('a', 'b'))",
    ),
    "TrustRegionOptions": (
        TrustRegionOptions, (), {},
        {"max_iterations": 200, "gradient_tolerance": 1e-10, "step_tolerance": 1e-12,
         "initial_radius": 1.0},
        TrustRegionOptions(initial_radius=2.0),
        "TrustRegionOptions(max_iterations=200, gradient_tolerance=1e-10, step_tolerance=1e-12, "
        "initial_radius=1.0)",
    ),
    "FitDiagnostics": (
        FitDiagnostics, (3, "gradient_tolerance", 0.5, 1e-11, 4.0, None, (), None, (), [1.0, 0.5]),
        {"iterations": 3, "termination": "gradient_tolerance", "residual_norm": 0.5,
         "gradient_norm": 1e-11, "condition": 4.0, "cost_history": [1.0, 0.5]},
        {"rank": None, "dropped": (), "kkt": None, "notes": ()},
        FitDiagnostics(3, "gradient_tolerance", 0.5, 1e-11, 4.0, cost_history=[1.0, 0.25]),
        "FitDiagnostics(iterations=3, termination='gradient_tolerance', residual_norm=0.5, "
        "gradient_norm=1e-11, condition=4.0, rank=None, dropped=(), kkt=None, notes=(), "
        "cost_history=[1.0, 0.5])",
    ),
}

#: The classes whose values hold an unhashable field, as their dataclasses did: a feature
#: vector, an array or a list.
UNHASHABLE = (BitstreamRecord, FoldPartition, CVReport, LinearSystem, FitDiagnostics)

ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
ROUND_TRIP_IDS = ["copy", "deepcopy", "pickle"]

by_class = pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))


def _value(case):
    cls, args, *_ = case
    return cls(*args)


def _same(value, other) -> bool:
    """Whether two values are equal, arrays compared element by element."""
    if isinstance(value, (FoldPartition, LinearSystem)):  # == of two arrays is ambiguous
        return all(map(np.array_equal, value._values(), other._values()))
    return value == other


@by_class
def test_positional_and_keyword_construction_agree_and_fill_the_defaults(case):
    cls, args, kwargs, defaults, *_ = case
    value = cls(**kwargs)
    assert value == cls(*args)
    assert all(getattr(value, name) == default for name, default in defaults.items())


@by_class
def test_equal_values_are_equal_and_hash_alike(case):
    value, other = _value(case), _value(case)
    assert value is not other
    assert value == other and not value != other
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(other)


@by_class
def test_a_value_with_one_field_changed_differs(case):
    different = case[4]
    if different is not None:
        assert _value(case) != different
        assert different != _value(case)


def test_equality_holds_within_one_type_only():
    assert IntraBlock(8, 8) != TransformBlock(8, 8)
    assert FrameStart() != SaoBlock()
    assert len({IntraBlock(8, 8), TransformBlock(8, 8), FrameStart(), SaoBlock()}) == 4
    assert IntraBlock(8, 8) != (8, 8)
    assert HL1Params(1.0, 2.0, 3.0, 4.0) != HL2Params(1.0, 2.0, 3.0, 4.0)
    assert HL2Params(1.0, 2.0, 3.0, 4.0) != (1.0, 2.0, 3.0, 4.0)
    assert len({HL1Params(1.0, 2.0, 3.0, 4.0), HL2Params(1.0, 2.0, 3.0, 4.0)}) == 2
    values, energies = FeatureValues(H263, JOULES), SpecificEnergies(H263, JOULES)
    assert values != FeatureVector(H263, JOULES) != energies != values
    assert len({values, FeatureVector(H263, JOULES), energies}) == 3


def test_a_feature_set_compares_and_hashes_on_its_codec_and_features():
    built = build_feature_set(Codec.VP9)
    again = FeatureSet(Codec.VP9, tuple(built.features))
    assert again is not built
    assert again == built and hash(again) == hash(built)


@by_class
def test_repr_is_the_dataclass_repr(case):
    assert repr(_value(case)) == case[5]


@by_class
def test_assignment_and_deletion_raise_attribute_error(case):
    value, fields = _value(case), (*case[2], *case[3], *case[0]._fields)
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == _value(case)


@by_class
@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def test_copy_and_pickle_round_trips(case, round_trip):
    value = _value(case)
    again = round_trip(value)
    assert type(again) is type(value)
    assert _same(again, value)
    assert isinstance(value, UNHASHABLE) or hash(again) == hash(value)
    assert repr(again) == repr(value)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def test_a_fold_assignment_stays_read_only(round_trip):
    folds = FoldPartition(2, np.array([0, 1, 1, 0]), 3)
    assert not folds.assignment.flags.writeable
    assert not round_trip(folds).assignment.flags.writeable


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def test_feature_values_round_trip_after_their_array_was_read(round_trip):
    vector, energies = FeatureVector(H263, COUNTS), SpecificEnergies(H263, np.array(JOULES))
    for value, read in ((vector, attrgetter("counts")), (energies, attrgetter("values"))):
        array = read(value)
        again = round_trip(value)
        assert again == value and hash(again) == hash(value)
        assert np.array_equal(read(again), array) and not read(again).flags.writeable


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def test_a_dataset_round_trips_with_its_tags(round_trip):
    synthetic = synth_dataset(SynthSpec(Codec.HEVC, 3))
    dataset = Dataset([BitstreamRecord(*record._values()[:-1], {"take": str(i)})
                       for i, record in enumerate(synthetic)])
    again = round_trip(dataset)
    assert type(again) is Dataset and again == dataset
    assert again.ids == dataset.ids and again.tags == dataset.tags
    assert repr(again.tags) == repr(dataset.tags)
    assert np.array_equal(again.counts, dataset.counts)


def test_a_pickled_feature_set_keeps_its_index():
    again = pickle.loads(pickle.dumps(build_feature_set(Codec.H264)))
    assert again.index_of("coeff_cabac") == build_feature_set(Codec.H264).index_of("coeff_cabac")
    assert again.names == build_feature_set(Codec.H264).names


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Coefficient(0, 3), "coefficient value must be non-zero"),
        (lambda: Coefficient(1, 0), "coded_bits must be positive"),
        (lambda: FeatureId(Codec.HEVC, Kind.INTER),
         "block_size must be present iff kind is intra/inter/trans (kind=inter, block_size=None)"),
        (lambda: FeatureId(Codec.HEVC, Kind.E0, 8),
         "block_size must be present iff kind is intra/inter/trans (kind=e0, block_size=8)"),
        (lambda: FeatureId(Codec.HEVC, Kind.INTRA, 12), "block size 12 outside (4, 8, 16, 32, 64)"),
        (lambda: FeatureId(Codec.H264, Kind.COEFF),
         "entropy_mode is used exactly for H.264 coeff/val features (codec=h264, kind=coeff)"),
        (lambda: FeatureId(Codec.HEVC, Kind.VAL, entropy_mode=EntropyMode.CAVLC),
         "entropy_mode is used exactly for H.264 coeff/val features (codec=hevc, kind=val)"),
        (lambda: DecodeTrace("s", Codec.VP9, (IntraBlock(8, 8), FrameStart())),
         "block event before the first frame_start"),
        (lambda: BitstreamRecord("", Codec.H263, VEC), "empty stream_id"),
        (lambda: BitstreamRecord("s", Codec.HEVC, VEC),
         "feature vector is for h263, record says hevc"),
        (lambda: BitstreamRecord("s", Codec.H263, VEC, frames=2, intra_frames=3),
         "intra_frames exceeds frames"),
        (lambda: SynthSpec(Codec.HEVC, 0), "count must be >= 1"),
        (lambda: SynthSpec(Codec.HEVC, 3, noise_sigma=math.nan), "noise_sigma must be >= 0"),
        (lambda: SynthSpec(Codec.HEVC, 3, default_specific_energies(Codec.VP9)),
         "true_params codec mismatch"),
        (lambda: SynthSpec(Codec.HEVC, 3, count_ranges={"pel": (2.0, 1.0)}),
         "bad range for 'pel': (2.0, 1.0)"),
        (lambda: HighLevelInfo(0.0, 8, 5000.0, 0.25),
         "pixels_per_frame, frames and file_size_bytes must be > 0"),
        (lambda: HighLevelInfo(1.0, 8, 5000.0, 1.5), "intra_rate must be in [0, 1], got 1.5"),
        (lambda: HL1Params(math.nan, 0.0, 0.0, 1.0), "base_joules must be finite, got nan"),
        (lambda: HL1Params(0.0, 0.0, 0.0, 0.0), "rate_power must be > 0"),
        (lambda: HL1Params(0.0, 0.0, -1.0, 1.0), "rate_coeff must be >= 0"),
        (lambda: HL2Params(0.0, math.inf, 0.0, 0.0), "intra_coeff must be finite, got inf"),
        (lambda: FoldPartition(1, [0, 0], 0), "k must be >= 2"),
        (lambda: FoldPartition(2, [0, 2], 0), "fold labels out of range"),
        (lambda: FoldPartition(2, [0, 0, 0], 0), "fold sizes differ by more than 1"),
        (lambda: LinearSystem(np.ones(3), np.ones(3), ("a",)), "matrix must be 2-D"),
        (lambda: LinearSystem(np.ones((2, 2)), np.ones(2), ("a",)), "expected 2 labels, got 1"),
        (lambda: TrustRegionOptions(step_tolerance=0.0),
         "all trust-region options must be positive"),
    ],
    ids=["zero-value", "zero-bits", "unsized-inter", "sized-e0", "odd-size", "h264-no-mode",
         "hevc-mode", "block-first", "empty-id", "record-codec", "intra-above-frames",
         "zero-count", "nan-sigma", "params-codec", "bad-range", "zero-pixels", "intra-rate",
         "nan-base", "zero-power", "negative-coeff", "inf-coeff", "one-fold", "fold-label",
         "fold-sizes", "1-d-matrix", "labels", "zero-tolerance"],
)
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message
