"""decegy: video decoding energy estimation from bitstream feature counts.

The package covers the full estimation pipeline: codec feature taxonomies,
decode-trace analysis into feature vectors, three energy predictors (the
feature-based linear model and two high-level baselines), least-squares and
trust-region training, and k-fold cross-validation with the mean relative
error metric.

Names load their modules on first use: ``analyze``, ``predict`` and ``report`` need no numpy.
"""

from importlib import import_module

_EXPORTS = {
    "dataset": "BitstreamRecord Dataset SynthSpec default_count_ranges default_specific_energies"
    " export_dataset load_dataset synth_dataset",
    "errors": "DataValidationError DecegyError FitError IllegalEventError TraceParseError",
    "evaluation": "BreakdownRow CVReport FoldPartition breakdown_csv breakdown_report"
    " breakdown_svg cross_validate make_folds mean_relative_error",
    "fitting": "CollinearityWarning FitDiagnostics LinearSystem TrustRegionOptions"
    " feature_linear_system fit_hl1 fit_hl2 fit_linear_ls fit_trust_region hl1_residuals_jacobian",
    "models": "HL1Params HL2Params HighLevelInfo SpecificEnergies category_breakdown load_params"
    " params_from_json params_to_json predict_feature_model predict_hl1 predict_hl2 save_params",
    "taxonomy": "BLOCK_SIZES Category Codec EntropyMode FeatureId FeatureSet FeatureVector Kind"
    " build_feature_set counted_sizes feature_category validate_vector",
    "trace": "Coefficient DecodeTrace FrameStart InterBlock IntraBlock SaoBlock TransformBlock"
    " analyze coeff_value_contribution map_inter_block parse_trace pel_and_frac_counts",
}


def _lazy(namespace: dict, table: dict[str, str]):
    """``bind(*modules)``, which puts the names ``table`` lists for each module of this package
    in ``namespace`` but keeps a name bound already (bench/spans.py wraps some so), and a
    module ``__getattr__`` that binds the module of a name not bound yet."""
    module_of = {name: module for module, names in table.items() for name in names.split()}

    def bind(*modules: str) -> None:
        for module in modules:
            for name in table[module].split():
                namespace.setdefault(name, getattr(import_module(f"{__name__}.{module}"), name))

    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(module_of[name])
        return namespace[name]

    return bind, __getattr__


__all__ = " ".join(_EXPORTS.values()).split()
__version__ = "0.1.0"
__getattr__ = _lazy(globals(), _EXPORTS)[1]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
