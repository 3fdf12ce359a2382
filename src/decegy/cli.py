"""Command-line frontend: analyze, fit, predict, crossval, report, synth.

Human-readable summaries go to standard output; machine artifacts are written
only to paths given via --out/--svg.  Exit codes: 0 success, 1 usage error,
2 data or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

from . import _lazy
from .errors import DataValidationError, DecegyError, FitError, about_file
from .schema import BASE_COLUMNS, check_record, csv_row, csv_text
from .taxonomy import Codec, build_feature_set

# Names of the other modules, bound here by the commands that call them or on attribute
# access (bench/spans.py wraps them so); a name bound already is kept.  Of them, only
# `fitting` and `synth_dataset` load numpy, and only `analyze` needs `trace`.
_LAZY = {
    "trace": "analyze analyze_lines parse_trace",
    "dataset": "SynthSpec about_rows dataset_to_csv default_specific_energies export_dataset"
    " load_dataset synth_dataset",
    "evaluation": "MODELS breakdown_csv breakdown_report breakdown_svg cross_validate",
    "models": "SpecificEnergies load_params params_to_json predict_feature_model predict_hl1"
    " predict_hl2",
    "fitting": "feature_linear_system fit_hl1 fit_hl2 fit_linear_ls",
}
_bind, __getattr__ = _lazy(globals(), _LAZY)
_MODEL_KINDS = ("feature", "hl1", "hl2")  # the keys of evaluation.MODELS, the default first


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def cmd_analyze(args) -> None:
    _bind("trace")
    codec_flag = Codec.from_name(args.codec) if args.codec else None
    codec, rows, first_in, repeated = None, [], {}, None
    for path in args.traces:
        with about_file(path):
            stream_id, trace_codec, vector = _analyze_file(path, codec_flag)
            stream_id = stream_id or Path(path).stem
            metadata = (None, None, int(vector["frame"]) or None, None, None)
            check_record(stream_id, trace_codec, vector, metadata, None, {})
        if codec is not None and trace_codec is not codec:
            raise DataValidationError(
                f"mixed codecs: {codec.value} and {trace_codec.value} ({path})"
            )
        codec = trace_codec
        if stream_id in first_in and repeated is None:
            repeated = f"{path}: duplicate stream_id {stream_id!r} (first in {first_in[stream_id]})"
        first_in.setdefault(stream_id, path)
        rows.append(csv_row(stream_id, codec, (*metadata, None), vector.tolist()))
    if repeated:  # found once every trace has been read, as a dataset would find it
        raise DataValidationError(repeated)
    _emit(csv_text([[*BASE_COLUMNS, *build_feature_set(codec).names], *rows]), args.out)
    if args.out:
        print(f"analyzed {len(rows)} trace(s) [{codec.value}] -> {args.out}")


def _analyze_file(path: str, codec: Codec | None):
    """A trace file's stream id, codec and vector; a trace that counting each distinct
    line once rejects is read again line by line, for the whole file's error and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        source = handle if handle.seekable() else list(handle)  # a pipe can be read once
        try:
            return analyze_lines(source, codec)
        except DecegyError:
            if source is handle:
                handle.seek(0)
            trace = parse_trace(source, codec=codec)
    return trace.stream_id, trace.codec, analyze(trace)


def cmd_fit(args) -> None:
    _bind("fitting", "dataset", "evaluation", "models")
    dataset = load_dataset(args.dataset)
    every_row = range(len(dataset))
    with about_rows(args.dataset):
        params, diagnostics = MODELS[args.model].fit(dataset, every_row, {"nonneg": args.nonneg})
    doc = params_to_json(params, dataset.codec, extra={"diagnostics": diagnostics.as_dict()})
    if args.out:
        Path(args.out).write_text(doc + "\n", encoding="utf-8")
    print(
        f"fitted {args.model} model on {len(dataset)} records "
        f"(residual norm {diagnostics.residual_norm:.3e})"
    )
    if diagnostics.dropped:
        print(f"warning: zeroed collinear coefficients: {', '.join(diagnostics.dropped)}")
    if diagnostics.kkt is not None:
        clamped = [c["label"] for c in diagnostics.kkt["clamped"]]
        print(f"nonneg fit: clamped at zero: {', '.join(clamped) if clamped else '(none)'}")


def cmd_predict(args) -> None:
    _bind("dataset", "evaluation", "models")
    dataset = load_dataset(args.dataset, require_energy=False)
    kind, codec, params = load_params(args.params)
    _check_codec(dataset, codec, args.params)
    with about_rows(args.dataset):
        estimates = MODELS[kind].predict(params, dataset, range(len(dataset)))
    with about_file(args.out or args.dataset):
        text = dataset_to_csv(dataset, last_columns={"E_hat": estimates})
    _emit(text, args.out)
    if args.out:
        print(f"predicted {len(estimates)} stream(s) with the {kind} model -> {args.out}")


def _check_codec(dataset, params_codec: Codec, params_path: str) -> None:
    if params_codec is not dataset.codec:
        raise DataValidationError(
            f"{params_path}: codec mismatch: dataset is {dataset.codec.value}, "
            f"params are {params_codec.value}"
        )


def cmd_crossval(args) -> None:
    _bind("fitting", "dataset", "evaluation")
    dataset = load_dataset(args.dataset)
    if len(dataset) < args.k:  # the file's fault; make_folds checks it too, naming no file
        raise DataValidationError(
            f"{args.dataset}: dataset has {len(dataset)} records, fewer than k={args.k}"
        )
    with about_rows(args.dataset):
        report = cross_validate(
            dataset, args.model, k=args.k, seed=args.seed, fit_options={"nonneg": args.nonneg}
        )
    if len(report.failed_folds) == report.k:  # no error to pool
        raise FitError("every fold failed")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"model      eps_mean   (k={report.k}, seed={report.seed}, M={len(dataset)})")
    print(f"{report.model_kind:<9}  {100.0 * report.overall_error:6.2f}%")
    if report.failed_folds:
        print(f"warning: folds failed and were excluded: {report.failed_folds}")


def cmd_report(args) -> None:
    _bind("dataset", "evaluation", "models")
    if len(args.dataset) != len(args.params):
        raise _UsageError("--dataset and --params must be given the same number of times")
    loaded = []
    for ds_path, params_path in zip(args.dataset, args.params):
        dataset = load_dataset(ds_path)
        _, codec, params = load_params(params_path)
        if not isinstance(params, SpecificEnergies):
            raise DataValidationError(
                f"{params_path}: breakdown reports need feature-model parameters"
            )
        _check_codec(dataset, codec, params_path)
        loaded.append((ds_path, dataset, params))
    known = {stream_id for _, dataset, _ in loaded for stream_id in dataset.ids}
    # a value that names a loaded id whole selects it; any other is split on commas
    wanted = {s for v in args.streams or [] for s in ([v] if v in known else v.split(",")) if s}
    rows = []
    for ds_path, dataset, params in loaded:
        selected = [i for i, stream_id in enumerate(dataset.ids) if stream_id in wanted]
        with about_rows(ds_path):
            rows.extend(breakdown_report(dataset, params, selected if wanted else None))
    if wanted:
        missing = wanted - {row.stream_id for row in rows}
        if missing:
            raise DataValidationError(f"unknown stream id(s): {', '.join(sorted(missing))}")
    svg = args.svg and breakdown_svg(rows)  # before any output: a chart that fails writes none
    _emit(breakdown_csv(rows), args.out)
    if args.svg:
        Path(args.svg).write_text(svg, encoding="utf-8", newline="")
    if args.out or args.svg:
        print(f"reported {len(rows)} stream(s)")


def cmd_synth(args) -> None:
    _bind("dataset", "models")
    codec = Codec.from_name(args.codec)
    if args.params:
        _, params_codec, params = load_params(args.params)
        if not isinstance(params, SpecificEnergies) or params_codec is not codec:
            raise DataValidationError(
                f"{args.params}: synth needs feature-model parameters for the codec"
            )
    else:
        params = default_specific_energies(codec)
    spec = SynthSpec(
        codec=codec,
        count=args.count,
        true_params=params,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    with about_file(args.params) if args.params else nullcontext():  # its energies
        dataset = synth_dataset(spec)
    export_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset)} synthetic {codec.value} records to {args.out} "
        f"(sigma={args.sigma}, seed={args.seed})"
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="decegy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count features in decode traces")
    p.add_argument("traces", nargs="+", help="trace files (JSON Lines)")
    p.add_argument("--codec", help="codec when traces carry no header")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit model parameters to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=_MODEL_KINDS, default=_MODEL_KINDS[0])
    p.add_argument("--nonneg", action="store_true", help="constrain specific energies >= 0")
    p.add_argument("--out", help="parameter JSON output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="append model estimates to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=_MODEL_KINDS, default=_MODEL_KINDS[0])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--nonneg", action="store_true")
    p.add_argument("--out", help="report JSON output path")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("report", help="per-category energy breakdown")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--params", action="append", required=True)
    p.add_argument("--streams", action="append", help="comma-separated ids, or one whole id")
    p.add_argument("--out", help="breakdown CSV path (default: stdout)")
    p.add_argument("--svg", help="stacked-bar SVG output path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--codec", required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--sigma", type=float, default=0.0, help="relative noise level")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--params", help="feature-model parameter file (default: built-in)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    format_warning = warnings.formatwarning  # one line per warning, without the source line
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        args = parser.parse_args(argv)
        if getattr(args, "nonneg", False) and args.model != "feature":
            raise _UsageError(f"--nonneg applies to the feature model only, not {args.model}")
        args.func(args)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except (DecegyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    raise SystemExit(main())
