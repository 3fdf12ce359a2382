"""Command-line frontend: analyze, fit, predict, crossval, report, synth.

Human-readable summaries go to standard output; machine artifacts are written
only to paths given via --out/--svg.  Exit codes: 0 success, 1 usage error,
2 data or validation error, 3 numerical failure.  The DECEGY_LOG environment
variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from pathlib import Path

from .dataset import (
    BitstreamRecord,
    Dataset,
    SynthSpec,
    dataset_to_csv,
    default_specific_energies,
    export_dataset,
    load_dataset,
    synth_dataset,
)
from .errors import DataValidationError, DecegyError, FitError, about_file
from .evaluation import MODELS, breakdown_csv, breakdown_report, breakdown_svg, cross_validate
from .models import SpecificEnergies, load_params, params_to_json
from .taxonomy import Codec
from .trace import analyze, parse_trace

# Not called here: bench/spans.py wraps these names as attributes of this module.
from .fitting import feature_linear_system, fit_hl1, fit_hl2, fit_linear_ls  # noqa: F401
from .models import predict_feature_model, predict_hl1, predict_hl2  # noqa: F401

log = logging.getLogger("decegy")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def cmd_analyze(args) -> None:
    codec_flag = Codec.from_name(args.codec) if args.codec else None
    records = []
    for path in args.traces:
        with about_file(path):
            with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                trace = parse_trace(handle, codec=codec_flag, stream_id=None)
            vector = analyze(trace)
            stream_id = trace.stream_id or Path(path).stem
            frames = int(vector["frame"]) or None
            record = BitstreamRecord(stream_id, trace.codec, vector, frames=frames)
        if records and trace.codec is not records[0].codec:
            raise DataValidationError(
                f"mixed codecs: {records[0].codec.value} and {trace.codec.value} ({path})"
            )
        records.append(record)
    dataset = Dataset(tuple(records))
    _emit(dataset_to_csv(dataset), args.out)
    if args.out:
        print(f"analyzed {len(dataset)} trace(s) [{dataset.codec.value}] -> {args.out}")


def cmd_fit(args) -> None:
    dataset = load_dataset(args.dataset)
    codec = dataset.codec
    every_row = range(len(dataset))
    params, diagnostics = MODELS[args.model].fit(dataset, every_row, {"nonneg": args.nonneg})
    doc = params_to_json(params, codec, extra={"diagnostics": diagnostics.as_dict()})
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
    dataset = load_dataset(args.dataset, require_energy=False)
    kind, codec, params = load_params(args.params)
    if codec is not dataset.codec:
        raise DataValidationError(
            f"codec mismatch: dataset is {dataset.codec.value}, params are {codec.value}"
        )
    estimates = MODELS[kind].predict(params, dataset, range(len(dataset)))
    _emit(dataset_to_csv(dataset, last_columns={"E_hat": estimates}), args.out)
    if args.out:
        print(f"predicted {len(estimates)} stream(s) with the {kind} model -> {args.out}")


def cmd_crossval(args) -> None:
    dataset = load_dataset(args.dataset)
    fit_options = {"nonneg": args.nonneg} if args.nonneg else {}
    report = cross_validate(
        dataset, args.model, k=args.k, seed=args.seed, fit_options=fit_options
    )
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"model      eps_mean   (k={report.k}, seed={report.seed}, M={len(dataset)})")
    print(f"{report.model_kind:<9}  {100.0 * report.overall_error:6.2f}%")
    if report.failed_folds:
        print(f"warning: folds failed and were excluded: {report.failed_folds}")


def cmd_report(args) -> None:
    if len(args.dataset) != len(args.params):
        raise _UsageError("--dataset and --params must be given the same number of times")
    loaded = []
    for ds_path, params_path in zip(args.dataset, args.params):
        dataset = load_dataset(ds_path)
        _, codec, params = load_params(params_path)
        if not isinstance(params, SpecificEnergies):
            raise DataValidationError("breakdown reports need feature-model parameters")
        if codec is not dataset.codec:
            raise DataValidationError(
                f"codec mismatch: dataset is {dataset.codec.value}, params are {codec.value}"
            )
        loaded.append((dataset, params))
    known = {stream_id for dataset, _ in loaded for stream_id in dataset.ids}
    # a value that names a loaded id whole selects it; any other is split on commas
    wanted = {s for v in args.streams or [] for s in ([v] if v in known else v.split(",")) if s}
    rows = []
    for dataset, params in loaded:
        selected = [i for i, stream_id in enumerate(dataset.ids) if stream_id in wanted]
        rows.extend(breakdown_report(dataset, params, selected if wanted else None))
    if wanted:
        missing = wanted - {row.stream_id for row in rows}
        if missing:
            raise DataValidationError(f"unknown stream id(s): {', '.join(sorted(missing))}")
    _emit(breakdown_csv(rows), args.out)
    if args.svg:
        Path(args.svg).write_text(breakdown_svg(rows), encoding="utf-8", newline="")
    if args.out or args.svg:
        print(f"reported {len(rows)} stream(s)")


def cmd_synth(args) -> None:
    codec = Codec.from_name(args.codec)
    if args.params:
        _, params_codec, params = load_params(args.params)
        if not isinstance(params, SpecificEnergies) or params_codec is not codec:
            raise DataValidationError("synth needs feature-model parameters for the codec")
    else:
        params = default_specific_energies(codec)
    spec = SynthSpec(
        codec=codec,
        count=args.count,
        true_params=params,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
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
    kinds = tuple(MODELS)  # the feature model comes first and is the default
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count features in decode traces")
    p.add_argument("traces", nargs="+", help="trace files (JSON Lines)")
    p.add_argument("--codec", help="codec when traces carry no header")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit model parameters to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=kinds, default=kinds[0])
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
    p.add_argument("--model", choices=kinds, default=kinds[0])
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
    level = os.environ.get("DECEGY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    format_warning = warnings.formatwarning  # one line per warning, without the source line
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        args = parser.parse_args(argv)
        log.debug("running %s with %s", args.command, vars(args))
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
