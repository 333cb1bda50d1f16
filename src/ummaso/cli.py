"""Command-line interface.

Subcommands: generate, fit, predict, evaluate, reduce, select. Exit codes:
0 success, 2 usage/config/schema problems, 3 I/O failures, 4 numerical
aborts. stdout carries only machine-readable summaries; progress and
diagnostics go to stderr (verbosity via UMMASO_LOG in {quiet, info, debug}).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import dataset as ds
from . import lasso as ls
from . import metrics as mt
from . import pipeline as pl
from . import umap as um
from .config import IoSettings, PipelineConfig, check_lasso, check_umap, parse_cli_config
from .errors import ConfigError, DataFormatError, NumericalError, StageError, UmmasoError
from .sarn import network as nw

logger = logging.getLogger(__name__)

SOIL_FEATURE_NAMES = ["N", "P", "K", "pH", "EC"]
SOIL_CLASS_NAMES = ["Less Fertile", "Fertile", "Highly Fertile"]
SOIL_CENTERS = [
    [40.0, 20.0, 15.0, 5.2, 0.35],
    [75.0, 45.0, 35.0, 6.4, 0.7],
    [110.0, 70.0, 60.0, 7.6, 1.2],
]
SOIL_NOISE_STD = 6.0


def _configure_logging() -> None:
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("UMMASO_LOG", "quiet").strip().lower()
    logging.basicConfig(stream=sys.stderr, level=levels.get(name, logging.WARNING))


def _metrics_line(report: mt.MetricsReport) -> str:
    return (
        f"accuracy={report.accuracy:.4f} "
        f"precision={report.precision_macro:.4f} "
        f"recall={report.recall_macro:.4f} "
        f"kappa={report.kappa:.4f}"
    )


def non_negative_int(text: str) -> int:
    """--seed's type, so that argparse names the flag before any stage runs."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return int(text)


def _check_output(out: str, directory: bool = False) -> None:
    """Raise OSError if `out` could not be written, before any input is read:
    a directory output (made after its stages run) needs a directory as its
    nearest existing ancestor, a file output a directory as its parent.
    Nothing is made here, so a rejected command leaves nothing behind."""
    if directory:
        ancestor = os.path.normpath(out)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor) or os.curdir
        if not os.path.isdir(ancestor):
            raise NotADirectoryError(
                f"output directory '{out}' cannot be made: '{ancestor}' is not a directory"
            )
        return
    parent = os.path.dirname(out) or os.curdir
    if not os.path.isdir(parent):
        reason = "is not a directory" if os.path.exists(parent) else "does not exist"
        raise OSError(f"output file '{out}' cannot be written: '{parent}' {reason}")


def _read_config(args) -> tuple[PipelineConfig, IoSettings]:
    """The --config document (empty without one) parsed strictly, with the
    --seed and --label-column flags, when given, overriding its master seed
    and label column."""
    config, io = parse_cli_config(ds.read_json(args.config) if args.config else {})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config, replace(io, label_column=args.label_column or io.label_column)


def cmd_generate(args) -> int:
    _check_output(args.out)
    _, io = _read_config(args)
    try:
        per_class = [int(v) for v in args.per_class.split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"--per-class must be comma-separated integers, got '{args.per_class}'") from None
    if not per_class:
        raise ConfigError("--per-class must list at least one count")
    if args.centers is not None:
        doc = ds.read_json(args.centers)
        if "centers" not in doc:
            raise ConfigError(f"{args.centers}: missing 'centers' key")
        centers = np.asarray(doc["centers"], dtype=np.float64)
        feature_names = doc.get("feature_names")
        class_names = doc.get("class_names")
    else:
        centers = np.asarray(SOIL_CENTERS)
        feature_names = SOIL_FEATURE_NAMES
        class_names = SOIL_CLASS_NAMES
    if len(per_class) != centers.shape[0]:
        raise ConfigError(
            f"--per-class lists {len(per_class)} counts but there are "
            f"{centers.shape[0]} class centers"
        )
    config = ds.SynthConfig(
        samples_per_class=per_class,
        class_centers=centers,
        noise_std=args.noise_std,
        seed=args.seed if args.seed is not None else 0,
    )
    data = ds.synth_generate(config, feature_names, class_names)
    ds.write_csv(data, args.out, label_column=io.label_column)
    logger.info("wrote %d rows to %s", data.n_samples, args.out)
    print("per_class_counts=" + ",".join(str(int(c)) for c in data.class_counts()))
    return 0


def cmd_fit(args) -> int:
    config, io = _read_config(args)
    data_path = args.data or io.data
    out_dir = args.out or io.out
    if data_path is None:
        raise ConfigError("no input data: pass --data or set 'data' in the config")
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    _check_output(out_dir, directory=True)
    data = ds.load_csv(data_path, label_column=io.label_column)
    logger.info("loaded %d rows, %d features", data.n_samples, data.n_features)
    artifacts = pl.run(data, config)
    pl.save_artifacts(artifacts, out_dir)
    print(_metrics_line(artifacts.metrics_report))
    return 0


def cmd_predict(args) -> int:
    _check_output(args.out)
    artifacts = pl.load_artifacts(args.artifacts)
    header, rows = ds.read_table(args.data)  # extra columns are ignored
    X = ds.float_columns(args.data, header, rows, artifacts.feature_names)
    if not rows:
        raise DataFormatError(f"{args.data}: zero data rows")
    feats = pl.transform_new(artifacts, X)
    probs, labels = nw.predict(artifacts.model, feats)
    columns = ["row_index", *(f"p_class_{c}" for c in range(probs.shape[1])), "predicted_label"]
    rows = ([r, *p, label] for r, (p, label) in enumerate(zip(probs.tolist(), labels.tolist())))
    ds.write_table(args.out, columns, rows)
    print(f"rows={probs.shape[0]}")
    return 0


def cmd_evaluate(args) -> int:
    _check_output(args.out)
    if args.csv:
        _check_output(args.csv)
    _, io = _read_config(args)
    data = ds.load_csv(args.data, label_column=io.label_column)
    header, rows = ds.read_table(args.predictions)
    predicted = ds.float_columns(args.predictions, header, rows, ["predicted_label"])[:, 0]
    # the data's classes and every class `predict` wrote a probability for
    n_classes = max(data.n_classes, sum(name.startswith("p_class_") for name in header))
    bad = np.flatnonzero(~np.isin(predicted, np.arange(n_classes)))
    if bad.size:
        raise DataFormatError(f"{args.predictions}: bad predicted_label at row {bad[0] + 2}")
    if predicted.size != data.n_samples:
        raise DataFormatError(
            f"prediction count {predicted.size} does not match data rows {data.n_samples}"
        )
    report = mt.evaluate(data.labels, predicted.astype(np.int64), n_classes)
    ds.write_json(args.out, ds.record_to_json(report))
    if args.csv:
        mt.report_to_csv(report, args.csv)
    print(_metrics_line(report))
    return 0


def cmd_reduce(args) -> int:
    _check_output(args.out)
    config, io = _read_config(args)
    data = ds.load_csv(args.data, label_column=io.label_column)
    check_umap(config.umap, data.n_samples)  # the graph holds every row
    standardized, _ = ds.standardize(data)
    _, embedding = um.embed(standardized.features, config.umap, config.seed + pl.SEED_UMAP)
    um.embedding_to_csv(embedding.coordinates, data.labels, args.out)
    print(f"rows={data.n_samples} dims={config.umap.out_dim}")
    return 0


def cmd_select(args) -> int:
    _check_output(args.out, directory=True)
    config, io = _read_config(args)
    data = ds.load_csv(args.data, label_column=io.label_column)
    check_lasso(config.lasso.selection, data.n_features)
    standardized, _ = ds.standardize(data)
    path, ranking, selected = ls.fit_selection(
        standardized.features, standardized.labels, standardized.feature_names, config.lasso
    )
    os.makedirs(args.out, exist_ok=True)
    ls.path_to_csv(path, os.path.join(args.out, "lasso_path.csv"))
    doc = {**ds.record_to_json(ranking), "selected_indices": selected}
    ds.write_json(os.path.join(args.out, "ranking.json"), doc)
    print("ranking=" + ",".join(str(j) for j in ranking.order))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=non_negative_int, help="override the master seed")
    common.add_argument(
        "--label-column", default=None, help="label column name (default: fertility)"
    )

    parser = argparse.ArgumentParser(
        prog="ummaso",
        description="Soil-fertility style pipeline: UMAP + LASSO + sparse attention network",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a synthetic dataset CSV")
    p.add_argument("--per-class", default="700,200,100", help="comma-separated counts")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--noise-std", type=float, default=SOIL_NOISE_STD)
    p.add_argument("--centers", help="JSON file with class centers (default: soil schema)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", parents=[common], help="run the full pipeline")
    p.add_argument("--data", help="labeled CSV (or 'data' key in the config)")
    p.add_argument("--out", help="artifacts directory (or 'out' key in the config)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[common], help="predict with saved artifacts")
    p.add_argument("--artifacts", required=True, help="artifacts directory from fit")
    p.add_argument("--data", required=True, help="feature CSV matching the schema")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against labels")
    p.add_argument("--predictions", required=True, help="predictions CSV from predict")
    p.add_argument("--data", required=True, help="labeled CSV with the true labels")
    p.add_argument("--out", default="metrics.json", help="metrics JSON output path")
    p.add_argument("--csv", help="also write metric,value bar-chart data here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reduce", parents=[common], help="emit the 2-d (or e-d) embedding only")
    p.add_argument("--data", required=True, help="labeled CSV")
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("select", parents=[common], help="emit the lasso path and ranking only")
    p.add_argument("--data", required=True, help="labeled CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # malformed inputs must never crash the process
        if not isinstance(exc, (UmmasoError, OSError)):
            logger.debug("unexpected failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, NumericalError):
            return 4
        return 3 if isinstance(cause, OSError) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
