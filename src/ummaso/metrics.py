"""Classification metrics: the confusion matrix (a plain (C, C) counts
array), accuracy, macro precision/recall and Cohen's kappa, with explicit
flags for degenerate denominators. metrics.json is a MetricsReport through
`dataset.record_to_json` and `record_from_json`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import write_table


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision_macro: float
    recall_macro: float
    kappa: float
    precision_per_class: np.ndarray
    recall_per_class: np.ndarray
    confusion: np.ndarray  # confusion[t][p]: samples of true class t predicted as p
    empty_precision_classes: list[int]  # classes never predicted (precision set to 0)
    empty_recall_classes: list[int]  # classes never observed (recall set to 0)
    kappa_degenerate: bool  # chance agreement was 1, denominator vanished


def confusion(true_labels, pred_labels, n_classes: int) -> np.ndarray:
    """The int64 (n_classes, n_classes) counts that MetricsReport.confusion holds."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape:
        raise ValueError("label vectors have different lengths")
    if true_labels.size == 0:
        raise ValueError("empty label vectors")
    if true_labels.min() < 0 or pred_labels.min() < 0:
        raise ValueError("labels must be non-negative")
    if true_labels.max() >= n_classes or pred_labels.max() >= n_classes:
        raise ValueError(f"label value exceeds class count {n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, pred_labels), 1)
    return counts


def report(cm: np.ndarray) -> MetricsReport:
    """Metrics from a confusion matrix's (C, C) counts.

    Per-class precision/recall with an empty column/row are set to 0 and
    flagged rather than NaN; macro values are unweighted class means. Kappa is
    (p_o - p_e)/(1 - p_e) with p_e from the row/column marginals; when p_e = 1
    the value is 1 for a perfect predictor, else 0, flagged either way.
    """
    counts = cm.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    diag = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    empty_cols = [int(c) for c in np.flatnonzero(col_sums == 0)]
    empty_rows = [int(c) for c in np.flatnonzero(row_sums == 0)]
    precision = np.divide(diag, col_sums, out=np.zeros_like(diag), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros_like(diag), where=row_sums > 0)
    accuracy = float(diag.sum() / total)
    p_e = float(np.sum(row_sums * col_sums) / (total * total))
    if 1.0 - p_e < 1e-15:
        kappa = 1.0 if accuracy >= 1.0 - 1e-15 else 0.0
        degenerate = True
    else:
        kappa = (accuracy - p_e) / (1.0 - p_e)
        degenerate = False
    return MetricsReport(
        accuracy=accuracy,
        precision_macro=float(precision.mean()),
        recall_macro=float(recall.mean()),
        kappa=float(kappa),
        precision_per_class=precision,
        recall_per_class=recall,
        confusion=cm,
        empty_precision_classes=empty_cols,
        empty_recall_classes=empty_rows,
        kappa_degenerate=degenerate,
    )


def evaluate(true_labels, pred_labels, n_classes: int) -> MetricsReport:
    return report(confusion(true_labels, pred_labels, n_classes))


def report_to_csv(rep: MetricsReport, path: str) -> None:
    """Bar-chart data: metric,value rows for the four summary metrics."""
    names = ("accuracy", "precision_macro", "recall_macro", "kappa")
    write_table(path, ["metric", "value"], ([name, getattr(rep, name)] for name in names))
