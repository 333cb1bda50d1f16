"""Tabular dataset handling: the CSV table dialect shared by every table the
package reads or writes, the one reader and the one writer of JSON object
files (configs and artifacts) with the one codec between a record (a
dataclass) and its JSON object, CSV ingest, standardization, splitting,
rebalancing, and synthetic generation of imbalanced class blobs for
desk-scale experiments.

All operations are pure given their inputs and seed; returned datasets are
never mutated afterwards.
"""

from __future__ import annotations

import csv
import json
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import DataFormatError

STD_GUARD = 1e-12  # below this a column counts as constant and divides by 1


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with per-row integer class labels.

    features: (N, d) float matrix, one row per sample.
    labels:   (N,) integers in {0, .., C-1}.
    """

    features: np.ndarray
    feature_names: list[str]
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain NaN or infinite entries")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature_names length does not match column count")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels length does not match row count")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if labels.size and labels.max() >= len(self.class_names):
            raise ValueError("label value exceeds class count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and (guarded) standard deviations of the fit data."""

    means: np.ndarray
    std_devs: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian blob generator settings; one center per class."""

    samples_per_class: list[int]
    class_centers: np.ndarray
    noise_std: float
    seed: int

    def __post_init__(self):
        centers = np.asarray(self.class_centers, dtype=np.float64)
        object.__setattr__(self, "class_centers", centers)
        if centers.ndim != 2:
            raise ValueError("class_centers must be a C x d matrix")
        if len(self.samples_per_class) != centers.shape[0]:
            raise ValueError("samples_per_class length must match class_centers rows")
        if any(n < 0 for n in self.samples_per_class):
            raise ValueError("samples_per_class entries must be non-negative")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be positive")


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Read a header-first CSV table: the stripped header and the raw data rows.

    Every row must have as many cells as the header. Errors name the file and
    the 1-based row (row 1 is the header). Missing files raise OSError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, missing header row")
        rows = list(reader)
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
    return [h.strip() for h in header], rows


def float_columns(
    path: str, header: list[str], rows: list[list[str]], columns: list[str]
) -> np.ndarray:
    """The named columns of a `read_table` result as a finite (rows, columns)
    float matrix. Errors name the file and the cell's 1-based row and column."""
    for name in columns:
        if name not in header:
            raise DataFormatError(f"{path}: missing column '{name}'")
    idx = [header.index(name) for name in columns]
    try:
        # one finiteness check over the matrix: a per-cell np.isfinite is slower;
        # fromiter keeps no per-cell float objects alive next to the text rows
        cells = (float(row[j]) for row in rows for j in idx)
        matrix = np.fromiter(cells, np.float64, len(rows) * len(idx))
    except ValueError:  # find the cell float() rejected
        for row_no, row in enumerate(rows, start=2):
            for j in idx:
                try:
                    float(row[j])
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric value '{row[j]}' at row {row_no}, "
                        f"column {j + 1}"
                    ) from None
    matrix = matrix.reshape(len(rows), len(idx))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value '{rows[r][idx[c]]}' at row {r + 2}, "
            f"column {idx[c] + 1}"
        )
    return matrix


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest text that parses back to the same float
    return str(int(value))  # ints and flags, numpy's included


def write_table(path: str, header: list[str], rows) -> None:
    """Write a header row and data rows in the dialect `read_table` reads:
    floats as repr (exact round trip), ints and bools as integers, LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


class _JsonObject(dict):
    """A JSON object read from `path`: indexing a missing key raises
    DataFormatError naming the file and the key, not a bare KeyError."""

    def __init__(self, path: str, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise DataFormatError(f"{self.path}: missing key '{key}'")


def read_json(path: str) -> dict:
    """Read a JSON file whose root is an object (a config or an artifact).
    Invalid JSON and any other root raise DataFormatError naming the file, as
    does indexing a key that an object in it lacks; missing files raise
    OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=lambda pairs: _JsonObject(path, pairs))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: the JSON root must be an object")
    return doc


def write_json(path: str, doc: dict) -> None:
    """Write a JSON document in the package's one JSON layout: keys sorted,
    indent 1."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def record_to_json(record) -> dict:
    """The JSON form of a record (a dataclass): each field under its name, a
    nested record as an object and an array as nested lists."""
    doc = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            value = record_to_json(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[f.name] = value
    return doc


def record_from_json(cls, doc: dict):
    """The flat record `cls` from its JSON form: a field annotated np.ndarray
    goes through np.asarray (JSON ints, bools and floats come back as int64,
    bool and float64), any other is taken as read. Keys that are not fields
    are ignored; a missing one raises as indexing `doc` does."""
    hints = typing.get_type_hints(cls)
    values = {f.name: doc[f.name] for f in fields(cls)}
    return cls(**{k: np.asarray(v) if hints[k] is np.ndarray else v for k, v in values.items()})


def load_csv(path: str, label_column: str = "fertility") -> Dataset:
    """Parse a header-first CSV into a Dataset.

    Every non-label cell must be a finite real number; label cells must be
    non-negative integers. Parse failures report 1-based row and column
    (row 1 is the header). Missing files raise OSError.
    """
    header, rows = read_table(path)
    if len(set(header)) != len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise DataFormatError(f"{path}: duplicate header column '{name}'")
    if label_column not in header:
        raise DataFormatError(f"{path}: missing label column '{label_column}'")
    if not rows:
        raise DataFormatError(f"{path}: zero data rows")
    feature_names = [h for h in header if h != label_column]
    features = float_columns(path, header, rows, feature_names)
    label_idx = header.index(label_column)
    labels: list[int] = []
    for row_no, row in enumerate(rows, start=2):
        label_cell = row[label_idx].strip()
        try:
            label = int(label_cell)
        except ValueError:
            raise DataFormatError(
                f"{path}: label '{label_cell}' at row {row_no} is not an integer"
            ) from None
        if label < 0:
            raise DataFormatError(
                f"{path}: label '{label_cell}' at row {row_no} is negative"
            )
        labels.append(label)
    return Dataset(
        features=features,
        feature_names=feature_names,
        labels=np.asarray(labels, dtype=np.int64),
        class_names=[f"class_{i}" for i in range(max(labels) + 1)],
    )


def write_csv(data: Dataset, path: str, label_column: str = "fertility") -> None:
    """Write a Dataset as a table load_csv reads back exactly."""
    rows = (row.tolist() + [label] for row, label in zip(data.features, data.labels))
    write_table(path, [*data.feature_names, label_column], rows)


def standardize(data: Dataset) -> tuple[Dataset, StandardizationParams]:
    """Center each column and scale to unit population standard deviation.

    Constant columns (sd < 1e-12) are mapped to all-zeros by dividing by 1,
    which keeps downstream distance computations finite.
    """
    if data.n_samples < 2:
        raise ValueError("standardize requires at least 2 samples")
    means = data.features.mean(axis=0)
    stds = data.features.std(axis=0)  # population (divide by N)
    stds = np.where(stds < STD_GUARD, 1.0, stds)
    params = StandardizationParams(means=means, std_devs=stds)
    return replace(data, features=apply_standardization(data.features, params)), params


def apply_standardization(X: np.ndarray, params: StandardizationParams) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - params.means) / params.std_devs


def _subset(data: Dataset, indices: np.ndarray) -> Dataset:
    return replace(data, features=data.features[indices], labels=data.labels[indices])


def split_train_count(members: int, train_fraction: float) -> int:
    """A class's training-row count in stratified_split: round(fraction *
    members), clamped to keep at least one sample on each side."""
    return min(max(int(round(train_fraction * members)), 1), members - 1)


def stratified_split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split per class at spec.train_fraction; every class lands on both sides.

    Per-class train counts are split_train_count's. Row order within each
    part is preserved.
    """
    rng = np.random.default_rng(spec.seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        if members.size < 2:
            raise ValueError(f"class {c} has {members.size} samples, need at least 2")
        perm = rng.permutation(members)
        n_train = split_train_count(members.size, spec.train_fraction)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return _subset(data, train), _subset(data, test)


def oversample(data: Dataset, seed: int) -> Dataset:
    """Random oversampling with replacement up to the majority-class count.

    Existing rows are untouched; duplicates are appended after them, grouped
    by class in ascending class order.
    """
    counts = data.class_counts()
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {empty} has no samples")
    majority = int(counts.max())
    rng = np.random.default_rng(seed)
    extra: list[np.ndarray] = []
    for c in range(data.n_classes):
        deficit = majority - int(counts[c])
        if deficit == 0:
            continue
        members = np.flatnonzero(data.labels == c)
        extra.append(rng.choice(members, size=deficit, replace=True))
    if not extra:
        return data
    appended = np.concatenate(extra)
    return replace(
        data,
        features=np.concatenate([data.features, data.features[appended]]),
        labels=np.concatenate([data.labels, data.labels[appended]]),
    )


def synth_generate(
    config: SynthConfig,
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
) -> Dataset:
    """Draw Gaussian blobs around the configured class centers."""
    n_classes, dim = config.class_centers.shape
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(dim)]
    if class_names is None:
        class_names = [f"class_{i}" for i in range(n_classes)]
    if len(feature_names) != dim or len(class_names) != n_classes:
        raise ValueError("feature_names/class_names inconsistent with class_centers")
    rng = np.random.default_rng(config.seed)
    blocks = []
    labels = []
    for c, count in enumerate(config.samples_per_class):
        blocks.append(
            config.class_centers[c] + rng.normal(0.0, config.noise_std, size=(count, dim))
        )
        labels.append(np.full(count, c, dtype=np.int64))
    return Dataset(
        features=np.concatenate(blocks) if blocks else np.zeros((0, dim)),
        feature_names=list(feature_names),
        labels=np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64),
        class_names=list(class_names),
    )
