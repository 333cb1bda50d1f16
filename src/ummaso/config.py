"""The configuration schema and its strict JSON form.

The settings dataclasses here, with `umap.UmapConfig`, `lasso.LassoSettings`
(and its `SelectionStrategy`) and `sarn.network.SarnSettings` beside the code
they configure, are the only statement of the schema: a field's name is its
JSON key, its annotation the accepted type and its default the value of an
omitted key. `pipeline_config_from_dict` walks them to parse a document
strictly (unknown keys, type errors and non-finite numbers name the full
key path; the range errors each class's `__post_init__` raises name their
section, as in `sarn: rank must lie in ...`); its inverse, which writes the
manifest's config echo, is the record codec `dataset.record_to_json`.
`validate` adds the checks that need the data; `check_umap` and
`check_lasso`, two of them, also guard the single-stage commands `reduce`
and `select`.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from . import dataset as ds
from .errors import ConfigError
from .lasso import LassoSettings, SelectionStrategy  # LassoSettings is re-exported
from .sarn import network as nw
from .sarn.network import SarnSettings  # re-exported with the other sections
from .umap import UmapConfig

FEATURE_MODES = ("selected_only", "embedding_only", "selected_plus_embedding")
BALANCE_MODES = ("none", "oversample")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    balance: str = "none"
    train_fraction: float = 0.8
    feature_mode: str = "selected_plus_embedding"
    umap: UmapConfig = field(default_factory=UmapConfig)
    lasso: LassoSettings = field(default_factory=LassoSettings)
    sarn: SarnSettings = field(default_factory=SarnSettings)

    def __post_init__(self):
        if self.seed < 0:  # as ds.SplitSpec checks it, before any stage
            raise ValueError(f"'seed' must be non-negative, got {self.seed}")
        if self.balance not in BALANCE_MODES:
            raise ValueError(f"balance must be one of {BALANCE_MODES}")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")
        if not 0.0 < self.train_fraction < 1.0:  # as ds.SplitSpec checks it
            raise ValueError("train_fraction must lie in (0, 1)")

    @property
    def uses_umap(self) -> bool:
        return self.feature_mode != "selected_only"

    @property
    def uses_lasso(self) -> bool:
        return self.feature_mode != "embedding_only"


@dataclass(frozen=True)
class IoSettings:
    """Where `fit` reads and writes; the command line may override each."""

    data: str | None = None
    out: str | None = None
    label_column: str = "fertility"


# field type -> (JSON types it accepts, how the type error names it)
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path or 'config'}' must be an object")
    return dict(value)


def _cast(tp, value, path: str):
    if is_dataclass(tp):
        return _parse(tp, value, path)
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    accepted, noun = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"'{path}' must be {noun}")
    # json reads NaN and Infinity, and NaN passes every range check
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{path}' must be a finite number")
    return tp(value)


def _parse(cls, doc, path: str):
    """Build `cls` from a mapping at key path `path`; omitted keys keep their
    defaults."""
    doc = _object(doc, path)
    hints = typing.get_type_hints(cls)
    prefix = path + "." if path else ""
    kwargs = {
        f.name: _cast(hints[f.name], doc.pop(f.name), prefix + f.name)
        for f in fields(cls)
        if f.name in doc
    }
    if doc:
        raise ConfigError(f"unknown key '{prefix}{next(iter(doc))}'")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    """Parse (a copy of) a config mapping into a PipelineConfig, strictly."""
    return _parse(PipelineConfig, doc, "")


def parse_cli_config(doc: dict) -> tuple[PipelineConfig, IoSettings]:
    """Split a CLI config document into pipeline settings and I/O settings."""
    doc = _object(doc, "")
    io_keys = [f.name for f in fields(IoSettings)]
    io = _parse(IoSettings, {k: doc.pop(k) for k in io_keys if k in doc}, "")
    return pipeline_config_from_dict(doc), io


def validate(config: PipelineConfig, n_features: int, class_counts) -> None:
    """Reject, before any stage runs, a UMAP graph that the training rows
    cannot hold, a top_k `k` above the feature count and a config whose sarn
    model cannot be built at the classifier input width known before
    fitting: `umap.out_dim`, top_k `k`, or their sum. A lambda_at/min_mse
    selection's width is known only after LASSO, so the features stage calls
    `check_sarn` then. `class_counts` holds the data's rows per class."""
    n_classes = len(class_counts)
    # a class of fewer than 2 rows fails the split stage, which names it
    if config.uses_umap and min(class_counts, default=0) >= 2:
        train = [ds.split_train_count(int(c), config.train_fraction) for c in class_counts]
        check_umap(
            config.umap, n_classes * max(train) if config.balance == "oversample" else sum(train)
        )
    selection = config.lasso.selection
    top_k = config.uses_lasso and selection.strategy == "top_k"
    if config.uses_lasso:
        check_lasso(selection, n_features)
    if not config.uses_lasso or top_k:
        width = (selection.k if top_k else 0) + (
            config.umap.out_dim if config.uses_umap else 0
        )
        check_sarn(config, width)


def check_umap(umap: UmapConfig, rows: int) -> None:
    """Raise ConfigError naming the key if a graph over `rows` training rows
    cannot hold `umap.k` neighbours or `umap.out_dim` + 1 eigenvectors."""
    if umap.k >= rows:
        raise ConfigError(f"'umap.k' {umap.k} must be below the training-row count {rows}")
    if umap.out_dim + 1 >= rows:
        raise ConfigError(
            f"'umap.out_dim' {umap.out_dim} + 1 must be below the training-row count {rows}"
        )


def check_lasso(selection: SelectionStrategy, n_features: int) -> None:
    """Raise ConfigError naming the key if a top_k `selection` asks for more
    than the `n_features` features."""
    if selection.strategy == "top_k" and selection.k > n_features:
        raise ConfigError(
            f"'lasso.selection.k' {selection.k} exceeds the feature count {n_features}"
        )


def check_sarn(config: PipelineConfig, width: int) -> None:
    """Raise ConfigError naming the keys if the sarn head cannot run at input
    width `width`: `softmax_reg` needs one feature, and `dkl_head` a kernel
    and a mask length that fit in it, as `SarnModel` checks them. The checks
    that need no width already ran when `SarnSettings` was constructed."""
    sarn = config.sarn
    dkl_head = sarn.loss_head == nw.DKL_HEAD
    if width < (sarn.kernel_size if dkl_head else 1):
        sources = []
        if config.uses_lasso:
            top_k = config.lasso.selection.strategy == "top_k"
            sources.append("lasso.selection.k" if top_k else "lasso.selection")
        if config.uses_umap:
            sources.append("umap.out_dim")
        needs = (
            f"'sarn.kernel_size' {sarn.kernel_size} exceeds"
            if dkl_head
            else f"'sarn.loss_head' {sarn.loss_head} needs 1 feature, more than"
        )
        raise ConfigError(
            f"{needs} the classifier input width {width} set by {' + '.join(sources)}"
        )
    positions = width - sarn.kernel_size + 1
    if dkl_head and sarn.mask_len is not None and sarn.mask_len > positions:
        raise ConfigError(f"sarn: mask_len must lie in [1, {positions}], got {sarn.mask_len}")
