"""End-to-end flow: ingest -> standardize -> (optional) oversample -> UMAP ->
LASSO selection -> feature assembly -> SARN training -> held-out metrics.

All statistics (standardization, graph, lambda path, resampling) are fitted
on training rows only; test rows are pushed through the stored transforms.
Stage randomness derives from the master seed plus fixed per-stage offsets
(SEED_SPLIT, SEED_OVERSAMPLE, SEED_UMAP, SEED_SARN below), so changing one
stage's settings does not reshuffle the others.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dataset as ds
from . import lasso as ls
from . import metrics as mt
from . import umap as um
from .config import (  # the settings classes are re-exported here
    LassoSettings,
    PipelineConfig,
    SarnSettings,
    check_sarn,
    pipeline_config_from_dict,
    validate,
)
from .errors import DataFormatError, StageError
from .lasso import load_path_csv  # re-exported; lasso owns the path CSV format
from .sarn import network as nw
from .umap import load_embedding_csv  # re-exported; umap owns the embedding CSV format

SEED_SPLIT = 101
SEED_OVERSAMPLE = 211
SEED_UMAP = 307
SEED_SARN = 401

MANIFEST_VERSION = 7

ARTIFACT_FILES = (
    "standardization.json",
    "graph.json",
    "embedding.csv",
    "lasso_path.csv",
    "selection.json",
    "model.json",
    "history.csv",
    "metrics.json",
    "manifest.json",
)

HISTORY_COLUMNS = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]


@dataclass
class PipelineArtifacts:
    """Everything a finished run produced; stage outputs are None iff skipped."""

    config: PipelineConfig
    feature_names: list[str]
    class_names: list[str]
    standardization: ds.StandardizationParams
    # the (post-balance) training labels; None once reloaded without UMAP, as
    # only embedding.csv stores them
    train_labels: np.ndarray | None
    graph: um.NeighborGraph | None
    embedding: um.Embedding | None
    lasso_path: ls.LassoPath | None
    ranking: ls.FeatureRanking | None
    selected: list[int] | None
    model: nw.Model
    history: nw.TrainHistory
    metrics_report: mt.MetricsReport
    timings: dict[str, float]

    @property
    def stages(self) -> list[str]:
        """The stages that ran, in order: those `timings` times."""
        return list(self.timings)

    @cached_property
    def knn_index(self):
        """The search tree over graph.points, built on the first transform_new;
        cached here (not a field, so not saved), not on the graph a fit holds."""
        return um.knn_index(self.graph.points)


def _assemble(
    std_features: np.ndarray,
    coords: np.ndarray | None,
    selected: list[int] | None,
    mode: str,
) -> np.ndarray:
    if mode == "selected_only":
        return std_features[:, selected]
    if mode == "embedding_only":
        return coords
    return np.hstack([std_features[:, selected], coords])


def run(data: ds.Dataset, config: PipelineConfig) -> PipelineArtifacts:
    """Execute the configured stages in order; any failure aborts with the
    stage name. A config the umap or sarn stage would reject on a training-row
    count or input width known up front raises ConfigError before the first
    stage. Fully deterministic for a fixed (dataset, config)."""
    validate(config, data.n_features, data.class_counts())
    timings: dict[str, float] = {}

    @contextmanager
    def stage(name: str):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start

    with stage("split"):
        split = ds.SplitSpec(config.train_fraction, config.seed + SEED_SPLIT)
        train, test = ds.stratified_split(data, split)

    with stage("standardize"):
        train_std, std_params = ds.standardize(train)
        test_features = ds.apply_standardization(test.features, std_params)

    if config.balance == "oversample":
        with stage("balance"):
            train_std = ds.oversample(train_std, config.seed + SEED_OVERSAMPLE)

    graph = embedding = test_coords = None
    if config.uses_umap:
        with stage("umap"):
            graph, embedding = um.embed(train_std.features, config.umap, config.seed + SEED_UMAP)
            test_coords = um.transform(graph, embedding, test_features, config.umap.k)

    path = ranking = selected = None
    if config.uses_lasso:
        with stage("lasso"):
            path, ranking, selected = ls.fit_selection(
                train_std.features, train_std.labels, train_std.feature_names, config.lasso
            )

    with stage("features"):
        mode = config.feature_mode
        train_coords = embedding.coordinates if embedding is not None else None
        train_feats = _assemble(train_std.features, train_coords, selected, mode)
        check_sarn(config, train_feats.shape[1])
        test_feats = _assemble(test_features, test_coords, selected, mode)

    with stage("sarn"):
        seed = config.seed + SEED_SARN
        model = nw.init_model(train_feats.shape[1], data.n_classes, config.sarn, seed)
        model, history = nw.train(
            (train_feats, train_std.labels), (test_feats, test.labels), model, config.sarn, seed
        )

    with stage("metrics"):
        _, pred = nw.predict(model, test_feats)
        report = mt.evaluate(test.labels, pred, data.n_classes)

    return PipelineArtifacts(
        config=config,
        feature_names=list(data.feature_names),
        class_names=list(data.class_names),
        standardization=std_params,
        train_labels=train_std.labels,
        graph=graph,
        embedding=embedding,
        lasso_path=path,
        ranking=ranking,
        selected=selected,
        model=model,
        history=history,
        metrics_report=report,
        timings=timings,
    )


def transform_new(artifacts: PipelineArtifacts, X_new: np.ndarray) -> np.ndarray:
    """Map raw feature rows onto the trained model's input space using the
    stored standardization, out-of-sample embedding rule and selection."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=np.float64))
    width = len(artifacts.feature_names)
    if X_new.shape[1] != width:
        raise ValueError(f"expected {width} feature columns, got {X_new.shape[1]}")
    std = ds.apply_standardization(X_new, artifacts.standardization)
    coords = None
    if artifacts.config.uses_umap:
        coords = um.transform(
            artifacts.graph, artifacts.embedding, std, artifacts.config.umap.k, artifacts.knn_index
        )
    return _assemble(std, coords, artifacts.selected, artifacts.config.feature_mode)


def save_artifacts(artifacts: PipelineArtifacts, out_dir: str) -> None:
    """Write the artifacts directory (one file per stage output + manifest).
    Every JSON file but the manifest, and the manifest's config echo, is its
    record through ds.record_to_json."""
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)

    std = ds.record_to_json(artifacts.standardization)
    ds.write_json(join("standardization.json"), {**std, "feature_names": artifacts.feature_names})
    if artifacts.graph is not None:
        # built in the call, so its lists are freed before the next file
        ds.write_json(join("graph.json"), ds.record_to_json(artifacts.graph))
    if artifacts.embedding is not None:
        um.embedding_to_csv(
            artifacts.embedding.coordinates, artifacts.train_labels, join("embedding.csv")
        )
    if artifacts.lasso_path is not None:
        ls.path_to_csv(artifacts.lasso_path, join("lasso_path.csv"))
    if artifacts.ranking is not None:
        ds.write_json(
            join("selection.json"),
            {
                **ds.record_to_json(artifacts.ranking),
                "selected_indices": artifacts.selected,
                "selected_names": [artifacts.feature_names[j] for j in artifacts.selected],
            },
        )
    ds.write_json(join("model.json"), ds.record_to_json(artifacts.model))
    h = artifacts.history
    columns = (h.train_loss, h.train_accuracy, h.val_loss, h.val_accuracy)
    ds.write_table(join("history.csv"), HISTORY_COLUMNS, zip(range(len(h)), *columns))
    ds.write_json(join("metrics.json"), ds.record_to_json(artifacts.metrics_report))
    emb = artifacts.embedding
    ds.write_json(
        join("manifest.json"),
        {
            "manifest_version": MANIFEST_VERSION,
            "stages": artifacts.stages,
            "timings": artifacts.timings,
            "config": ds.record_to_json(artifacts.config),
            "feature_names": artifacts.feature_names,
            "class_names": artifacts.class_names,
            "embedding_final_loss": emb.final_loss if emb is not None else None,
            "embedding_epoch_losses": emb.epoch_losses.tolist() if emb is not None else None,
        },
    )


def load_history_csv(path: str) -> nw.TrainHistory:
    header, rows = ds.read_table(path)
    table = ds.float_columns(path, header, rows, HISTORY_COLUMNS[1:])
    return nw.TrainHistory(
        train_loss=table[:, 0],
        train_accuracy=table[:, 1],
        val_loss=table[:, 2],
        val_accuracy=table[:, 3],
    )


def load_artifacts(out_dir: str) -> PipelineArtifacts:
    """Reload a saved artifacts directory, losslessly."""
    join = lambda name: os.path.join(out_dir, name)
    manifest = ds.read_json(join("manifest.json"))
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise DataFormatError(
            f"{out_dir}: manifest_version {manifest.get('manifest_version')} is not "
            f"{MANIFEST_VERSION}; refit to write a current artifacts directory"
        )
    config = pipeline_config_from_dict(manifest["config"])
    std = ds.record_from_json(ds.StandardizationParams, ds.read_json(join("standardization.json")))
    graph = embedding = train_labels = None
    if config.uses_umap:
        graph = ds.record_from_json(um.NeighborGraph, ds.read_json(join("graph.json")))
        coords, train_labels = load_embedding_csv(join("embedding.csv"))
        embedding = um.Embedding(
            coordinates=coords,
            final_loss=manifest["embedding_final_loss"],
            epoch_losses=np.asarray(manifest["embedding_epoch_losses"], dtype=np.float64),
        )
    feature_names, class_names = list(manifest["feature_names"]), list(manifest["class_names"])
    path = ranking = selected = None
    if config.uses_lasso:
        path = ls.load_path_csv(join("lasso_path.csv"))
        doc = ds.read_json(join("selection.json"))
        ranking, selected = ds.record_from_json(ls.FeatureRanking, doc), doc["selected_indices"]
        if len(set(selected)) != len(selected) or not all(
            0 <= j < len(feature_names) for j in selected
        ):
            raise DataFormatError(
                f"{doc.path}: selected_indices must be distinct and lie in "
                f"[0, {len(feature_names)}), got {selected}"
            )
    model_cls = nw.SarnModel if config.sarn.loss_head == nw.DKL_HEAD else nw.SoftmaxRegModel
    model = ds.record_from_json(model_cls, ds.read_json(join("model.json")))
    if len(class_names) != model.n_classes:
        raise DataFormatError(
            f"{manifest.path}: {len(class_names)} class names for a "
            f"{model.n_classes}-class model"
        )
    return PipelineArtifacts(
        config=config,
        feature_names=feature_names,
        class_names=class_names,
        standardization=std,
        train_labels=train_labels,
        graph=graph,
        embedding=embedding,
        lasso_path=path,
        ranking=ranking,
        selected=selected,
        model=model,
        history=load_history_csv(join("history.csv")),
        metrics_report=ds.record_from_json(mt.MetricsReport, ds.read_json(join("metrics.json"))),
        # write_json sorts the timings' keys; the stages list keeps the run order
        timings={name: float(manifest["timings"][name]) for name in manifest["stages"]},
    )
