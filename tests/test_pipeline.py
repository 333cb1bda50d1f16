import copy
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from ummaso import dataset as ds
from ummaso import lasso as ls
from ummaso import pipeline as pl
from ummaso import umap as um
from ummaso.config import pipeline_config_from_dict
from ummaso.errors import ConfigError, StageError
from ummaso.lasso import SelectionStrategy
from ummaso.sarn import network as nw
from ummaso.umap import UmapConfig


def soil_data(counts=(210, 60, 30), seed=7):
    config = ds.SynthConfig(
        samples_per_class=list(counts),
        class_centers=np.array(
            [
                [40.0, 20.0, 15.0, 5.2, 0.35],
                [75.0, 45.0, 35.0, 6.4, 0.7],
                [110.0, 70.0, 60.0, 7.6, 1.2],
            ]
        ),
        noise_std=6.0,
        seed=seed,
    )
    return ds.synth_generate(
        config, ["N", "P", "K", "pH", "EC"], ["Less Fertile", "Fertile", "Highly Fertile"]
    )


def quick_config(**overrides):
    base = dict(
        seed=11,
        umap=UmapConfig(k=10, out_dim=2, epochs=40),
        sarn=pl.SarnSettings(epochs=40, learning_rate=0.1),
    )
    base.update(overrides)
    return pl.PipelineConfig(**base)


@pytest.fixture(scope="module")
def default_run():
    data = soil_data()
    config = quick_config()
    return data, config, pl.run(data, config)


class TestRun:
    def test_runs_all_stages_and_scores_well(self, default_run):
        _, _, artifacts = default_run
        assert artifacts.stages == [
            "split", "standardize", "umap", "lasso", "features", "sarn", "metrics",
        ]
        assert artifacts.metrics_report.accuracy >= 0.9
        assert set(artifacts.timings) == set(artifacts.stages)

    def test_deterministic_artifacts(self, default_run):
        data, config, first = default_run
        second = pl.run(data, config)
        assert first.metrics_report.accuracy == second.metrics_report.accuracy
        np.testing.assert_array_equal(
            first.embedding.coordinates, second.embedding.coordinates
        )
        for name, value in first.model.head_params().items():
            np.testing.assert_array_equal(value, getattr(second.model, name))
        np.testing.assert_array_equal(
            first.history.train_loss, second.history.train_loss
        )

    def test_no_test_set_leakage(self, default_run):
        data, config, baseline = default_run
        train, test = ds.stratified_split(
            data, ds.SplitSpec(config.train_fraction, config.seed + pl.SEED_SPLIT)
        )
        # perturb a feature of every test row; train rows untouched
        tampered_features = data.features.copy()
        test_rows = {tuple(row) for row in test.features}
        for i, row in enumerate(data.features):
            if tuple(row) in test_rows:
                tampered_features[i, 0] += 123.0
        tampered = ds.Dataset(
            tampered_features, data.feature_names, data.labels, data.class_names
        )
        other = pl.run(tampered, config)
        np.testing.assert_array_equal(
            other.standardization.means, baseline.standardization.means
        )
        np.testing.assert_array_equal(other.graph.edge_v, baseline.graph.edge_v)
        np.testing.assert_array_equal(
            other.lasso_path.coef_matrix, baseline.lasso_path.coef_matrix
        )
        for name, value in baseline.model.head_params().items():
            np.testing.assert_array_equal(getattr(other.model, name), value)

    def test_selected_only_ablation_skips_umap(self):
        data = soil_data(counts=(60, 30, 20), seed=3)
        config = quick_config(
            feature_mode="selected_only",
            lasso=pl.LassoSettings(selection=SelectionStrategy("top_k", k=5)),
            sarn=pl.SarnSettings(epochs=10),
        )
        artifacts = pl.run(data, config)
        assert "umap" not in artifacts.stages
        assert artifacts.graph is None
        assert artifacts.model.feature_width == 5

    def test_embedding_only_skips_lasso(self):
        data = soil_data(counts=(60, 30, 20), seed=4)
        config = quick_config(
            feature_mode="embedding_only",
            umap=UmapConfig(k=8, out_dim=3, epochs=30),
            sarn=pl.SarnSettings(epochs=10, kernel_size=2),
        )
        artifacts = pl.run(data, config)
        assert "lasso" not in artifacts.stages
        assert artifacts.lasso_path is None
        assert artifacts.model.feature_width == 3

    def test_oversample_balances_training_classes(self):
        data = soil_data(counts=(80, 30, 20), seed=5)
        config = quick_config(balance="oversample", sarn=pl.SarnSettings(epochs=5))
        artifacts = pl.run(data, config)
        counts = np.bincount(artifacts.train_labels)
        assert counts.min() == counts.max()
        assert "balance" in artifacts.stages

    def test_default_width_combines_selection_and_embedding(self, default_run):
        _, config, artifacts = default_run
        expect = len(artifacts.selected) + config.umap.out_dim
        assert artifacts.model.feature_width == expect

    def test_stage_errors_name_the_stage(self):
        data = soil_data(counts=(6, 3, 1), seed=6)  # one row cannot be split
        with pytest.raises(StageError, match="split") as info:
            pl.run(data, quick_config(umap=UmapConfig(k=15, epochs=5)))
        assert info.value.stage == "split"


@pytest.fixture
def stage_calls(monkeypatch):
    """Record calls to each stage's entry function (they still run)."""
    calls = []
    entries = [
        (ds, "stratified_split"), (ds, "standardize"), (um, "embed"),
        (ls, "fit_path"), (nw, "train"),
    ]
    for module, name in entries:
        original = getattr(module, name)

        def recorder(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorder)
    return calls


class TestFailFast:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(feature_mode="embedding_only", umap=UmapConfig()), "umap.out_dim"),
            (
                dict(
                    feature_mode="selected_only",
                    lasso=pl.LassoSettings(selection=SelectionStrategy("top_k", k=2)),
                ),
                "lasso.selection.k",
            ),
            # positions = width 7 (top_k 5 + out_dim 2) - kernel_size 3 + 1 = 5
            (dict(sarn=pl.SarnSettings(mask_len=9)), "sarn: mask_len must lie in"),
            (
                dict(lasso=pl.LassoSettings(selection=SelectionStrategy("top_k", k=9))),
                "'lasso.selection.k' 9 exceeds the feature count 5",
            ),
        ],
    )
    def test_rejected_before_the_first_stage(self, stage_calls, overrides, message):
        data = soil_data(counts=(30, 15, 10), seed=8)
        with pytest.raises(ConfigError, match=message) as info:
            pl.run(data, quick_config(**overrides))
        assert stage_calls == []
        if message in ("umap.out_dim", "lasso.selection.k"):  # the width checks
            assert "'sarn.kernel_size'" in str(info.value)

    def test_narrow_lasso_selection_fails_in_features_stage(self, stage_calls):
        data = soil_data(counts=(30, 15, 10), seed=8)
        # the largest grid lambda keeps every coefficient at zero: width 0
        selection = SelectionStrategy("lambda_at", value=1e9)
        for sarn, key in (
            (pl.SarnSettings(), "sarn.kernel_size"),
            (pl.SarnSettings(loss_head=nw.SOFTMAX_REG), "sarn.loss_head"),
        ):
            config = quick_config(
                feature_mode="selected_only",
                lasso=pl.LassoSettings(selection=selection),
                sarn=sarn,
            )
            stage_calls.clear()
            with pytest.raises(StageError) as info:
                pl.run(data, config)
            assert info.value.stage == "features"
            assert "lasso.selection" in str(info.value)
            assert key in str(info.value)
            assert "fit_path" in stage_calls and "train" not in stage_calls


def test_test_row_embedding_failure_maps_to_umap_stage(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("embedding failed")

    monkeypatch.setattr(um, "transform", broken)
    data = soil_data(counts=(30, 15, 10), seed=8)
    with pytest.raises(StageError) as info:
        pl.run(data, quick_config(umap=UmapConfig(k=8, epochs=2)))
    assert info.value.stage == "umap"


def find_training_row(data, artifacts):
    """Index of a raw row whose standardized image is bitwise a training point."""
    std = ds.apply_standardization(data.features, artifacts.standardization)
    for idx in range(data.n_samples):
        member = np.flatnonzero(np.all(artifacts.graph.points == std[idx], axis=1))
        if member.size:
            return idx, int(member[0])
    raise AssertionError("no training row found")


class TestTransformNew:
    def test_training_row_maps_to_training_features(self, default_run):
        data, config, artifacts = default_run
        idx, member = find_training_row(data, artifacts)
        feats = pl.transform_new(artifacts, data.features[idx : idx + 1])
        expect = pl._assemble(
            artifacts.graph.points[member : member + 1],
            artifacts.embedding.coordinates[member : member + 1],
            artifacts.selected,
            config.feature_mode,
        )
        np.testing.assert_array_equal(feats, expect)

    def test_coincident_point_copies_embedding(self, default_run):
        data, _, artifacts = default_run
        idx, member = find_training_row(data, artifacts)
        feats = pl.transform_new(artifacts, data.features[idx : idx + 1])
        e = artifacts.embedding.coordinates.shape[1]
        np.testing.assert_array_equal(
            feats[0, -e:], artifacts.embedding.coordinates[member]
        )

    def test_batch_order_preserved(self, default_run):
        data, _, artifacts = default_run
        batch = data.features[:10]
        together = pl.transform_new(artifacts, batch)
        for r in range(10):
            single = pl.transform_new(artifacts, batch[r : r + 1])
            np.testing.assert_array_equal(together[r], single[0])

    def test_width_mismatch_rejected(self, default_run):
        _, _, artifacts = default_run
        with pytest.raises(ValueError):
            pl.transform_new(artifacts, np.zeros((1, 3)))

    def test_remote_point_stays_finite(self, default_run):
        _, _, artifacts = default_run
        far = np.full((1, 5), 1e9)
        feats = pl.transform_new(artifacts, far)
        assert np.all(np.isfinite(feats))


class TestArtifactsIO:
    def test_save_writes_all_nine_files(self, default_run, tmp_path):
        _, _, artifacts = default_run
        out = tmp_path / "artifacts"
        pl.save_artifacts(artifacts, str(out))
        assert sorted(p.name for p in out.iterdir()) == sorted(pl.ARTIFACT_FILES)

    def test_load_round_trip_predicts_identically(self, default_run, tmp_path):
        data, _, artifacts = default_run
        out = str(tmp_path / "artifacts")
        pl.save_artifacts(artifacts, out)
        loaded = pl.load_artifacts(out)
        feats_a = pl.transform_new(artifacts, data.features[:20])
        feats_b = pl.transform_new(loaded, data.features[:20])
        np.testing.assert_array_equal(feats_a, feats_b)
        probs_a, labels_a = nw.predict(artifacts.model, feats_a)
        probs_b, labels_b = nw.predict(loaded.model, feats_b)
        np.testing.assert_array_equal(probs_a, probs_b)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_reload_is_lossless(self, default_run, tmp_path):
        data, config, trained = default_run
        # sarn.epochs 0 records no history, so its history.csv is header-only
        untrained = pl.run(data, replace(config, sarn=replace(config.sarn, epochs=0)))
        assert len(trained.history) == 40 and len(untrained.history) == 0
        softmax_sarn = replace(config.sarn, loss_head=nw.SOFTMAX_REG)
        softmax = pl.run(data, replace(config, sarn=softmax_sarn))
        short_sarn = replace(config.sarn, epochs=5)
        # the two other feature modes: no UMAP (oversampled, as wide tables
        # are fitted), and no LASSO
        selected = pl.run(
            data,
            replace(config, feature_mode="selected_only", balance="oversample", sarn=short_sarn),
        )
        embedded = pl.run(
            data,
            replace(
                config,
                feature_mode="embedding_only",
                umap=replace(config.umap, out_dim=3),
                sarn=replace(short_sarn, kernel_size=2),
            ),
        )
        runs = (trained, untrained, softmax, selected, embedded)
        for run_no, artifacts in enumerate(runs):
            out = str(tmp_path / f"artifacts_{run_no}")
            pl.save_artifacts(artifacts, out)
            loaded = pl.load_artifacts(out)

            def same(a, b):
                assert a.dtype == b.dtype and a.shape == b.shape
                np.testing.assert_array_equal(a, b)

            uses_umap = artifacts.config.uses_umap
            assert (loaded.graph is None) == (loaded.embedding is None) == (not uses_umap)
            if uses_umap:
                for f in fields(um.NeighborGraph):
                    same(getattr(artifacts.graph, f.name), getattr(loaded.graph, f.name))
                same(artifacts.train_labels, loaded.train_labels)
                assert artifacts.embedding.epoch_losses.size == artifacts.config.umap.epochs
                for name in ("coordinates", "epoch_losses"):
                    same(getattr(artifacts.embedding, name), getattr(loaded.embedding, name))
                assert loaded.embedding.final_loss == artifacts.embedding.final_loss
            assert type(loaded.model) is type(artifacts.model)
            for name, value in artifacts.model.head_params().items():
                same(value, getattr(loaded.model, name))
            if loaded.model.head == nw.DKL_HEAD:
                assert loaded.model.mask_len == artifacts.model.mask_len
            assert (loaded.lasso_path is None) == (not artifacts.config.uses_lasso)
            if artifacts.config.uses_lasso:
                assert np.any(artifacts.lasso_path.intercepts != 0.0)
                for name in ("lambdas", "coef_matrix", "intercepts", "df", "mse", "converged"):
                    same(getattr(artifacts.lasso_path, name), getattr(loaded.lasso_path, name))
                assert loaded.selected == artifacts.selected
            for name in ("train_loss", "train_accuracy", "val_loss", "val_accuracy"):
                same(getattr(artifacts.history, name), getattr(loaded.history, name))
            X_new = data.features[:7]
            same(pl.transform_new(artifacts, X_new), pl.transform_new(loaded, X_new))

    def test_graph_json_holds_exactly_the_graph_fields(self, default_run, tmp_path):
        _, _, artifacts = default_run
        out = tmp_path / "artifacts"
        pl.save_artifacts(artifacts, str(out))
        doc = json.loads((out / "graph.json").read_text())
        assert set(doc) == {f.name for f in fields(um.NeighborGraph)}
        # the per-row k-NN lists stay inside build_graph
        assert set(doc) == {
            "points", "rho", "sigma", "sigma_converged", "edge_i", "edge_j", "edge_v",
        }

    def test_one_search_tree_per_loaded_directory(self, default_run, tmp_path, monkeypatch):
        data, _, artifacts = default_run
        out = str(tmp_path / "artifacts")
        pl.save_artifacts(artifacts, out)
        loaded = pl.load_artifacts(out)
        built, knn_index = [], um.knn_index

        def counted(points):
            built.append(points.shape)
            return knn_index(points)

        monkeypatch.setattr(um, "knn_index", counted)
        first = pl.transform_new(loaded, data.features[:9])
        second = pl.transform_new(loaded, data.features[:9])
        np.testing.assert_array_equal(first, second)
        assert built == [loaded.graph.points.shape]
        # the tree is a cache, not a field: save, load and equality ignore it
        assert [f.name for f in fields(pl.PipelineArtifacts)] == [
            "config", "feature_names", "class_names", "standardization", "train_labels",
            "graph", "embedding", "lasso_path", "ranking", "selected", "model",
            "history", "metrics_report", "timings",
        ]

    def test_metrics_json_deterministic_bytes(self, default_run, tmp_path):
        data, config, _ = default_run
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        pl.save_artifacts(pl.run(data, config), str(out_a))
        pl.save_artifacts(pl.run(data, config), str(out_b))
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def test_manifest_config_round_trips(self, default_run, tmp_path):
        _, config, artifacts = default_run
        out = tmp_path / "artifacts"
        pl.save_artifacts(artifacts, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        parsed = pipeline_config_from_dict(manifest["config"])
        assert parsed == config


class TestConfigDict:
    def test_round_trip_defaults(self):
        config = pl.PipelineConfig()
        assert pipeline_config_from_dict(ds.record_to_json(config)) == config

    def test_round_trip_custom(self):
        config = pl.PipelineConfig(
            seed=9,
            balance="oversample",
            feature_mode="embedding_only",
            umap=UmapConfig(k=7, out_dim=3, epochs=11),
            lasso=pl.LassoSettings(grid_count=25, selection=SelectionStrategy("min_mse")),
            sarn=pl.SarnSettings(kernel_size=2, loss_head=nw.SOFTMAX_REG),
        )
        assert pipeline_config_from_dict(ds.record_to_json(config)) == config
