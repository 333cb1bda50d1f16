import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ummaso import cli
from ummaso import dataset as ds
from ummaso import lasso as ls
from ummaso import pipeline as pl
from ummaso import umap as um
from ummaso.errors import DataFormatError
from ummaso.sarn import network as nw
from test_reruns import assert_same_artifacts

DATA_DIR = Path(__file__).parent / "data"

FAST_CONFIG = {
    "umap": {"k": 8, "epochs": 30},
    "sarn": {"epochs": 30, "learning_rate": 0.1},
}


# per JSON artifact, a key that `predict` cannot do without
REQUIRED_KEYS = {
    "standardization.json": "means",
    "graph.json": "sigma",
    "selection.json": "order",
    "model.json": "w_out",
    "metrics.json": "kappa",
    "manifest.json": "config",
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus one fitted artifacts directory."""
    root = tmp_path_factory.mktemp("cli")
    data_csv = str(root / "data.csv")
    config_path = str(root / "config.json")
    (root / "config.json").write_text(json.dumps(FAST_CONFIG))
    artifacts = str(root / "artifacts")
    assert cli.main(["generate", "--per-class", "140,40,20", "--out", data_csv, "--seed", "5"]) == 0
    assert cli.main([
        "fit", "--data", data_csv, "--out", artifacts, "--seed", "11", "--config", config_path,
    ]) == 0
    return root, data_csv, artifacts, config_path


@pytest.fixture(scope="module")
def artifacts_by_head(workspace):
    """Fitted artifacts directories for both output heads."""
    root, data_csv, artifacts, _ = workspace
    config = dict(FAST_CONFIG, sarn=dict(FAST_CONFIG["sarn"], loss_head=nw.SOFTMAX_REG))
    (root / "softmax.json").write_text(json.dumps(config))
    softmax = str(root / "artifacts_softmax")
    assert cli.main([
        "fit", "--data", data_csv, "--out", softmax, "--seed", "11",
        "--config", str(root / "softmax.json"),
    ]) == 0
    return {nw.DKL_HEAD: artifacts, nw.SOFTMAX_REG: softmax}


class TestGenerate:
    def test_writes_requested_counts(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        code, stdout, _ = run_cli(
            capsys, "generate", "--per-class", "7,2,1", "--out", out, "--seed", "7"
        )
        assert code == 0
        assert stdout.strip() == "per_class_counts=7,2,1"
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "P", "K", "pH", "EC", "fertility"]
        assert len(rows) == 11

    def test_missing_out_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--per-class", "5,5")
        assert code == 2

    def test_unwritable_path_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--per-class", "2,2,2", "--out", "/nonexistent/dir/x.csv"
        )
        assert code == 3
        assert err.strip()

    def test_count_center_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--per-class", "5,5", "--out", "/tmp/x.csv")
        assert code == 2
        assert "class centers" in err


class TestFit:
    def test_artifacts_directory_complete(self, workspace):
        _, _, artifacts, _ = workspace
        import os

        assert sorted(os.listdir(artifacts)) == sorted(pl.ARTIFACT_FILES)

    def test_metrics_summary_line(self, workspace, tmp_path, capsys):
        _, data_csv, _, config_path = workspace
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(
            capsys, "fit", "--data", data_csv, "--out", out, "--seed", "11",
            "--config", config_path,
        )
        assert code == 0
        parts = dict(p.split("=") for p in stdout.split())
        assert set(parts) == {"accuracy", "precision", "recall", "kappa"}
        for v in parts.values():
            assert len(v.split(".")[1]) == 4

    def test_repeat_run_byte_identical_metrics(self, workspace, tmp_path):
        root, data_csv, artifacts, config_path = workspace
        out2 = str(tmp_path / "again")
        assert cli.main([
            "fit", "--data", data_csv, "--out", out2, "--seed", "11",
            "--config", config_path,
        ]) == 0
        assert_same_artifacts(artifacts, out2)

    def test_paths_may_come_from_the_config_file(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        out = str(tmp_path / "from_config")
        config = dict(FAST_CONFIG, data=data_csv, out=out, seed=11)
        config["sarn"] = dict(FAST_CONFIG["sarn"], epochs=5)
        path = tmp_path / "full.json"
        path.write_text(json.dumps(config))
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(path))
        assert code == 0
        assert "accuracy=" in stdout

    def test_config_that_cannot_run_exits_2_before_fitting(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        config = tmp_path / "narrow.json"
        config.write_text(json.dumps({"feature_mode": "embedding_only"}))
        out = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "fit", "--data", data_csv, "--out", str(out), "--config", str(config)
        )
        assert code == 2 and stdout == ""
        assert "sarn.kernel_size" in err and "umap.out_dim" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"feature_mode": "embedding_only"},  # width 2, the default umap.out_dim
            {"feature_mode": "selected_only", "lasso": {"selection": {"strategy": "top_k", "k": 2}}},
            {"sarn": {"mask_len": 50}},
        ],
    )
    def test_softmax_reg_runs_without_the_dkl_kernel_checks(
        self, workspace, tmp_path, capsys, config
    ):
        # each config is narrower than sarn.kernel_size 3 or has more mask
        # positions than the kernel leaves; softmax_reg uses neither
        _, data_csv, _, _ = workspace
        doc = dict(FAST_CONFIG, **config)
        doc["sarn"] = dict(FAST_CONFIG["sarn"], **config.get("sarn", {}), loss_head=nw.SOFTMAX_REG)
        path = tmp_path / "softmax.json"
        path.write_text(json.dumps(doc))
        first, again = tmp_path / "a", tmp_path / "b"
        for out in (first, again):
            code, stdout, err = run_cli(
                capsys, "fit", "--data", data_csv, "--out", str(out), "--seed", "11",
                "--config", str(path),
            )
            assert code == 0, err
            assert "accuracy=" in stdout
        assert_same_artifacts(first, again)
        assert list(json.loads((first / "model.json").read_text())) == ["theta"]
        code, _, err = run_cli(
            capsys, "predict", "--artifacts", str(first), "--data", data_csv,
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 0, err

    def test_negative_seed_exits_2_naming_the_flag(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        out = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "fit", "--data", data_csv, "--out", str(out), "--seed", "-200"
        )
        assert code == 2 and stdout == ""
        assert "--seed" in err and "stage 'split'" not in err
        assert not out.exists()

    def test_top_k_above_feature_count_exits_2_before_fitting(
        self, workspace, tmp_path, capsys
    ):
        _, data_csv, _, _ = workspace  # five feature columns
        config = tmp_path / "wide_k.json"
        config.write_text(json.dumps({"lasso": {"selection": {"strategy": "top_k", "k": 7}}}))
        for command in ("fit", "select"):
            out = tmp_path / command
            code, stdout, err = run_cli(
                capsys, command, "--data", data_csv, "--out", str(out), "--config", str(config)
            )
            assert code == 2 and stdout == "", command
            assert err == "error: 'lasso.selection.k' 7 exceeds the feature count 5\n", command
            assert not out.exists(), command

    @pytest.mark.parametrize(
        "umap, error, command",
        [
            # fit splits 40,12,8 rows into 32 + 10 + 6 = 48 training rows
            ({"k": 48}, "'umap.k' 48 must be below the training-row count 48", "fit"),
            (
                {"out_dim": 47},
                "'umap.out_dim' 47 + 1 must be below the training-row count 48",
                "fit",
            ),
            # reduce embeds all 60 rows
            ({"k": 60}, "'umap.k' 60 must be below the training-row count 60", "reduce"),
            (
                {"out_dim": 59},
                "'umap.out_dim' 59 + 1 must be below the training-row count 60",
                "reduce",
            ),
        ],
    )
    def test_umap_graph_larger_than_the_training_rows_exits_2_before_any_stage(
        self, tmp_path, capsys, monkeypatch, umap, error, command
    ):
        data_csv = str(tmp_path / "small.csv")
        assert cli.main([
            "generate", "--per-class", "40,12,8", "--noise-std", "25", "--out", data_csv,
            "--seed", "3",
        ]) == 0
        calls = []
        for name in ("stratified_split", "standardize"):
            real = getattr(ds, name)
            spy = lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
            monkeypatch.setattr(ds, name, spy)
        config = tmp_path / "big_umap.json"
        config.write_text(json.dumps({"umap": umap}))
        out = tmp_path / "o"
        capsys.readouterr()
        code, stdout, err = run_cli(
            capsys, command, "--data", data_csv, "--out", str(out), "--config", str(config)
        )
        assert code == 2 and stdout == ""
        assert err == f"error: {error}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("sarn", [{"rank": 9}, {"dropout_rate": 1.0}, {"mask_len": 0}])
    @pytest.mark.parametrize(
        "selection", [{"strategy": "min_mse"}, {"strategy": "lambda_at", "value": 0.01}]
    )
    def test_bad_sarn_value_exits_2_before_any_stage(
        self, workspace, tmp_path, capsys, monkeypatch, selection, sarn
    ):
        # a lambda_at/min_mse width is known only after LASSO, but these checks
        # need no width, so the config is rejected while it is parsed
        _, data_csv, _, _ = workspace
        calls = []
        split = ds.stratified_split
        monkeypatch.setattr(
            ds, "stratified_split", lambda *a, **k: calls.append("split") or split(*a, **k)
        )
        config = tmp_path / "bad_sarn.json"
        config.write_text(json.dumps(dict(FAST_CONFIG, lasso={"selection": selection}, sarn=sarn)))
        out = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "fit", "--data", data_csv, "--out", str(out), "--config", str(config)
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: sarn: {next(iter(sarn))} must ")
        assert calls == []
        assert not out.exists()

    def test_non_finite_config_number_exits_2_before_any_stage(self, workspace, tmp_path, capsys):
        # json reads NaN, which passes every range check
        _, data_csv, _, _ = workspace
        config = tmp_path / "nan.json"
        config.write_text('{"umap": {"a": NaN}}')
        out = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "fit", "--data", data_csv, "--out", str(out), "--config", str(config)
        )
        assert code == 2 and stdout == ""
        assert err == "error: 'umap.a' must be a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{", "[]"])
    def test_config_that_is_not_a_json_object_exits_2_naming_it(self, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        code, _, err = run_cli(
            capsys, "fit", "--data", "x.csv", "--out", "y", "--config", str(config)
        )
        assert code == 2
        assert err.startswith(f"error: {config}: ")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"sarn": {"epoch": 10}}))
        code, _, err = run_cli(
            capsys, "fit", "--data", "x.csv", "--out", "y", "--config", str(config)
        )
        assert code == 2
        assert "sarn.epoch" in err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")
        )
        assert code == 3

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("under", ["", "/sub"], ids=["at", "under"])
    def test_output_path_at_or_under_a_file_exits_3_before_any_stage(
        self, workspace, tmp_path, capsys, monkeypatch, source, under
    ):
        _, data_csv, _, _ = workspace
        monkeypatch.setattr(pl, "run", lambda *a, **k: pytest.fail("a stage ran"))
        blocker = tmp_path / "notadir"
        blocker.write_text("x")
        out = f"{blocker}{under}"
        config = tmp_path / "out.json"
        config.write_text(json.dumps({"out": out} if source == "config" else {}))
        argv = ["fit", "--data", data_csv, "--config", str(config)]
        code, stdout, err = run_cli(capsys, *argv, *(["--out", out] if source == "flag" else []))
        assert code == 3 and stdout == ""
        assert err == (
            f"error: output directory '{out}' cannot be made: '{blocker}' is not a directory\n"
        )
        assert blocker.read_text() == "x"

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,fertility\n1,zzz,0\n")
        code, _, err = run_cli(
            capsys, "fit", "--data", str(bad), "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "row 2" in err


# (`generate` flags, `fit` flags) of a small noisy dataset, and of the README
# quickstart's data fitted at the default master seed
SMALL_FIT = ["--per-class", "40,12,8", "--noise-std", "25", "--seed", "3"], ["--seed", "1"]
QUICKSTART_FIT = ["--per-class", "150,40,20", "--seed", "7"], []


class TestNumericalAbort:
    @pytest.mark.parametrize(
        "sarn, error, flags",
        [
            ({"learning_rate": 1e6}, "non-finite attention weights", SMALL_FIT),
            ({"reg_lambda": 1e300}, "non-finite values in convolution output", SMALL_FIT),
            ({"loss_head": "softmax_reg", "learning_rate": 1e6},
             "non-finite loss at epoch 38, batch 0", SMALL_FIT),
            ({"loss_head": "softmax_reg", "reg_lambda": 1e300},
             "non-finite loss at epoch 1, batch 0", SMALL_FIT),
            ({"loss_head": "softmax_reg", "learning_rate": 1e6},
             "non-finite loss at epoch 12, batch 3", QUICKSTART_FIT),
        ],
        ids=["rate", "reg", "softmax_rate", "softmax_reg", "softmax_rate_quickstart"],
    )
    def test_diverging_sarn_prints_only_the_error_line(
        self, sarn, error, flags, tmp_path, capsys
    ):
        # a separate process, so that numpy's RuntimeWarnings would reach the
        # stderr a user sees rather than pytest's warning capture
        generate_flags, fit_flags = flags
        data = str(tmp_path / "data.csv")
        assert cli.main(["generate", *generate_flags, "--out", data]) == 0
        capsys.readouterr()
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({"sarn": sarn}))
        env = {k: v for k, v in os.environ.items()
               if k not in ("UMMASO_LOG", "PYTHONWARNINGS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from ummaso import cli; sys.exit(cli.main())",
             "fit", "--data", data, "--out", str(tmp_path / "out"), *fit_flags,
             "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert lines == [f"error: stage 'sarn' failed: {error}"]


class TestPredict:
    def test_reproduces_in_process_predictions(self, workspace, tmp_path, capsys):
        _, data_csv, artifacts, _ = workspace
        out = str(tmp_path / "preds.csv")
        code, stdout, _ = run_cli(
            capsys, "predict", "--artifacts", artifacts, "--data", data_csv, "--out", out
        )
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        loaded = pl.load_artifacts(artifacts)
        from ummaso.dataset import load_csv

        data = load_csv(data_csv)
        feats = pl.transform_new(loaded, data.features)
        probs, labels = nw.predict(loaded.model, feats)
        assert len(rows) == probs.shape[0]
        for r, row in enumerate(rows):
            assert int(row["predicted_label"]) == labels[r]
            got = [float(row[f"p_class_{c}"]) for c in range(probs.shape[1])]
            np.testing.assert_array_equal(got, probs[r])

    def test_probability_rows_sum_to_one(self, workspace, tmp_path):
        _, data_csv, artifacts, _ = workspace
        out = str(tmp_path / "preds.csv")
        assert cli.main(["predict", "--artifacts", artifacts, "--data", data_csv, "--out", out]) == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                total = sum(float(v) for k, v in row.items() if k.startswith("p_class_"))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_missing_feature_column_exits_2(self, workspace, tmp_path, capsys):
        _, _, artifacts, _ = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("N,P,K,pH\n1,2,3,4\n")
        code, _, err = run_cli(
            capsys, "predict", "--artifacts", artifacts, "--data", str(bad),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "EC" in err


    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("head", [nw.DKL_HEAD, nw.SOFTMAX_REG])
    def test_non_finite_feature_exits_2_naming_the_cell(
        self, artifacts_by_head, tmp_path, capsys, head, cell
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"N,P,K,pH,EC\n40,20,15,5.2,0.35\n75,{cell},35,6.4,0.7\n")
        out = tmp_path / "p.csv"
        code, stdout, err = run_cli(
            capsys, "predict", "--artifacts", artifacts_by_head[head], "--data", str(bad),
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert f"{bad}: non-finite value '{cell}' at row 3, column 2" in err
        assert not out.exists()

    def test_overflowing_feature_value_predicts(self, workspace, tmp_path, capsys):
        # 1e300 overflows every squared distance to the training points
        _, _, artifacts, _ = workspace
        data = tmp_path / "extreme.csv"
        data.write_text("N,P,K,pH,EC\n40,20,15,5.2,0.35\n75,1e300,35,6.4,0.7\n")
        out = tmp_path / "p.csv"
        code, _, _ = run_cli(
            capsys, "predict", "--artifacts", artifacts, "--data", str(data), "--out", str(out)
        )
        assert code == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 2

    @pytest.mark.parametrize("damage", ["truncated", "array root"])
    @pytest.mark.parametrize("name", [n for n in pl.ARTIFACT_FILES if n.endswith(".json")])
    def test_corrupt_json_artifact_exits_2_naming_the_file(
        self, workspace, tmp_path, capsys, name, damage
    ):
        _, data_csv, artifacts, _ = workspace
        damaged = tmp_path / "artifacts"
        shutil.copytree(artifacts, damaged)
        target = damaged / name
        text = target.read_text()
        target.write_text(text[: len(text) // 2] if damage == "truncated" else "[1]")
        code, stdout, err = run_cli(
            capsys, "predict", "--artifacts", str(damaged), "--data", data_csv,
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {target}: ")

    @pytest.mark.parametrize("name", [n for n in pl.ARTIFACT_FILES if n.endswith(".json")])
    def test_json_artifact_missing_a_key_exits_2_naming_file_and_key(
        self, workspace, tmp_path, capsys, name
    ):
        key = REQUIRED_KEYS[name]
        _, data_csv, artifacts, _ = workspace
        damaged = tmp_path / "artifacts"
        shutil.copytree(artifacts, damaged)
        target = damaged / name
        doc = json.loads(target.read_text())
        del doc[key]
        target.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            capsys, "predict", "--artifacts", str(damaged), "--data", data_csv,
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2 and stdout == ""
        assert err == f"error: {target}: missing key '{key}'\n"

    @pytest.mark.parametrize(
        "name, key, damage",
        [
            ("selection.json", "selected_indices", lambda v: [-1] + v[1:]),
            ("selection.json", "selected_indices", lambda v: v[:1] * 2 + v[2:]),
            ("graph.json", "sigma", lambda v: [-1.0] * len(v)),
            ("manifest.json", "class_names", lambda v: v[:2]),
            ("model.json", "w_out", lambda v: np.transpose(v).tolist()),
            ("model.json", "v_out", lambda v: v[:3]),
        ],
        ids=["index_-1", "index_twice", "sigma_-1", "two_class_names", "w_out_transposed",
             "v_out_3_rows"],
    )
    def test_damaged_artifact_exits_2_naming_the_file(
        self, workspace, tmp_path, capsys, name, key, damage
    ):
        _, data_csv, artifacts, _ = workspace
        damaged = tmp_path / "artifacts"
        shutil.copytree(artifacts, damaged)
        target = damaged / name
        doc = json.loads(target.read_text())
        doc[key] = damage(doc[key])
        target.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code, stdout, err = run_cli(
            capsys, "predict", "--artifacts", str(damaged), "--data", data_csv, "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_version_4_directory_exits_2_asking_for_a_refit(self, workspace, tmp_path, capsys):
        _, data_csv, artifacts, _ = workspace
        old = tmp_path / "artifacts"
        shutil.copytree(artifacts, old)
        manifest = json.loads((old / "manifest.json").read_text())
        # a version 4 config echo holds umap keys the current schema rejects, so
        # the version check must come before the config is parsed
        manifest["manifest_version"] = 4
        manifest["config"]["umap"].update(eps=0.001, sigma_tol=1e-5, sigma_max_iters=64)
        (old / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=r"manifest_version 4 is not 7; refit"):
            pl.load_artifacts(str(old))
        code, stdout, err = run_cli(
            capsys, "predict", "--artifacts", str(old), "--data", data_csv,
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2 and stdout == ""
        assert "manifest_version 4" in err and "refit" in err

    def test_header_only_csv_exits_2(self, workspace, tmp_path, capsys):
        _, _, artifacts, _ = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("N,P,K,pH,EC,fertility\n")
        code, _, err = run_cli(
            capsys, "predict", "--artifacts", artifacts, "--data", str(empty),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "zero data rows" in err


class TestEvaluate:
    def test_perfect_agreement_prints_unit_accuracy(self, workspace, tmp_path, capsys):
        root, data_csv, artifacts, _ = workspace
        preds = str(tmp_path / "preds.csv")
        from ummaso.dataset import load_csv

        data = load_csv(data_csv)
        with open(preds, "w") as fh:
            fh.write("row_index,predicted_label\n")
            for r, label in enumerate(data.labels):
                fh.write(f"{r},{int(label)}\n")
        out = str(tmp_path / "metrics.json")
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--predictions", preds, "--data", data_csv, "--out", out
        )
        assert code == 0
        assert "accuracy=1.0000" in stdout
        doc = json.loads(open(out).read())
        assert doc["accuracy"] == 1.0

    def test_optional_bar_chart_csv(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        preds = str(tmp_path / "preds.csv")
        from ummaso.dataset import load_csv

        data = load_csv(data_csv)
        with open(preds, "w") as fh:
            fh.write("row_index,predicted_label\n")
            for r, label in enumerate(data.labels):
                fh.write(f"{r},{int(label)}\n")
        chart = tmp_path / "metrics.csv"
        code, _, _ = run_cli(
            capsys, "evaluate", "--predictions", preds, "--data", data_csv,
            "--out", str(tmp_path / "m.json"), "--csv", str(chart),
        )
        assert code == 0
        lines = chart.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == "accuracy,1.0"

    def test_row_count_mismatch_exits_2(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        preds = tmp_path / "preds.csv"
        preds.write_text("row_index,predicted_label\n0,1\n")
        code, _, err = run_cli(
            capsys, "evaluate", "--predictions", str(preds), "--data", data_csv,
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2


    def test_negative_predicted_label_names_file_and_row(self, workspace, tmp_path, capsys):
        _, data_csv, _, _ = workspace
        from ummaso.dataset import load_csv

        labels = [int(v) for v in load_csv(data_csv).labels]
        labels[1] = -1
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "row_index,predicted_label\n" + "".join(f"{r},{v}\n" for r, v in enumerate(labels))
        )
        code, _, err = run_cli(
            capsys, "evaluate", "--predictions", str(preds), "--data", data_csv,
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert f"{preds}: bad predicted_label at row 3" in err

    @pytest.mark.parametrize("label", ["3", "6000", "1.5"])
    def test_label_outside_the_scored_classes_exits_2(self, workspace, tmp_path, capsys, label):
        # the data holds classes 0-2, and the file has no p_class_* column that
        # adds more, so a label of 3 or above names no class the scores cover
        _, data_csv, _, _ = workspace
        labels = [str(int(v)) for v in ds.load_csv(data_csv).labels]
        labels[4] = label
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "row_index,predicted_label\n" + "".join(f"{r},{v}\n" for r, v in enumerate(labels))
        )
        out = tmp_path / "m.json"
        code, stdout, err = run_cli(
            capsys, "evaluate", "--predictions", str(preds), "--data", data_csv,
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err == f"error: {preds}: bad predicted_label at row 6\n"
        assert not out.exists()

    def test_probability_columns_add_scored_classes(self, workspace, tmp_path, capsys):
        # a model's class the data lacks: predict writes its p_class_3 column
        _, data_csv, _, _ = workspace
        labels = [int(v) for v in ds.load_csv(data_csv).labels]
        labels[0] = 3
        probs = ",".join(["0.25"] * 4)
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "row_index,p_class_0,p_class_1,p_class_2,p_class_3,predicted_label\n"
            + "".join(f"{r},{probs},{v}\n" for r, v in enumerate(labels))
        )
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "evaluate", "--predictions", str(preds), "--data", data_csv,
            "--out", str(out),
        )
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert len(doc["confusion"]) == 4
        assert doc["empty_recall_classes"] == [3]

    def test_label_column_comes_from_the_config(self, tmp_path, capsys):
        config = tmp_path / "klass.json"
        config.write_text(json.dumps({"label_column": "klass"}))
        data_csv = str(tmp_path / "klass.csv")
        code, _, _ = run_cli(
            capsys, "generate", "--per-class", "4,3,2", "--out", data_csv, "--config", str(config)
        )
        assert code == 0
        header = Path(data_csv).read_text().splitlines()[0]
        assert header == "N,P,K,pH,EC,klass"
        preds = tmp_path / "preds.csv"
        labels = [0] * 4 + [1] * 3 + [2] * 2
        preds.write_text(
            "row_index,predicted_label\n" + "".join(f"{r},{v}\n" for r, v in enumerate(labels))
        )
        args = ["evaluate", "--predictions", str(preds), "--data", data_csv]
        code, _, err = run_cli(capsys, *args, "--out", str(tmp_path / "m.json"))
        assert code == 2 and "missing label column 'fertility'" in err
        code, stdout, _ = run_cli(
            capsys, *args, "--out", str(tmp_path / "m.json"), "--config", str(config)
        )
        assert code == 0
        assert "accuracy=1.0000" in stdout


class TestReduceSelect:
    def test_reduce_emits_three_column_embedding(self, workspace, tmp_path, capsys):
        _, data_csv, _, config_path = workspace
        out = str(tmp_path / "embedding.csv")
        code, stdout, _ = run_cli(
            capsys, "reduce", "--data", data_csv, "--out", out, "--seed", "3",
            "--config", config_path,
        )
        assert code == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["dim_0", "dim_1", "label"]

    def test_select_ranking_puts_never_last(self, tmp_path, capsys):
        # the constant "flat" column never enters the path
        out = tmp_path / "sel"
        data = str(DATA_DIR / "lasso_select.csv")
        code, _, err = run_cli(capsys, "select", "--data", data, "--out", str(out))
        assert code == 0, err
        doc = json.loads((out / "ranking.json").read_text())
        never = [j for j, v in enumerate(doc["entry_lambdas"]) if v is None]
        assert never == [doc["names"].index("flat")]
        assert doc["order"][-1] == never[0]

    def test_ranking_files_match_stored_bytes(self, tmp_path, capsys):
        # select and fit write one ranking record; "flat" is constant, so its
        # entry lambda is null
        data = DATA_DIR / "lasso_select.csv"
        selection = {"strategy": "top_k", "k": 3}
        select_cfg = tmp_path / "select.json"
        select_cfg.write_text(json.dumps({"lasso": {"selection": selection}}))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({
            "feature_mode": "selected_only", "lasso": {"selection": selection},
            "sarn": {"epochs": 1},
        }))
        sel, fit = tmp_path / "sel", tmp_path / "fit"
        assert cli.main(["select", "--data", str(data), "--out", str(sel),
                         "--config", str(select_cfg)]) == 0
        assert cli.main(["fit", "--data", str(data), "--out", str(fit), "--seed", "4",
                         "--config", str(fit_cfg)]) == 0
        capsys.readouterr()
        expected = (DATA_DIR / "lasso_select_ranking.json").read_bytes()
        assert (sel / "ranking.json").read_bytes() == expected
        expected = (DATA_DIR / "lasso_select_selection.json").read_bytes()
        assert (fit / "selection.json").read_bytes() == expected

    @pytest.mark.parametrize(
        "command, module, first_stage, out, error",
        [
            ("reduce", um, "embed", "notadir/emb.csv",
             "output file '{out}' cannot be written: '{parent}' is not a directory"),
            ("reduce", um, "embed", "missing_dir/emb.csv",
             "output file '{out}' cannot be written: '{parent}' does not exist"),
            ("select", ls, "fit_selection", "notadir/sel",
             "output directory '{out}' cannot be made: '{parent}' is not a directory"),
            ("predict", pl, "load_artifacts", "notadir/p.csv",
             "output file '{out}' cannot be written: '{parent}' is not a directory"),
        ],
        ids=["reduce", "reduce_missing_dir", "select", "predict"],
    )
    def test_unwritable_output_exits_3_before_the_first_stage(
        self, workspace, tmp_path, capsys, monkeypatch, command, module, first_stage, out, error
    ):
        _, data_csv, artifacts, _ = workspace
        monkeypatch.setattr(module, first_stage, lambda *a, **k: pytest.fail("a stage ran"))
        (tmp_path / "notadir").write_text("x")
        out = str(tmp_path / out)
        argv = [command, "--data", data_csv, "--out", out]
        if command == "predict":
            argv += ["--artifacts", artifacts]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3 and stdout == ""
        assert err == "error: " + error.format(out=out, parent=os.path.dirname(out)) + "\n"
        assert os.listdir(tmp_path) == ["notadir"]
        assert (tmp_path / "notadir").read_text() == "x"


class TestUsability:
    def test_version_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0
        assert stdout.strip().split()[-1].count(".") == 2

    @pytest.mark.parametrize(
        "command", ["generate", "fit", "predict", "evaluate", "reduce", "select"]
    )
    def test_help_per_subcommand(self, command, capsys):
        code, stdout, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "usage" in stdout

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


class TestFuzzLite:
    def test_malformed_inputs_never_crash(self, tmp_path, capsys):
        rng = np.random.default_rng(99)
        alphabet = list("abc,01\n\r\"'x;\t .-")
        for case in range(60):
            blob = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 120))))
            path = tmp_path / f"fuzz_{case}.csv"
            path.write_text(blob)
            code = cli.main(
                ["fit", "--data", str(path), "--out", str(tmp_path / f"out_{case}")]
            )
            err = capsys.readouterr().err
            assert code in (2, 3, 4)
            assert err.strip()
