"""Whole-directory reruns through `cli.main`: two fits with one seed and one
config write the same files, byte for byte (`manifest.json` too, once its
stage timings are dropped), and predict the same bytes; a reloaded directory
re-saves every file byte for byte; a 12,800-row graph calibrates every
bandwidth; and a row's predicted label does not depend on the rows predicted
with it."""

import csv
import json
import logging
from pathlib import Path

import pytest

from ummaso import cli
from ummaso import pipeline as pl

# name: (data file, fit config); every fit runs with --seed 11
RERUNS = {
    "quickstart": ("soil.csv", None),
    # softmax_reg has no convolution, so it fits the 2-wide default embedding
    # that the dkl_head kernel (size 3) cannot
    "softmax_embedding_only": (
        "soil.csv", {"feature_mode": "embedding_only", "sarn": {"loss_head": "softmax_reg"}}
    ),
    # 3,200 training rows: a larger graph for the seeded ARPACK spectral init
    "short_3200": ("soil_4k.csv", {"umap": {"epochs": 5}, "sarn": {"epochs": 2}}),
    # the wide_select benchmark's feature mode: no graph.json or embedding.csv
    "selected_only_oversample": (
        "soil.csv", {"feature_mode": "selected_only", "balance": "oversample"}
    ),
    # masked and rescaled attention scores on top of the collapsed convolution
    "masked_dropout": ("soil.csv", {"sarn": {"mask_len": 3, "dropout_rate": 0.3}}),
    # oversampled copies tie at the k-th neighbour distance, so the k-d tree
    # search queries some rows again with more candidates
    "oversample_umap": ("soil.csv", {"balance": "oversample"}),
    # most rows tie at the k-th neighbour distance, and the search widens their
    # query from 24 to 96 to 384 candidates before they settle
    "integer_valued": (
        "int.csv", {"balance": "oversample", "umap": {"epochs": 5}, "sarn": {"epochs": 2}}
    ),
}


def assert_same_artifacts(a, b):
    """Artifacts directories `a` and `b` hold the same file names, every file
    but manifest.json is equal byte for byte, and the two manifests are equal
    once their stage timings are dropped."""
    a, b = Path(a), Path(b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
    for manifest in manifests:
        del manifest["timings"]
    assert manifests[0] == manifests[1]


def fit(data_csv, out, config=None):
    argv = ["fit", "--data", str(data_csv), "--out", str(out), "--seed", "11"]
    if config is not None:
        path = Path(out).with_suffix(".json")
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert cli.main(argv) == 0


def predict(artifacts, data_csv, out):
    assert cli.main([
        "predict", "--artifacts", str(artifacts), "--data", str(data_csv), "--out", str(out)
    ]) == 0
    with open(out) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun_data")
    for name, per_class in (("soil.csv", "150,40,20"), ("soil_4k.csv", "2800,800,400"),
                            ("soil_1k.csv", "700,200,100")):
        assert cli.main(["generate", "--per-class", per_class, "--out", str(root / name),
                         "--seed", "7"]) == 0
    # soil features divided by 20 and rounded to integers
    with open(root / "soil_1k.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(root / "int.csv", "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([round(float(v) / 20) for v in row[:-1]] + row[-1:] for row in rows)
    return root


@pytest.fixture(scope="module")
def fitted(data_dir, tmp_path_factory):
    """fitted(name): the data CSV and the two artifacts directories of the
    rerun `name`, each fitted once per module."""
    root = tmp_path_factory.mktemp("reruns")
    cache = {}

    def get(name):
        if name not in cache:
            data_name, config = RERUNS[name]
            dirs = root / f"{name}_a", root / f"{name}_b"
            for out in dirs:
                fit(data_dir / data_name, out, config)
            cache[name] = (data_dir / data_name, *dirs)
        return cache[name]

    return get


@pytest.mark.parametrize("name", RERUNS)
def test_two_fits_write_and_predict_the_same_bytes(fitted, name, tmp_path):
    data_csv, a, b = fitted(name)
    assert_same_artifacts(a, b)
    predict(a, data_csv, tmp_path / "a.csv")
    predict(b, data_csv, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("name", RERUNS)
def test_a_reloaded_directory_re_saves_every_byte(fitted, name, tmp_path):
    _, a, _ = fitted(name)
    pl.save_artifacts(pl.load_artifacts(str(a)), str(tmp_path))
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for file_name in names:
        assert (a / file_name).read_bytes() == (tmp_path / file_name).read_bytes(), file_name


def test_row_label_does_not_depend_on_the_batch(fitted, tmp_path):
    # the 7 least confident rows and the first row of each true class,
    # predicted alone in file order, get the labels the whole file gave them
    data_csv, artifacts, _ = fitted("quickstart")
    whole = predict(artifacts, data_csv, tmp_path / "whole.csv")
    lines = data_csv.read_text().splitlines()
    with open(data_csv) as fh:
        truth = [row["fertility"] for row in csv.DictReader(fh)]
    top = [max(float(v) for k, v in p.items() if k.startswith("p_class_")) for p in whole]
    rows = set(sorted(range(len(whole)), key=top.__getitem__)[:7])
    rows = sorted(rows | {truth.index(c) for c in set(truth)})
    assert {truth[i] for i in rows} == {"0", "1", "2"}
    subset = tmp_path / "subset.csv"
    subset.write_text("\n".join([lines[0]] + [lines[i + 1] for i in rows]) + "\n")
    labels = [p["predicted_label"] for p in predict(artifacts, subset, tmp_path / "sub.csv")]
    assert labels == [whole[i]["predicted_label"] for i in rows]
    assert set(labels) == {"0", "1", "2"}


def test_a_12800_row_graph_calibrates_every_bandwidth(tmp_path, caplog):
    # 16,000 rows, 12,800 of them training rows: the batched sigma bisection
    # must converge on every row of a graph this size
    data_csv = tmp_path / "soil_16k.csv"
    assert cli.main(["generate", "--per-class", "11200,3200,1600", "--out", str(data_csv),
                     "--seed", "7"]) == 0
    caplog.set_level(logging.DEBUG, logger="ummaso.umap")
    fit(data_csv, tmp_path / "artifacts", {"umap": {"epochs": 2}, "sarn": {"epochs": 1}})
    graph_lines = [r.getMessage() for r in caplog.records if "umap graph" in r.getMessage()]
    assert len(graph_lines) == 1
    assert graph_lines[0].startswith("umap graph: n=12800, unconverged sigmas 0, ")
    assert len(predict(tmp_path / "artifacts", data_csv, tmp_path / "p.csv")) == 16000
