import json
from dataclasses import fields

import numpy as np
import pytest

from ummaso import dataset as ds
from ummaso import lasso as ls
from ummaso import metrics as mt
from ummaso import umap as um
from ummaso.config import PipelineConfig, pipeline_config_from_dict
from ummaso.errors import DataFormatError
from ummaso.sarn import network as nw


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SOIL_CSV = (
    "N,P,K,pH,EC,fertility\n"
    "40,20,15,5.2,0.35,0\n"
    "75,45,35,6.4,0.7,1\n"
    "110,70,60,7.6,1.2,2\n"
)


class TestLoadCsv:
    def test_soil_schema(self, tmp_path):
        data = ds.load_csv(write(tmp_path, SOIL_CSV))
        assert data.n_features == 5
        assert data.feature_names == ["N", "P", "K", "pH", "EC"]
        assert data.n_classes == 3

    def test_header_only_is_zero_rows(self, tmp_path):
        with pytest.raises(DataFormatError, match="zero data rows"):
            ds.load_csv(write(tmp_path, "a,b,fertility\n"))

    def test_hand_parsed_fixture(self, tmp_path):
        data = ds.load_csv(write(tmp_path, "a,b,fertility\n1.0,2.0,0\n3.0,4.0,1\n"))
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ds.load_csv(str(tmp_path / "missing.csv"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            ds.load_csv(write(tmp_path, "a,a,fertility\n1,2,0\n"))

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="label column"):
            ds.load_csv(write(tmp_path, "a,b\n1,2\n"))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"row 3.*column 2"):
            ds.load_csv(write(tmp_path, "a,b,fertility\n1,2,0\n1,oops,1\n"))

    def test_label_must_be_integer(self, tmp_path):
        with pytest.raises(DataFormatError, match="not an integer"):
            ds.load_csv(write(tmp_path, "a,fertility\n1,0.5\n"))

    def test_label_must_be_non_negative(self, tmp_path):
        with pytest.raises(DataFormatError, match="negative"):
            ds.load_csv(write(tmp_path, "a,fertility\n1,-1\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            ds.load_csv(write(tmp_path, "a,b,fertility\n1,0\n"))

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = ds.Dataset(
            features=rng.normal(size=(20, 3)) * 1e3,
            feature_names=["x", "y, mg/kg", "z"],
            labels=rng.integers(0, 2, size=20),
            class_names=["a", "b"],
        )
        path = str(tmp_path / "round.csv")
        ds.write_csv(data, path)
        back = ds.load_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.feature_names == data.feature_names
        lines = ['x,"y, mg/kg",z,fertility'] + [
            ",".join([*map(repr, row.tolist()), str(label)])
            for row, label in zip(data.features, data.labels)
        ]
        assert (tmp_path / "round.csv").read_bytes() == "".join(
            line + "\n" for line in lines
        ).encode()


class TestTable:
    def test_cell_formatting(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        row = [0.1, np.float64(-2.5), np.int64(7), np.bool_(True), False, 3, "name"]
        ds.write_table(path, ["a", "b", "c", "d", "e", "f", "g"], [row])
        assert (tmp_path / "cells.csv").read_bytes() == b"a,b,c,d,e,f,g\n0.1,-2.5,7,1,0,3,name\n"

    def test_float_round_trip_is_exact(self, tmp_path):
        values = [-0.0, 1e-300, 5e-324, 0.1, 1.0 / 3.0, -1.7976931348623157e308, 123456789.0]
        path = str(tmp_path / "floats.csv")
        ds.write_table(path, ["x", "y"], [[v, np.float64(v)] for v in values])
        header, rows = ds.read_table(path)
        back = ds.float_columns(path, header, rows, header)
        assert back.shape == (len(values), 2)
        for column in back.T:
            assert column.tobytes() == np.asarray(values).tobytes()  # -0.0 keeps its sign

    def test_named_columns_in_requested_order(self, tmp_path):
        path = write(tmp_path, "a, b ,c\n1,2,x\n4,5,y\n")
        header, rows = ds.read_table(path)
        assert header == ["a", "b", "c"]
        got = ds.float_columns(path, header, rows, ["b", "a"])
        np.testing.assert_array_equal(got, [[2.0, 1.0], [5.0, 4.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n1,2,3\n4,5,oops\n", r"non-numeric value 'oops' at row 3, column 3"),
            ("a,b,c\n1,2,3\n4,nan,6\n", r"non-finite value 'nan' at row 3, column 2"),
            ("a,b,c\n1,2,-inf\n", r"non-finite value '-inf' at row 2, column 3"),
            ("a,b\n1,2\n", r"missing column 'c'"),
            ("a,b,c\n1,2,3\n4,5\n", r"row 3 has 2 cells, expected 3"),
            ("", r"empty file, missing header row"),
        ],
    )
    def test_errors_name_file_and_position(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(DataFormatError, match=r"data\.csv: " + message):
            header, rows = ds.read_table(path)
            ds.float_columns(path, header, rows, ["b", "c"])


class TestStandardize:
    def test_hand_computed_column(self):
        data = ds.Dataset(
            features=np.array([[2.0], [4.0], [6.0]]),
            feature_names=["x"],
            labels=np.array([0, 0, 1]),
            class_names=["a", "b"],
        )
        out, params = ds.standardize(data)
        assert params.means[0] == pytest.approx(4.0)
        assert params.std_devs[0] == pytest.approx(np.sqrt(8.0 / 3.0))
        np.testing.assert_allclose(
            out.features[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-9
        )

    def test_constant_column_maps_to_zeros(self):
        data = ds.Dataset(np.full((3, 1), 5.0), ["x"], np.array([0, 0, 1]), ["a", "b"])
        out, params = ds.standardize(data)
        np.testing.assert_array_equal(out.features, np.zeros((3, 1)))
        assert params.std_devs[0] == 1.0

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(1)
        data = ds.Dataset(rng.normal(size=(50, 4)), list("abcd"), rng.integers(0, 2, 50), ["x", "y"])
        once, _ = ds.standardize(data)
        twice, _ = ds.standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-9)

    def test_columns_have_zero_mean_unit_sd(self):
        rng = np.random.default_rng(2)
        data = ds.Dataset(rng.normal(3, 7, size=(64, 5)), list("abcde"), rng.integers(0, 2, 64), ["x", "y"])
        out, _ = ds.standardize(data)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9
        assert np.abs(out.features.std(axis=0) - 1.0).max() < 1e-9

    def test_apply_matches_standardize_bitwise(self):
        # held-out and new rows go through apply_standardization with the
        # training parameters, so the training rows must match it bit for bit
        rng = np.random.default_rng(3)
        X = rng.normal(5, 11, size=(30, 4))
        data = ds.Dataset(X, list("abcd"), rng.integers(0, 2, 30), ["x", "y"])
        standardized, params = ds.standardize(data)
        np.testing.assert_array_equal(
            ds.apply_standardization(data.features, params), standardized.features
        )

    def test_requires_two_samples(self):
        data = ds.Dataset(np.array([[1.0]]), ["x"], np.array([0]), ["a"])
        with pytest.raises(ValueError):
            ds.standardize(data)


def make_imbalanced(counts=(70, 20, 10), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    return ds.Dataset(
        features=rng.normal(size=(labels.size, 3)),
        feature_names=["a", "b", "c"],
        labels=labels,
        class_names=[f"c{i}" for i in range(len(counts))],
    )


class TestStratifiedSplit:
    def test_per_class_counts(self):
        data = make_imbalanced()
        train, test = ds.stratified_split(data, ds.SplitSpec(0.8, seed=5))
        np.testing.assert_array_equal(train.class_counts(), [56, 16, 8])
        np.testing.assert_array_equal(test.class_counts(), [14, 4, 2])

    def test_half_split_of_pairs(self):
        data = make_imbalanced(counts=(2, 2, 2))
        train, test = ds.stratified_split(data, ds.SplitSpec(0.5, seed=1))
        np.testing.assert_array_equal(train.class_counts(), [1, 1, 1])
        np.testing.assert_array_equal(test.class_counts(), [1, 1, 1])

    def test_deterministic_per_seed(self):
        data = make_imbalanced()
        a = ds.stratified_split(data, ds.SplitSpec(0.8, seed=7))
        b = ds.stratified_split(data, ds.SplitSpec(0.8, seed=7))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_partition_without_overlap(self):
        data = make_imbalanced()
        train, test = ds.stratified_split(data, ds.SplitSpec(0.8, seed=2))
        merged = np.vstack([train.features, test.features])
        assert merged.shape[0] == data.n_samples
        # every original row appears exactly once
        original = {tuple(row) for row in data.features}
        assert {tuple(row) for row in merged} == original

    def test_proportions_preserved(self):
        data = make_imbalanced(counts=(53, 17, 11), seed=4)
        train, test = ds.stratified_split(data, ds.SplitSpec(0.7, seed=3))
        for c in range(3):
            lhs = train.class_counts()[c] / train.n_samples
            rhs = data.class_counts()[c] / data.n_samples
            assert abs(lhs - rhs) <= 1.0 / train.n_samples + 1.0 / data.n_samples

    @pytest.mark.parametrize(
        "fraction, expect",
        [
            (0.5, [20, 6, 4, 2, 2, 1]),  # 2.5 and 1.5 round half to even
            (0.8, [32, 10, 6, 4, 2, 1]),
            (0.05, [2, 1, 1, 1, 1, 1]),  # at least one training row
            (0.99, [39, 11, 7, 4, 2, 1]),  # at least one held-out row
        ],
    )
    def test_train_counts_are_split_train_count(self, fraction, expect):
        counts = (40, 12, 8, 5, 3, 2)
        train, _ = ds.stratified_split(make_imbalanced(counts), ds.SplitSpec(fraction, seed=1))
        np.testing.assert_array_equal(train.class_counts(), expect)
        assert [ds.split_train_count(c, fraction) for c in counts] == expect

    def test_small_class_rejected(self):
        data = make_imbalanced(counts=(5, 1))
        with pytest.raises(ValueError, match="class 1"):
            ds.stratified_split(data, ds.SplitSpec(0.8, seed=0))


class TestOversample:
    def test_counts_equalized(self):
        out = ds.oversample(make_imbalanced(), seed=3)
        np.testing.assert_array_equal(out.class_counts(), [70, 70, 70])
        assert out.n_samples == 210

    def test_balanced_input_unchanged(self):
        data = make_imbalanced(counts=(50, 50, 50))
        assert ds.oversample(data, seed=1) is data

    def test_single_class_unchanged(self):
        data = make_imbalanced(counts=(12,))
        assert ds.oversample(data, seed=1) is data

    def test_existing_rows_untouched(self):
        data = make_imbalanced()
        out = ds.oversample(data, seed=9)
        np.testing.assert_array_equal(out.features[: data.n_samples], data.features)
        np.testing.assert_array_equal(out.labels[: data.n_samples], data.labels)
        # appended rows are duplicates of existing minority rows
        originals = {tuple(row) for row in data.features}
        assert all(tuple(row) in originals for row in out.features[data.n_samples :])

    def test_deterministic(self):
        data = make_imbalanced()
        a = ds.oversample(data, seed=11)
        b = ds.oversample(data, seed=11)
        np.testing.assert_array_equal(a.features, b.features)

    def test_empty_class_rejected(self):
        data = ds.Dataset(
            np.zeros((2, 1)), ["x"], np.array([0, 0]), ["a", "b"]
        )
        with pytest.raises(ValueError, match="class 1"):
            ds.oversample(data, seed=0)


class TestSynthGenerate:
    def config(self, **kw):
        base = dict(
            samples_per_class=[700, 200, 100],
            class_centers=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]),
            noise_std=1.0,
            seed=7,
        )
        base.update(kw)
        return ds.SynthConfig(**base)

    def test_exact_counts(self):
        data = ds.synth_generate(self.config())
        assert data.n_samples == 1000
        np.testing.assert_array_equal(data.class_counts(), [700, 200, 100])

    def test_degenerate_noise_sticks_to_centers(self):
        config = self.config(noise_std=1e-9, samples_per_class=[10, 10, 10])
        data = ds.synth_generate(config)
        for c in range(3):
            rows = data.features[data.labels == c]
            assert np.abs(rows - config.class_centers[c]).max() < 1e-6

    def test_seeds_differ_but_counts_match(self):
        a = ds.synth_generate(self.config(seed=1))
        b = ds.synth_generate(self.config(seed=2))
        assert not np.array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.class_counts(), b.class_counts())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ds.SynthConfig(
                samples_per_class=[1, 2],
                class_centers=np.array([[0.0, 0.0]]),
                noise_std=1.0,
                seed=0,
            )


# standardization.json and metrics.json of the records TestRecordCodec
# builds, as written before the records shared one codec
STANDARDIZATION_JSON = """\
{
 "feature_names": [
  "a",
  "b"
 ],
 "means": [
  2.3333333333333335,
  10.0
 ],
 "std_devs": [
  1.247219128924647,
  1.0
 ]
}"""

METRICS_JSON = """\
{
 "accuracy": 0.6666666666666666,
 "confusion": [
  [
   2,
   1,
   0,
   0
  ],
  [
   0,
   2,
   0,
   0
  ],
  [
   1,
   0,
   0,
   0
  ],
  [
   0,
   0,
   0,
   0
  ]
 ],
 "empty_precision_classes": [
  2,
  3
 ],
 "empty_recall_classes": [
  3
 ],
 "kappa": 0.42857142857142855,
 "kappa_degenerate": false,
 "precision_macro": 0.3333333333333333,
 "precision_per_class": [
  0.6666666666666666,
  0.6666666666666666,
  0.0,
  0.0
 ],
 "recall_macro": 0.41666666666666663,
 "recall_per_class": [
  0.6666666666666666,
  1.0,
  0.0,
  0.0
 ]
}"""


class TestRecordCodec:
    """record_to_json and record_from_json: the one JSON form of the
    standardization, graph, metrics, model, ranking and config records."""

    @staticmethod
    def records():
        rows = np.array([[1.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
        _, std = ds.standardize(ds.Dataset(rows, ["a", "b"], np.array([0, 1, 1]), ["c0", "c1"]))
        points = np.random.default_rng(0).normal(size=(12, 3))
        graph = um.build_graph(points, um.UmapConfig(k=3))
        report = mt.evaluate([0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 1, 0], 4)
        X, y = np.random.default_rng(1).normal(size=(30, 4)), np.arange(30) % 3
        models = []
        for head in (nw.DKL_HEAD, nw.SOFTMAX_REG):
            settings = nw.SarnSettings(
                kernel_size=2, channels=4, rank=2, hidden=5, mask_len=2, epochs=2,
                batch_size=8, loss_head=head,
            )
            model = nw.init_model(4, 3, settings, seed=2)
            models.append(nw.train((X, y), (X, y), model, settings, seed=3)[0])
        # "flat" never enters the path, so its entry lambda is None
        path = ls.LassoPath(
            lambdas=np.array([1.0, 0.5]),
            coef_matrix=np.array([[0.0, 0.2, 0.0], [0.3, 0.4, 0.0]]),
            intercepts=np.zeros(2),
            df=np.array([1, 2]),
            mse=np.array([1.0, 0.5]),
            converged=np.ones(2, dtype=bool),
        )
        ranking = ls.rank_features(path, ["a", "b", "flat"])
        assert ranking.entry_lambdas == [0.5, 1.0, None]
        return std, graph, report, *models, ranking

    def test_flat_records_come_back_field_by_field(self):
        # int64 edges, bool sigma_converged and float64 arrays keep their
        # dtypes; the ranking's None entry lambda comes back as None
        for record in self.records():
            doc = json.loads(json.dumps({**ds.record_to_json(record), "not_a_field": 1}))
            back = ds.record_from_json(type(record), doc)
            for f in fields(record):
                value, read = getattr(record, f.name), getattr(back, f.name)
                assert type(read) is type(value), f.name
                if isinstance(value, np.ndarray):
                    assert read.dtype == value.dtype, f.name
                    np.testing.assert_array_equal(read, value)
                else:
                    assert read == value, f.name

    def test_nested_config_is_an_object_per_section(self):
        doc = json.loads(json.dumps(ds.record_to_json(PipelineConfig())))
        assert doc["umap"] == ds.record_to_json(um.UmapConfig())
        assert pipeline_config_from_dict(doc) == PipelineConfig()

    def test_written_text_is_the_stored_layout(self, tmp_path):
        std, _, report, *_ = self.records()
        path = str(tmp_path / "standardization.json")
        ds.write_json(path, {**ds.record_to_json(std), "feature_names": ["a", "b"]})
        assert open(path, encoding="utf-8").read() == STANDARDIZATION_JSON
        path = str(tmp_path / "metrics.json")
        ds.write_json(path, ds.record_to_json(report))
        assert open(path, encoding="utf-8").read() == METRICS_JSON
