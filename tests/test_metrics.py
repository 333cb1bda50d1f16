import json

import numpy as np
import pytest

from ummaso import dataset as ds
from ummaso import metrics as mt


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        cm = mt.confusion(labels, labels, 3)
        assert np.all(cm == np.diag(np.diag(cm)))
        assert cm.sum() == 5

    def test_hand_tally(self):
        cm = mt.confusion([0, 0, 1, 2], [0, 1, 1, 2], 3)
        expect = np.zeros((3, 3), dtype=int)
        expect[0, 0] = expect[0, 1] = expect[1, 1] = expect[2, 2] = 1
        np.testing.assert_array_equal(cm, expect)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mt.confusion([], [], 2)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            mt.confusion([0, 3], [0, 1], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mt.confusion([0, 1], [0], 2)


class TestReport:
    def test_perfect_three_class_predictor(self):
        labels = np.repeat([0, 1, 2], 10)
        rep = mt.evaluate(labels, labels, 3)
        assert rep.accuracy == 1.0
        assert rep.precision_macro == 1.0
        assert rep.recall_macro == 1.0
        assert rep.kappa == 1.0

    def test_hand_evaluated_kappa(self):
        rep = mt.report(np.array([[2, 1], [1, 2]]))
        assert rep.accuracy == pytest.approx(4.0 / 6.0)
        np.testing.assert_allclose(rep.precision_per_class, [2.0 / 3.0, 2.0 / 3.0])
        assert rep.recall_macro == pytest.approx(2.0 / 3.0)
        assert rep.kappa == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_constant_predictor_on_balanced_data_has_zero_kappa(self):
        true = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=int)
        rep = mt.evaluate(true, pred, 2)
        assert rep.kappa == pytest.approx(0.0, abs=1e-12)
        assert rep.empty_precision_classes == [1]

    def test_macro_values_are_exact_means(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, size=500)
        pred = rng.integers(0, 4, size=500)
        rep = mt.evaluate(true, pred, 4)
        assert rep.precision_macro == rep.precision_per_class.mean()
        assert rep.recall_macro == rep.recall_per_class.mean()

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 3, size=300)
        pred = rng.integers(0, 3, size=300)
        base = mt.evaluate(true, pred, 3)
        perm = np.array([2, 0, 1])
        permuted = mt.evaluate(perm[true], perm[pred], 3)
        assert permuted.accuracy == base.accuracy
        assert permuted.kappa == pytest.approx(base.kappa, abs=1e-12)
        inverse = np.argsort(perm)
        np.testing.assert_allclose(
            permuted.precision_per_class[perm], base.precision_per_class
        )

    def test_kappa_is_one_only_without_off_diagonal_mass(self):
        rep = mt.report(np.array([[10, 0], [0, 5]]))
        assert rep.kappa == 1.0
        rep2 = mt.report(np.array([[10, 1], [0, 5]]))
        assert rep2.kappa < 1.0

    def test_marginal_matched_random_predictor_has_tiny_kappa(self):
        rng = np.random.default_rng(2)
        marginal = [0.7, 0.2, 0.1]
        true = rng.choice(3, size=100_000, p=marginal)
        pred = rng.choice(3, size=100_000, p=marginal)
        rep = mt.evaluate(true, pred, 3)
        assert abs(rep.kappa) < 0.05

    def test_degenerate_single_cell_flagged(self):
        rep = mt.report(np.array([[7, 0], [0, 0]]))
        assert rep.kappa == 1.0
        assert rep.kappa_degenerate

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            mt.report(np.zeros((2, 2), dtype=int))


class TestExports:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(3)
        rep = mt.evaluate(rng.integers(0, 3, 50), rng.integers(0, 3, 50), 3)
        doc = json.loads(json.dumps(ds.record_to_json(rep)))
        back = ds.record_from_json(mt.MetricsReport, doc)
        assert back.accuracy == rep.accuracy
        assert back.kappa == rep.kappa
        np.testing.assert_array_equal(back.confusion, rep.confusion)

    def test_csv_export(self, tmp_path):
        rep = mt.evaluate([0, 1, 1], [0, 1, 0], 2)
        path = tmp_path / "metrics.csv"
        mt.report_to_csv(rep, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 5
