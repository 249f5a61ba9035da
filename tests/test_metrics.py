"""Evaluation metrics against a brute-force counting oracle."""

import numpy as np
import pytest

from respden.audio import Label
from respden.errors import UndefinedMetricError
from respden.metrics import compute_metrics, confusion_matrix
from respden.report import truncate_pct

from oracles import counting_metrics


class TestComputeMetrics:
    def test_perfect_diagonal(self):
        conf = np.diag([10, 5, 7, 3])
        report = compute_metrics(conf)
        assert report.se == report.sp == report.score == 1.0

    def test_reference_triple_truncates_to_published_score(self):
        se, sp = 0.4594, 0.8513
        score = (se + sp) / 2.0
        assert score == 0.65535
        assert truncate_pct(score) == 65.53
        assert truncate_pct(sp) == 85.13
        assert truncate_pct(se) == 45.94

    def test_score_is_mean_of_se_and_sp(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            truths = rng.integers(0, 4, size=100)
            preds = rng.integers(0, 4, size=100)
            if (truths == 0).sum() == 0 or (truths > 0).sum() == 0:
                continue
            report = compute_metrics(confusion_matrix(truths, preds))
            assert report.score == (report.se + report.sp) / 2.0

    def test_matches_counting_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            truths = rng.integers(0, 4, size=200)
            preds = rng.integers(0, 4, size=200)
            if (truths == 0).sum() == 0 or (truths > 0).sum() == 0:
                continue
            report = compute_metrics(confusion_matrix(truths, preds))
            conf_o, se_o, sp_o, score_o = counting_metrics(truths, preds)
            np.testing.assert_array_equal(report.confusion, conf_o)
            assert report.se == se_o and report.sp == sp_o and report.score == score_o

    def test_empty_normal_stratum_rejected(self):
        conf = np.zeros((4, 4), dtype=int)
        conf[1, 1] = 5
        with pytest.raises(UndefinedMetricError):
            compute_metrics(conf)

    def test_empty_abnormal_stratum_rejected(self):
        conf = np.zeros((4, 4), dtype=int)
        conf[0, 0] = 5
        with pytest.raises(UndefinedMetricError):
            compute_metrics(conf)

    def test_fractional_counts_rejected(self):
        # an int64 cast would truncate 2.5 to 2
        conf = np.diag([2.5, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="confusion count 2.5 is not a whole number"):
            compute_metrics(conf)

    def test_negative_counts_rejected(self):
        conf = np.zeros((4, 4), dtype=int)
        conf[0, 0] = -1
        with pytest.raises(ValueError):
            compute_metrics(conf)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    @pytest.mark.parametrize("truths, preds, bad", [([0, -1], [0, 0], -1), ([0, 1], [4, 1], 4)])
    def test_label_outside_the_classes_rejected(self, truths, preds, bad):
        # numpy's negative indexing would count -1 as class 3
        with pytest.raises(ValueError, match=f"label {bad} is outside 0..3"):
            confusion_matrix(truths, preds)

    def test_fractional_labels_rejected(self):
        # an int64 cast would count them as classes 1 and 0
        with pytest.raises(ValueError, match="label 1.5 is not a whole number"):
            confusion_matrix([1.5, 0.9], [1, 0])

    def test_label_members_and_numpy_ints_accepted(self):
        conf = confusion_matrix([Label.NORMAL, np.int64(3), np.int32(1)], [0, Label.BOTH, 1])
        np.testing.assert_array_equal(conf, np.diag([1, 1, 0, 1]))
