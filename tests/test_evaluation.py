"""Fold splitting, confusion counting, metrics, and workload savings."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alert_sift.errors import ValidationError
from alert_sift.evaluation import (
    ConfusionMatrix,
    confusion,
    cross_validate,
    evaluate_forest,
    kfold_split,
    metrics,
    workload_savings,
)
from alert_sift.forest import ForestParams, train_forest


def test_kfold_singletons_when_k_equals_n():
    folds = kfold_split(10, 10, seed=0)
    assert [len(f) for f in folds] == [1] * 10
    assert sorted(i for fold in folds for i in fold) == list(range(10))


def test_kfold_uneven_sizes_front_loaded():
    folds = kfold_split(10, 3, seed=0)
    assert [len(f) for f in folds] == [4, 3, 3]


def test_kfold_deterministic_per_seed():
    assert kfold_split(20, 4, seed=7) == kfold_split(20, 4, seed=7)
    assert kfold_split(20, 4, seed=7) != kfold_split(20, 4, seed=8)


def test_kfold_negative_seed_maps_modulo_2_64():
    assert kfold_split(20, 4, seed=-1) == kfold_split(20, 4, seed=2**64 - 1)
    assert kfold_split(20, 4, seed=-2**64) == kfold_split(20, 4, seed=0)


def test_kfold_rejects_bad_k():
    with pytest.raises(ValidationError):
        kfold_split(5, 1, seed=0)
    with pytest.raises(ValidationError):
        kfold_split(5, 6, seed=0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kfold_partition_property(n, k, seed):
    if k > n:
        k = n
    folds = kfold_split(n, k, seed)
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(n))
    assert len(flat) == len(set(flat))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_confusion_worked_example():
    cm = confusion([1, 0, 0, 0], [1, 1, 0, 0])
    assert cm == ConfusionMatrix(tp_as_tp=1, tp_as_fp=1, fp_as_fp=2, fp_as_tp=0)
    assert cm.total == 4


def test_confusion_perfect_predictions_have_empty_off_diagonal():
    truths = [1, 0, 1, 1, 0]
    cm = confusion(truths, truths)
    assert cm.tp_as_fp == 0
    assert cm.fp_as_tp == 0
    assert cm.tp_as_tp == 3
    assert cm.fp_as_fp == 2


def test_confusion_empty_input():
    assert confusion([], []).total == 0


def test_confusion_validates_input():
    with pytest.raises(ValidationError):
        confusion([1, 0], [1])
    with pytest.raises(ValidationError):
        confusion([2, 0], [1, 0])
    with pytest.raises(ValidationError):
        confusion([1, 0], [1, -1])


@pytest.mark.parametrize(
    "predictions, truths, bad",
    [
        ([1, 2], [1, 0], "truth=0 pred=2"),  # 2 * 0 + 2 would count as tp_as_fp
        ([0, 1, 1], [1, 0, 3], "truth=3 pred=1"),
        ([0.5, 1], [0, 1], "truth=0 pred=0.5"),
        (np.array([1, 0, -1]), np.array([1, 1, 1]), "truth=1 pred=-1"),
    ],
)
def test_confusion_names_the_first_pair_that_is_not_0_or_1(predictions, truths, bad):
    with pytest.raises(ValidationError, match=f"^labels must be 0/1, got {bad}$"):
        confusion(predictions, truths)


def test_confusion_counts_arrays_as_lists():
    rng = np.random.default_rng(5)
    pred, truth = rng.integers(0, 2, 200), rng.integers(0, 2, 200)
    cm = confusion(pred, truth)
    assert cm == confusion(pred.tolist(), truth.tolist()) == confusion(
        [bool(v) for v in pred], [float(v) for v in truth]
    )
    assert (cm.tp_as_tp, cm.fp_as_tp) == (int(((truth == 1) & (pred == 1)).sum()),
                                          int(((truth == 0) & (pred == 1)).sum()))
    assert cm.total == 200


def test_confusion_matrix_rejects_negative_counts():
    with pytest.raises(ValidationError):
        ConfusionMatrix(tp_as_tp=-1)


def test_metrics_worked_example():
    report = metrics(ConfusionMatrix(tp_as_tp=1, tp_as_fp=1, fp_as_fp=2, fp_as_tp=0))
    assert report.tp_recall == pytest.approx(0.5)
    assert report.fp_recall == pytest.approx(1.0)
    assert report.accuracy == pytest.approx(0.75)
    assert report.tp_precision == pytest.approx(1.0)
    assert report.fp_precision == pytest.approx(2 / 3)
    assert all(value is not None for value in astuple(report))


def test_metrics_perfect_classifier():
    report = metrics(ConfusionMatrix(tp_as_tp=5, tp_as_fp=0, fp_as_fp=7, fp_as_tp=0))
    assert (
        report.tp_precision,
        report.tp_recall,
        report.fp_precision,
        report.fp_recall,
        report.accuracy,
    ) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_metrics_single_class_truths_flag_missing_recall():
    report = metrics(ConfusionMatrix(tp_as_tp=4, tp_as_fp=1, fp_as_fp=0, fp_as_tp=0))
    assert report.fp_recall is None
    assert None not in (report.tp_precision, report.tp_recall, report.fp_precision, report.accuracy)
    assert report.tp_recall == pytest.approx(0.8)


def test_metrics_empty_matrix_all_undefined():
    report = metrics(ConfusionMatrix())
    assert all(value is None for value in astuple(report))


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=50),
    b=st.integers(min_value=0, max_value=50),
    c=st.integers(min_value=1, max_value=50),
    d=st.integers(min_value=0, max_value=50),
)
def test_accuracy_is_prevalence_weighted_recall_mean(a, b, c, d):
    cm = ConfusionMatrix(tp_as_tp=a, tp_as_fp=b, fp_as_fp=c, fp_as_tp=d)
    report = metrics(cm)
    n_tp = a + b
    n_fp = c + d
    weighted = (n_tp * report.tp_recall + n_fp * report.fp_recall) / (n_tp + n_fp)
    assert report.accuracy == pytest.approx(weighted, abs=1e-12)


def test_workload_savings_examples():
    assert workload_savings(208, 3.98) == pytest.approx(13.8, abs=0.05)
    assert workload_savings(285, 4.21) == pytest.approx(20.0, abs=0.05)
    assert workload_savings(0) == 0.0


def test_workload_savings_linear_in_count():
    one = workload_savings(1, 4.0)
    assert workload_savings(300, 4.0) == pytest.approx(300 * one)
    assert one == pytest.approx(4.0 / 60.0)


def test_workload_savings_validation():
    with pytest.raises(ValidationError):
        workload_savings(-1)
    with pytest.raises(ValidationError):
        workload_savings(5, 0.0)
    for minutes in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="finite"):
            workload_savings(5, minutes)


@pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_evaluation_refuses_threshold_outside_open_unit_interval(threshold):
    X, y = _separable()
    forest = train_forest(X, y, ForestParams(n_estimators=3))
    with pytest.raises(ValidationError, match=r"threshold must be in \(0, 1\)"):
        evaluate_forest(forest, X, y, threshold)
    with pytest.raises(ValidationError, match=r"threshold must be in \(0, 1\)"):
        cross_validate(X, y, ForestParams(n_estimators=3), k=3, threshold=threshold)


def _separable(n=60, seed=31):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    X[:, 1] = np.where(X[:, 1] > 0.5, X[:, 1] + 0.5, X[:, 1] - 0.5)
    y = (X[:, 1] > 0.5).astype(int)
    return X, y


def test_cross_validate_separable_perfect_and_stable():
    X, y = _separable(n=60)
    cv = cross_validate(X, y, ForestParams(n_estimators=15, seed=42), k=10)
    assert len(cv.reports) == 10
    assert cv.accuracies == (1.0,) * 10
    assert cv.mean_accuracy == 1.0
    assert cv.accuracy_variance == 0.0


def test_cross_validate_shuffled_labels_near_chance():
    rng = np.random.default_rng(32)
    X = rng.random((200, 4))
    y = np.array([0, 1] * 100)
    cv = cross_validate(X, y, ForestParams(n_estimators=10, seed=1), k=5)
    assert cv.mean_accuracy == pytest.approx(0.5, abs=0.1)


def test_cross_validate_degenerate_fold_names_fold():
    # 3 samples, k=3: one complement is [0-label, 0-label]
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 0, 1])
    with pytest.raises(ValidationError, match="fold"):
        cross_validate(X, y, ForestParams(n_estimators=2, seed=0), k=3)


def test_evaluate_forest_holdout():
    X, y = _separable(n=80)
    forest = train_forest(X[:60], y[:60], ForestParams(n_estimators=15))
    cm, report = evaluate_forest(forest, X[60:], y[60:])
    assert cm.total == 20
    assert report.accuracy == 1.0
    assert cm.tp_as_fp == 0 and cm.fp_as_tp == 0
