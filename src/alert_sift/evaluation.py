"""k-fold validation, confusion-matrix metrics, and workload-savings arithmetic.

Metrics with a zero denominator are reported as None; they never raise.
Labels are 1 for true-positive alerts (escalation-worthy) and 0 for false
positives (noise to filter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_int, check_number
from .features import as_labeled_matrix
from .forest import (
    THRESHOLD, Forest, ForestParams, check_threshold, predict_proba_batch, train_forest
)

KFOLD_K = field(default=None, metadata={"least": 2})  # kfold_split's k; no folds unless asked
MINUTES_PER_ALERT = 4.0  # workload_savings' default analyst minutes per reviewed alert


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts keyed truth-then-prediction; tp_as_fp is a missed attack."""

    tp_as_tp: int = 0
    tp_as_fp: int = 0
    fp_as_fp: int = 0
    fp_as_tp: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            check_int(name, value, 0)

    @property
    def total(self) -> int:
        return self.tp_as_tp + self.tp_as_fp + self.fp_as_fp + self.fp_as_tp


@dataclass(frozen=True)
class MetricsReport:
    tp_precision: float | None
    tp_recall: float | None
    fp_precision: float | None
    fp_recall: float | None
    accuracy: float | None


def confusion(predictions: Sequence[int], truths: Sequence[int]) -> ConfusionMatrix:
    """Count (truth, prediction) pairs; labels are 1 = TP alert, 0 = FP."""
    if len(predictions) != len(truths):
        raise ValidationError(
            f"{len(predictions)} predictions vs {len(truths)} truths"
        )
    pred, truth = np.asarray(predictions), np.asarray(truths)
    # every value must equal 0 or 1, so that no pair lands in another's cell
    bad = ~(np.isin(pred, (0, 1)) & np.isin(truth, (0, 1)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"labels must be 0/1, got truth={truths[i]} pred={predictions[i]}"
        )
    counts = np.bincount(2 * truth.astype(np.intp) + pred.astype(np.intp), minlength=4)
    return ConfusionMatrix(
        tp_as_tp=int(counts[3]),
        tp_as_fp=int(counts[2]),
        fp_as_fp=int(counts[0]),
        fp_as_tp=int(counts[1]),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    return MetricsReport(
        tp_precision=_ratio(cm.tp_as_tp, cm.tp_as_tp + cm.fp_as_tp),
        tp_recall=_ratio(cm.tp_as_tp, cm.tp_as_tp + cm.tp_as_fp),
        fp_precision=_ratio(cm.fp_as_fp, cm.fp_as_fp + cm.tp_as_fp),
        fp_recall=_ratio(cm.fp_as_fp, cm.fp_as_fp + cm.fp_as_tp),
        accuracy=_ratio(cm.tp_as_tp + cm.fp_as_fp, cm.total),
    )


def kfold_split(n: int, k: int, seed: int) -> list[list[int]]:
    """Shuffle 0..n-1 and cut into k folds of size floor(n/k) or ceil(n/k).

    The first n mod k folds take the larger size. Deterministic per seed; a
    negative seed is taken modulo 2**64, as the forest's tree seeds are.
    """
    check_int("n", n)
    check_int("k", k, KFOLD_K.metadata["least"])
    check_int("seed", seed)
    if k > n:
        raise ValidationError(f"k={k} exceeds sample count n={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF)))
    return [fold.tolist() for fold in np.array_split(rng.permutation(n), k)]


@dataclass(frozen=True)
class CrossValidation:
    reports: tuple[MetricsReport, ...]

    @property
    def accuracies(self) -> tuple[float, ...]:
        """Each fold's accuracy, 0.0 where it is undefined."""
        return tuple(r.accuracy if r.accuracy is not None else 0.0 for r in self.reports)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def accuracy_variance(self) -> float:
        return float(np.var(self.accuracies))


def cross_validate(
    matrix: np.ndarray,
    labels: Sequence[int],
    params: ForestParams | None = None,
    k: int = 10,
    threshold: float = THRESHOLD,
) -> CrossValidation:
    """Train on each fold's complement, evaluate on the fold, in fold order.

    The folds are cut with params.seed, the seed each fold's forest grows with.
    """
    check_threshold(threshold)
    X, y = as_labeled_matrix(matrix, labels)
    params = params or ForestParams()
    folds = kfold_split(X.shape[0], k, params.seed)
    reports = []
    for i, fold in enumerate(folds):
        held = np.asarray(fold, dtype=np.int64)
        mask = np.ones(X.shape[0], dtype=bool)
        mask[held] = False
        train_y = y[mask]
        if len(np.unique(train_y)) < 2:
            raise ValidationError(f"fold {i}: training complement has a single class")
        forest = train_forest(X[mask], train_y, params)
        _, report = evaluate_forest(forest, X[held], y[held], threshold)
        reports.append(report)
    return CrossValidation(reports=tuple(reports))


def evaluate_forest(
    forest: Forest,
    matrix: np.ndarray,
    labels: Sequence[int],
    threshold: float = THRESHOLD,
) -> tuple[ConfusionMatrix, MetricsReport]:
    """Holdout evaluation of a trained forest on a labeled matrix."""
    check_threshold(threshold)
    X, y = as_labeled_matrix(matrix, labels)
    proba = predict_proba_batch(forest, X)
    preds = (proba >= threshold).astype(int)
    cm = confusion(preds, y)
    return cm, metrics(cm)


def workload_savings(filtered_fp_count: int, minutes_per_alert: float = MINUTES_PER_ALERT) -> float:
    """Analyst hours saved by suppressing that many alerts from review."""
    check_int("filtered_fp_count", filtered_fp_count, 0)
    check_number("minutes_per_alert", minutes_per_alert)
    if not 0 < minutes_per_alert < np.inf:
        raise ValidationError(f"minutes_per_alert must be finite and > 0, got {minutes_per_alert}")
    return filtered_fp_count * minutes_per_alert / 60.0
