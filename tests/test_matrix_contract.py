"""The matrix contract, checked once by as_matrix and as_labeled_matrix.

A feature matrix is 2-D, has at least one column and holds only finite
cells; each label is exactly 0 or 1. Every consumer of a matrix or of its
labels refuses the same bad inputs with the same ValidationError.
"""

from __future__ import annotations

import io
import json
import re

import numpy as np
import pytest

from alert_sift import cli
from alert_sift.attribution import global_importance
from alert_sift.errors import ValidationError
from alert_sift.evaluation import cross_validate, evaluate_forest
from alert_sift.features import as_labeled_matrix, chi2_select, write_matrix_csv
from alert_sift.forest import ForestParams, predict_proba_batch, train_forest

_X = np.array([[0.1 * i, (i % 3) / 2] for i in range(8)])
_Y = [0, 1] * 4
_FOREST = train_forest(_X, _Y, ForestParams(n_estimators=3, seed=1))

# consumer -> a call of it on (matrix, labels); the last two read no labels
_CONSUMERS = {
    "train_forest": lambda X, y: train_forest(X, y, ForestParams(n_estimators=2)),
    "evaluate_forest": lambda X, y: evaluate_forest(_FOREST, X, y),
    "cross_validate": lambda X, y: cross_validate(X, y, ForestParams(n_estimators=2), k=2),
    "chi2_select": lambda X, y: chi2_select(X, y, k=1),
    "write_matrix_csv": lambda X, y: write_matrix_csv(
        io.StringIO(), X, y, [f"f{j}" for j in range(np.shape(X)[1])]
    ),
    "predict_proba_batch": lambda X, y: predict_proba_batch(_FOREST, X),
    "global_importance": lambda X, y: global_importance(_FOREST, X),
}
_LABEL_READERS = list(_CONSUMERS)[:5]


def _labels_with(bad):
    y = list(_Y)
    y[3] = bad
    return y


def _cells_with(bad):
    X = _X.copy()
    X[5, 1] = bad
    return X


# bad input -> (matrix, labels, the error it must give)
_BAD_LABELS = {
    "label 1.7": (_X, _labels_with(1.7), "labels must be 0/1, got 1.7 at row 3"),
    "label NaN": (_X, _labels_with(float("nan")), "labels must be 0/1, got nan at row 3"),
    "label 2": (_X, _labels_with(2), "labels must be 0/1, got 2 at row 3"),
    "label '1'": (_X, _labels_with("1"), "labels must be 0/1, got '1' at row 3"),
    "label None": (_X, _labels_with(None), "labels must be 0/1, got None at row 3"),
    "2-D labels": (_X, np.array(_Y)[:, None], "labels must be 0/1, got [0] at row 0"),
}
_BAD_MATRICES = {
    "cell inf": (_cells_with(np.inf), _Y, "non-finite value inf at matrix row 5, column 1"),
    "cell nan": (_cells_with(np.nan), _Y, "non-finite value nan at matrix row 5, column 1"),
    "width 0": (
        np.empty((8, 0)), _Y, "matrix must be 2-D with at least one column, got shape (8, 0)"
    ),
}
_CASES = [
    pytest.param(consumer, *case, id=f"{consumer}-{name}")
    for bad, consumers in ((_BAD_LABELS, _LABEL_READERS), (_BAD_MATRICES, list(_CONSUMERS)))
    for name, case in bad.items()
    for consumer in consumers
]


@pytest.mark.parametrize("consumer, X, y, error", _CASES)
def test_every_consumer_refuses_a_bad_matrix_or_label_with_one_error(consumer, X, y, error):
    with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
        _CONSUMERS[consumer](X, y)


def test_a_label_equal_to_0_or_1_passes_in_any_numeric_type():
    labels = [1.0, True, np.int8(0), np.float64(1.0), False, 0, np.bool_(True), 1]
    X, y = as_labeled_matrix(_X, labels)
    assert X is _X
    assert y.dtype == np.int64
    assert y.tolist() == [1, 1, 0, 1, 0, 0, 1, 1]
    for consumer in _LABEL_READERS:
        _CONSUMERS[consumer](_X, labels)


# dtype kind -> bad labels an array of that kind can hold
_BAD_BY_KIND = {"b": (), "i": (2, -1), "u": (2, 255), "f": (2, 1.7, 0.5, np.nan, -1)}


@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint8, np.int64, np.float32, np.float64])
def test_a_label_array_is_read_as_its_list_is(dtype):
    X, y = as_labeled_matrix(_X, np.array(_Y, dtype=dtype))
    assert y.dtype == np.int64 and y.tolist() == _Y
    for bad in _BAD_BY_KIND[np.dtype(dtype).kind]:
        labels = np.array(_labels_with(bad), dtype=dtype)
        error = f"labels must be 0/1, got {labels.tolist()[3]!r} at row 3"
        for form in (labels, labels.tolist()):
            with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
                as_labeled_matrix(_X, form)


def test_a_label_array_of_another_length_is_refused():
    with pytest.raises(ValidationError, match="^8 rows vs 7 labels$"):
        as_labeled_matrix(_X, _Y[:7])
    with pytest.raises(ValidationError, match=r"^labels must be 0/1, got \[1\] at row 1$"):
        as_labeled_matrix(_X, [0, [1], 0, 1, 0, 1, 0, 1])  # ragged


def test_a_single_row_is_a_batch_of_one():
    for bad in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], [0.5, np.inf]):
        with pytest.raises(ValidationError):
            predict_proba_batch(_FOREST, [bad])
    assert predict_proba_batch(_FOREST, [_X[2]]).tolist() == [
        predict_proba_batch(_FOREST, _X)[2]
    ]


def _run(argv, capsys) -> str:
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_label_only_matrix_is_refused_by_every_stage_and_writes_no_file(tmp_path, capsys):
    # a header of just "label" gives rows of width 0: no stage may train on or score them
    matrix = tmp_path / "labels.csv"
    matrix.write_text("label\n1\n0\n1\n0\n", encoding="utf-8")
    model = tmp_path / "model.json"  # a model of width 0, as train would once have written
    model.write_text(json.dumps({
        "version": "1", "params": {}, "profile": None, "feature_names": [],
        "trees": [{"tp": 1, "fp": 1}],
    }), encoding="utf-8")
    out = tmp_path / "out"
    err = _run(["train", "--model", str(out), "--in", str(matrix)], capsys)
    assert err == "error: matrix must be 2-D with at least one column, got shape (4, 0)\n"
    # the width-0 model is refused on load, before any matrix is read
    for argv in (
        ["explain", "--model", str(model), "--out", str(out)],
        ["explain", "--model", str(model), "--out", str(out), "--row", "0",
         "--attribution-out", str(tmp_path / "attribution.json")],
        ["predict", "--model", str(model), "--out", str(out)],
        ["evaluate", "--model", str(model), "--report", str(out)],
    ):
        err = _run(argv + ["--in", str(matrix)], capsys)
        assert err == "error: model feature_names is empty: a model needs at least one feature\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.csv", "model.json"]


@pytest.mark.parametrize(
    "name, value",
    [("seed", "x"), ("seed", 1.5), ("seed", None), ("seed", True), ("n_estimators", 1.5),
     ("max_depth", 2.5), ("min_samples_split", True), ("n_estimators", "3")],
)
def test_model_params_that_are_not_integers_are_refused(tmp_path, capsys, name, value):
    error = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
        ForestParams(**{name: value})
    matrix, model = tmp_path / "matrix.csv", tmp_path / "model.json"
    with open(matrix, "w", encoding="utf-8") as fh:
        write_matrix_csv(fh, _X, _Y, ["a", "b"])
    assert cli.main(["train", "--in", str(matrix), "--model", str(model), "--trees", "3"]) == 0
    obj = json.loads(model.read_text(encoding="utf-8"))
    obj["params"][name] = value
    model.write_text(json.dumps(obj), encoding="utf-8")
    report = tmp_path / "report.json"
    err = _run(["evaluate", "--in", str(matrix), "--kfold", "3", "--model", str(model),
                "--report", str(report)], capsys)
    assert err == f"error: {error}\n"
    assert not report.exists()
