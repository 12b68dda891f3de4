"""Gini splitting, tree growth, bagging, prediction, and persistence."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alert_sift import cli
from alert_sift import forest as forest_mod
from alert_sift.errors import ParseError, ValidationError
from alert_sift.features import FeatureProfile, feature_names
from alert_sift.forest import (
    MODEL_FORMAT_VERSION,
    ForestParams,
    _ranked,
    best_split,
    check_threshold,
    forest_from_dict,
    grow_tree,
    load_forest,
    predict_proba,
    predict_proba_batch,
    save_forest,
    train_forest,
)


def gini(counts: tuple[int, int]) -> float:
    """Gini impurity of a two-class count pair: 1 - p_tp^2 - p_fp^2."""
    n_tp, n_fp = counts
    total = n_tp + n_fp
    if total < 1:
        raise ValidationError("gini of an empty node is undefined")
    p_tp = n_tp / total
    p_fp = n_fp / total
    return 1.0 - p_tp * p_tp - p_fp * p_fp


def test_gini_examples():
    assert gini((5, 5)) == 0.5
    assert gini((10, 0)) == 0.0
    assert gini((3, 1)) == 0.375


def test_gini_empty_node_rejected():
    with pytest.raises(ValidationError):
        gini((0, 0))


def test_params_validated():
    with pytest.raises(ValidationError):
        ForestParams(n_estimators=0)
    with pytest.raises(ValidationError):
        ForestParams(max_depth=0)


def test_max_features_rule():
    params = ForestParams()
    assert params.max_features_for(20) == 4
    assert params.max_features_for(29) == 5
    assert params.max_features_for(1) == 1


def test_best_split_separable_feature_recovers_parent_gini():
    X = np.array([[5.0, 1.0, 0.0], [5.0, 2.0, 0.0], [5.0, 1.0, 1.0], [5.0, 2.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    feat, threshold, decrease = best_split(_ranked(X, y), [0, 1, 2])
    assert feat == 2
    assert threshold == 0.5
    assert decrease == pytest.approx(0.5)


def test_best_split_identical_samples_returns_none():
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    assert best_split(_ranked(X, y), [0, 1]) is None


def test_best_split_no_improving_split_returns_none():
    # XOR: every single split leaves both children at parent impurity
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    assert best_split(_ranked(X, y), [0, 1]) is None


def test_best_split_tie_prefers_lower_feature():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    feat, _, _ = best_split(_ranked(X, y), [1, 0])
    assert feat == 0


def test_best_split_tie_prefers_lower_threshold():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 0])
    _, threshold, _ = best_split(_ranked(X, y), [0])
    assert threshold == 0.5


def _oracle_split(X, y, feats):
    n = len(y)

    def gini_frac(labels):
        t = sum(labels)
        f = len(labels) - t
        return Fraction(1) - Fraction(t, len(labels)) ** 2 - Fraction(f, len(labels)) ** 2

    parent = gini_frac(list(y))
    best = None
    for feat in sorted(feats):
        vals = sorted(set(X[:, feat].tolist()))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            if not lo <= thr < hi:  # the midpoint rounds onto hi or overflows
                thr = lo
            left = [int(y[i]) for i in range(n) if X[i, feat] <= thr]
            right = [int(y[i]) for i in range(n) if X[i, feat] > thr]
            dec = parent - (
                Fraction(len(left), n) * gini_frac(left)
                + Fraction(len(right), n) * gini_frac(right)
            )
            if dec <= 0:
                continue
            if best is None or dec > best[0] or (
                dec == best[0] and (feat, thr) < (best[1], best[2])
            ):
                best = (dec, feat, thr)
    return best


def test_best_split_six_sample_fixture_matches_brute_force():
    X = np.array(
        [[0.2, 3.0], [0.4, 1.0], [0.4, 2.0], [0.6, 1.0], [0.8, 3.0], [0.8, 2.0]]
    )
    y = np.array([0, 1, 0, 1, 1, 0])
    got = best_split(_ranked(X, y), [0, 1])
    ref = _oracle_split(X, y, [0, 1])
    assert got[0] == ref[1]
    assert got[1] == pytest.approx(ref[2])
    assert got[2] == pytest.approx(float(ref[0]), abs=1e-12)


def test_best_split_fuzz_matches_exact_oracle():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        w = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, w)).astype(float)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        got = best_split(_ranked(X, y), list(range(w)))
        ref = _oracle_split(X, y, list(range(w)))
        if ref is None:
            assert got is None
        else:
            assert got[0] == ref[1]
            assert got[1] == pytest.approx(ref[2])
            assert got[2] == pytest.approx(float(ref[0]), abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda w: st.tuples(
            st.lists(
                st.tuples(st.lists(st.integers(-3, 3), min_size=w, max_size=w), st.integers(0, 1)),
                min_size=2,
                max_size=10,
            ),
            st.lists(st.integers(0, w - 1), min_size=1, max_size=4),
        )
    )
)
def test_best_split_matches_exact_oracle_on_tied_negative_values(case):
    # halves in [-1.5, 1.5]: heavy ties, negative values, exact midpoints
    rows, candidates = case
    X = np.array([values for values, _ in rows], dtype=float) / 2
    y = np.array([label for _, label in rows], dtype=np.int64)
    got = best_split(_ranked(X, y), candidates)
    ref = _oracle_split(X, y, sorted(set(candidates)))
    if ref is None:
        assert got is None
    else:
        assert got[:2] == (ref[1], ref[2])
        assert got[2] == pytest.approx(float(ref[0]), abs=1e-12)


def test_best_split_threshold_between_adjacent_doubles_partitions():
    lo = 1.0000000000000002
    hi = np.nextafter(lo, 2.0)  # 1.0000000000000004, the next double
    assert (lo + hi) / 2.0 == hi  # the midpoint rounds onto the upper value
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0, 0, 1, 1])
    feat, threshold, decrease = best_split(_ranked(X, y), [0])
    assert (feat, threshold) == (0, lo)
    assert decrease == pytest.approx(0.5)
    tree = grow_tree(_ranked(X, y), ForestParams(), _rng())
    assert tree.feature.tolist() == [0, -1, -1]
    assert (tree.n_tp[1:].tolist(), tree.n_fp[1:].tolist()) == ([0, 2], [2, 0])


def test_best_split_threshold_past_the_largest_double_is_the_lower_value():
    lo, hi = 1.6e308, 1.7e308  # their sum overflows
    X = np.array([[lo], [lo], [hi], [hi]])
    feat, threshold, _ = best_split(_ranked(X, np.array([0, 0, 1, 1])), [0])
    assert (feat, threshold) == (0, lo)


# two-valued column kinds: (the value of a 0 bit, of a 1 bit)
_PAIRS = {
    "flag": (0.0, 1.0),
    "signed-zero": (-0.0, 0.0),  # np.unique reads one value
    "minus-one": (-1.0, 0.0),
    "huge": (1.6e308, 1.7e308),  # the midpoint overflows: the threshold is lo
}


@st.composite
def _mixed_split_case(draw):
    """(X, y, bootstrap ids, candidates) over two-valued, constant and many-valued
    columns; when drawn, 300 rows add columns of 32 and 33 values, either side of
    the cut between scoring on Python ints and on arrays, and a 300-value column,
    which makes the codes uint16."""
    n = draw(st.integers(2, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from([*_PAIRS, "constant", "many"]),
                              min_size=1, max_size=5)):
        if kind == "constant":
            columns.append(np.full(n, 3.5))
            continue
        cells = draw(st.lists(st.integers(0, 1 if kind in _PAIRS else 9), min_size=n, max_size=n))
        columns.append(np.take(_PAIRS[kind], cells) if kind in _PAIRS else np.array(cells, float))
    X = np.column_stack(columns)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        rows = np.arange(300) % n
        cut = [np.take(draw(st.permutations(range(k))), rows % k) * 0.25 - 3 for k in (32, 33)]
        X, y = np.column_stack([X[rows], *cut, np.arange(300) * 0.5 - 7]), y[rows]
    ids = np.array(draw(st.lists(st.integers(0, len(y) - 1), min_size=2, max_size=40)))
    candidates = draw(st.lists(st.integers(0, X.shape[1] - 1), min_size=1, max_size=6))
    return X, y, ids, candidates


@settings(max_examples=300, deadline=None)
@given(_mixed_split_case())
def test_best_split_on_drawn_ids_of_flag_and_constant_columns_matches_exact_oracle(case):
    # the ids repeat as a bootstrap lists them; the oracle reads the drawn rows themselves
    X, y, ids, candidates = case
    ranked = _ranked(X, y)
    assert ranked.codes.dtype == (np.uint16 if len(y) == 300 else np.uint8)
    tp = y[ids] == 1
    got = best_split(ranked._replace(tp_rows=ids[tp], fp_rows=ids[~tp]), candidates)
    ref = _oracle_split(X[ids], y[ids], sorted(set(candidates)))
    if ref is None:
        assert got is None
    else:
        assert got[:2] == (ref[1], ref[2])
        assert got[2] == pytest.approx(float(ref[0]), abs=1e-12)


def test_bincount_counts_only_candidates_of_three_or_more_values(monkeypatch):
    # a flag counts its ones and a constant column is skipped: two values are
    # bincount's slowest case
    X = np.array([[0.0, 4.0, 0.0, 2.0], [1.0, 4.0, 1.0, 3.0], [0.0, 4.0, 2.0, 2.0],
                  [1.0, 4.0, 3.0, 4.0], [1.0, 4.0, 1.0, 2.0]])
    y = np.array([0, 0, 1, 1, 1])
    ranked = _ranked(X, y)
    assert [len(v) for v in ranked.values] == [2, 1, 4, 3]
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    for candidates, expected in (([0], 0), ([1], 0), ([0, 1], 0), ([2], 2), ([3], 2),
                                 ([3, 1, 0, 2], 4)):
        calls.clear()
        best_split(ranked, candidates)
        assert len(calls) == expected, candidates


def test_array_scoring_runs_only_for_candidates_of_more_than_32_values(monkeypatch):
    # a column of at most 32 values is scored on Python ints, fed Python ints only
    # (numpy int64 scalars would overflow the exact N*D products); a wider one on arrays
    levels = [1, 2, 3, 32, 33, 101]
    X = np.column_stack([np.arange(202) % k for k in levels]).astype(float)
    ranked = _ranked(X, np.arange(202) % 3 == 0)
    assert [len(v) for v in ranked.values] == levels and forest_mod._FEW_VALUES == 32
    calls = []

    def spy(name):
        score = getattr(forest_mod, name)

        def counted(tp_at, fp_at, *args):
            if name == "_scored_on_ints":
                assert {type(count) for count in tp_at + fp_at} == {int}
            calls.append(name)
            return score(tp_at, fp_at, *args)
        monkeypatch.setattr(forest_mod, name, counted)

    spy("_scored_on_ints")
    spy("_scored_on_arrays")
    for candidates, expected in (([0], []), ([1], ["ints"]), ([2], ["ints"]), ([3], ["ints"]),
                                 ([4], ["arrays"]), ([5], ["arrays"]),
                                 ([5, 0, 3, 4, 1], ["ints", "ints", "arrays", "arrays"])):
        calls.clear()
        best_split(ranked, candidates)
        assert calls == [f"_scored_on_{path}" for path in expected], candidates


@pytest.mark.parametrize("candidates, text", [
    ([-1], "out of range: -1 (expected in 0..1)"),
    ([0, -2], "out of range: -2 (expected in 0..1)"),
    ([2], "out of range: 2 (expected in 0..1)"),
    ([1, 5, 0], "out of range: 5 (expected in 0..1)"),
    ([np.float64(0.9)], "must be an integer, got np.float64(0.9)"),
    ([1.7], "must be an integer, got 1.7"),
    ([0, "1"], "must be an integer, got '1'"),
    ([True], "must be an integer, got True"),
    ([np.int64(1)], "must be an integer, got np.int64(1)"),
])
def test_best_split_refuses_a_candidate_outside_the_columns(candidates, text):
    # -1 once scored the last column through numpy's negative indexing, and -1 is
    # the leaf marker in Nodes.feature; 2 once ended in a bare IndexError; 0.9 and
    # True were once truncated to columns 0 and 1, and '1' was read as column 1
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ranked = _ranked(X, np.array([0, 1, 0, 1]))
    with pytest.raises(ValidationError) as info:
        best_split(ranked, candidates)
    assert str(info.value) == f"candidate feature {text}"


# per column, the (TP, FP) left of its best threshold over 5,000 TP and 7,000 FP rows:
# their float scores lie within 1e-9 * n of each other, and exactly the last is the greatest
_NEAR_TIED = {2: (4663, 121), 20: (4870, 333), 40: (4767, 224)}


def test_best_split_settles_near_ties_exactly_where_the_products_pass_int64():
    rng = np.random.default_rng(5)
    y = np.repeat([1, 0], [5000, 7000])
    n, columns = len(y), []
    for levels, (tp_left, fp_left) in _NEAR_TIED.items():  # a flag, 20 and 40 values
        left = np.zeros(n, bool)
        left[:tp_left] = left[5000:5000 + fp_left] = True
        half = levels // 2
        columns.append(np.where(left, rng.integers(0, half, n), rng.integers(half, levels, n)))
    X = np.column_stack(columns).astype(float)
    tp_left, fp_left = _NEAR_TIED[40]
    n_left, n_right = tp_left + fp_left, n - tp_left - fp_left
    num = ((tp_left**2 + fp_left**2) * n_right
           + ((5000 - tp_left)**2 + (7000 - fp_left)**2) * n_left)
    assert num * n_left * n_right > 2**63  # N * D: the exact comparison needs Python ints
    ids = np.random.default_rng(6).permutation(n)
    ranked = _ranked(X, y)
    assert [len(v) for v in ranked.values] == list(_NEAR_TIED)
    tp = y[ids] == 1
    got = best_split(ranked._replace(tp_rows=ids[tp], fp_rows=ids[~tp]), [2, 0, 1])
    ref = _oracle_split(X[ids], y[ids], [0, 1, 2])
    assert got[:2] == (ref[1], ref[2]) == (2, 19.5)
    assert got[2] == pytest.approx(float(ref[0]), abs=1e-12)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _depth(nodes, node=0):
    """Longest path in edges from node to a leaf."""
    if nodes.feature[node] < 0:
        return 0
    return 1 + max(_depth(nodes, nodes.left[node]), _depth(nodes, nodes.right[node]))


def test_grow_tree_pure_input_is_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 1])
    tree = grow_tree(_ranked(X, y), ForestParams(), _rng())
    assert tree.feature.tolist() == [-1]
    assert (tree.n_tp[0], tree.n_fp[0]) == (3, 0)


def test_grow_tree_depth_one_is_at_most_a_stump():
    rng = np.random.default_rng(5)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    tree = grow_tree(_ranked(X, y), ForestParams(max_depth=1), _rng())
    assert _depth(tree) <= 1


def test_greedy_depth_two_fits_weighted_xor_with_all_features():
    # XOR pattern with the (1,1) corner doubled so the first split strictly
    # improves; depth-2 greedy growth over all features then fits exactly,
    # matching the best depth-2 tree found by exhaustive enumeration.
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0, 0])

    def grow_all_features(idx, depth):
        ys = y[idx]
        t = int(ys.sum())
        if depth >= 2 or t == 0 or t == len(idx):
            return {"tp": t, "fp": len(idx) - t}
        split = best_split(_ranked(X[idx], ys), [0, 1])
        if split is None:
            return {"tp": t, "fp": len(idx) - t}
        feat, thr, _ = split
        mask = X[idx, feat] <= thr
        return {
            "feature": feat,
            "threshold": thr,
            "left": grow_all_features(idx[mask], depth + 1),
            "right": grow_all_features(idx[~mask], depth + 1),
        }

    tree = grow_all_features(np.arange(len(y)), 0)

    def tree_accuracy(node_fn):
        hits = 0
        for row, label in zip(X, y):
            hits += int(node_fn(row) == label)
        return hits / len(y)

    def greedy_predict(row, node=tree):
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        return int(node["tp"] >= node["fp"])

    # exhaustive search over all depth-2 trees on midpoint thresholds
    def candidate_splits():
        for feat in (0, 1):
            vals = sorted(set(X[:, feat].tolist()))
            for lo, hi in zip(vals, vals[1:]):
                yield feat, (lo + hi) / 2

    def leaf_label(idx):
        ys = y[list(idx)]
        return int(ys.sum() * 2 >= len(ys))

    def side_hits(side_rows, split):
        if split is None:
            groups = [side_rows]
        else:
            f, t = split
            groups = [
                [i for i in side_rows if X[i, f] <= t],
                [i for i in side_rows if X[i, f] > t],
            ]
        hits = 0
        for grp in groups:
            if grp:
                lbl = leaf_label(grp)
                hits += sum(int(y[i] == lbl) for i in grp)
        return hits

    best_acc = 0.0
    rows = list(range(len(y)))
    child_options = list(candidate_splits()) + [None]
    for f1, t1 in candidate_splits():
        left = [i for i in rows if X[i, f1] <= t1]
        right = [i for i in rows if X[i, f1] > t1]
        if not left or not right:
            continue
        for lsplit in child_options:
            for rsplit in child_options:
                acc = (side_hits(left, lsplit) + side_hits(right, rsplit)) / len(rows)
                best_acc = max(best_acc, acc)

    greedy_acc = tree_accuracy(greedy_predict)
    assert greedy_acc == 1.0
    assert greedy_acc >= best_acc


def test_train_forest_default_shape():
    rng = np.random.default_rng(1)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, size=60)
    forest = train_forest(X, y)
    assert len(forest.roots) == 100
    assert all(_depth(forest.nodes, root) <= 6 for root in forest.roots)


def test_train_forest_deterministic_serialization():
    rng = np.random.default_rng(2)
    X = rng.random((40, 4))
    y = rng.integers(0, 2, size=40)
    buf1, buf2 = io.StringIO(), io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=7, seed=11)), buf1)
    save_forest(train_forest(X, y, ForestParams(n_estimators=7, seed=11)), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    buf3 = io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=7, seed=12)), buf3)
    assert buf3.getvalue() != buf1.getvalue()


def test_train_forest_separable_data_fits_training_set():
    rng = np.random.default_rng(3)
    n = 80
    X = rng.random((n, 3))
    y = (X[:, 1] > 0.5).astype(int)
    forest = train_forest(X, y, ForestParams(n_estimators=20))
    proba = predict_proba_batch(forest, X)
    assert ((proba >= 0.5).astype(int) == y).all()


def test_train_forest_rejects_degenerate_input():
    X = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        train_forest(X, [1, 1, 1, 1])
    with pytest.raises(ValidationError):
        train_forest(X, [0, 1, 2, 1])
    with pytest.raises(ValidationError):
        train_forest(X, [0, 1, 1])
    with pytest.raises(ValidationError):
        train_forest(np.zeros((1, 2)), [1])
    for bad in (np.nan, np.inf, -np.inf):
        X[2, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            train_forest(X, [0, 1, 0, 1])


def _leaf_forest(fractions):
    trees = [{"tp": int(f * 4), "fp": 4 - int(f * 4)} for f in fractions]
    return forest_from_dict(
        {
            "version": MODEL_FORMAT_VERSION,
            "params": {"n_estimators": len(trees)},
            "profile": None,
            "feature_names": ["a", "b"],
            "trees": trees,
        }
    )


def test_predict_proba_soft_vote_examples():
    assert predict_proba(_leaf_forest([1.0, 1.0]), [0.0, 0.0]) == 1.0
    assert predict_proba(_leaf_forest([0.0, 0.0]), [0.0, 0.0]) == 0.0
    assert predict_proba(_leaf_forest([0.25, 0.75]), [0.0, 0.0]) == 0.5


def test_predict_proba_width_mismatch():
    with pytest.raises(ValidationError):
        predict_proba(_leaf_forest([0.5]), [0.0, 0.0, 0.0])


def _predict_stage(tmp_path, forest, rows, threshold: float = 0.5) -> list[int]:
    """The labels the predict stage writes for rows: it thresholds predict_proba_batch inline."""
    model, matrix, out = (tmp_path / name for name in ("model.json", "m.csv", "p.csv"))
    with open(model, "w", encoding="utf-8") as fh:
        save_forest(forest, fh)
    lines = [forest.feature_names, *([repr(float(v)) for v in row] for row in rows)]
    matrix.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    argv = ["predict", "--in", str(matrix), "--model", str(model), "--out", str(out),
            "--threshold", repr(threshold)]
    assert cli.main(argv) == 0
    return [int(line.rsplit(",", 1)[1]) for line in out.read_text(encoding="utf-8").split()[1:]]


def test_predict_threshold_and_tie_break(tmp_path):
    forest = _leaf_forest([0.25, 0.75])  # proba 0.5
    assert _predict_stage(tmp_path, forest, [[0.0, 0.0]]) == [1]  # tie resolves to TP
    assert _predict_stage(tmp_path, _leaf_forest([1.0]), [[0.0, 0.0]], threshold=0.9) == [1]
    assert _predict_stage(tmp_path, _leaf_forest([0.25, 0.25]), [[0.0, 0.0]]) == [0]


def test_predict_threshold_validated(tmp_path, capsys):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            check_threshold(bad)
        argv = ["predict", "--in", "m.csv", "--model", "model.json",
                "--out", str(tmp_path / "p.csv"), "--threshold", repr(bad)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: threshold must be in (0, 1), got {bad}\n"


def test_raising_threshold_never_flips_fp_to_tp(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.random((50, 4))
    y = rng.integers(0, 2, size=50)
    forest = train_forest(X, y, ForestParams(n_estimators=10))
    rows = rng.random((20, 4))
    by_threshold = [_predict_stage(tmp_path, forest, rows, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for labels in zip(*by_threshold):
        assert list(labels) == sorted(labels, reverse=True)


def test_predict_proba_batch_matches_single_rows():
    rng = np.random.default_rng(9)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    forest = train_forest(X, y, ForestParams(n_estimators=9))
    rows = rng.random((12, 3))
    batch = predict_proba_batch(forest, rows)
    singles = [predict_proba(forest, row) for row in rows]
    assert batch.tolist() == pytest.approx(singles, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scoring_refuses_non_finite_features(bad):
    rng = np.random.default_rng(10)
    X = rng.random((30, 3))
    forest = train_forest(X, (X[:, 0] > 0.5).astype(int), ForestParams(n_estimators=5))
    rows = rng.random((4, 3))
    rows[2, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        predict_proba_batch(forest, rows)
    with pytest.raises(ValidationError, match="non-finite"):
        predict_proba_batch(forest, np.full((1, 3), bad))
    with pytest.raises(ValidationError, match="non-finite"):
        predict_proba(forest, [0.5, bad, 0.5])


def _walk_proba(trees, row):
    """Reference score: walk each nested model-format tree, add leaf fractions in tree order."""
    total = 0.0
    for node in trees:
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        total += node["tp"] / (node["tp"] + node["fp"])
    return total / len(trees)


def test_predict_proba_batch_equals_single_rows_across_chunks(monkeypatch):
    rng = np.random.default_rng(14)
    X = np.round(rng.random((70, 4)) * 8) / 8
    y = (X[:, 0] + X[:, 3] > 1.0).astype(int)
    forest = train_forest(X, y, ForestParams(n_estimators=11))
    trees = _saved(forest)["trees"]
    monkeypatch.setattr(forest_mod, "_CHUNK_CELLS", 3 * 11)  # 3 rows per chunk
    rows = np.round(rng.random((8, 4)) * 8) / 8
    singles = np.array([predict_proba(forest, row) for row in rows])
    assert singles.tolist() == [_walk_proba(trees, row) for row in rows]
    for n in (1, 2, 3, 4, 6, 7, 8):
        assert np.array_equal(predict_proba_batch(forest, rows[:n]), singles[:n])


def _random_tree(rng, depth, width):
    """A nested model-format tree whose deepest leaf is exactly `depth` edges down."""
    if depth == 0:
        return {"tp": int(rng.integers(0, 5)), "fp": int(rng.integers(1, 5))}
    deep = _random_tree(rng, depth - 1, width)
    other = _random_tree(rng, int(rng.integers(0, depth)), width)
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    threshold = float(np.round(rng.random() * 8) / 8)
    return {"feature": int(rng.integers(0, width)), "threshold": threshold,
            "left": left, "right": right}


def _hand_built(trees, width, max_depth):
    return forest_from_dict({
        "version": MODEL_FORMAT_VERSION,
        "params": {"n_estimators": len(trees), "max_depth": max_depth,
                   "min_samples_split": 2, "seed": 1},
        "profile": None,
        "feature_names": [f"f{j}" for j in range(width)],
        "trees": trees,
    })


def _assert_batch_is_the_walk(forest, trees, rows):
    walked = [_walk_proba(trees, row) for row in rows]
    assert predict_proba_batch(forest, rows).tolist() == walked
    assert [predict_proba(forest, row) for row in rows] == walked


def test_stumps_next_to_a_single_leaf_score_as_the_walk():
    rng = np.random.default_rng(3)
    trees = [
        {"feature": 0, "threshold": 0.5, "left": {"tp": 3, "fp": 1}, "right": {"tp": 0, "fp": 2}},
        {"tp": 2, "fp": 5},
        {"feature": 1, "threshold": 0.25, "left": {"tp": 7, "fp": 0}, "right": {"tp": 1, "fp": 6}},
    ]
    forest = _hand_built(trees, 2, max_depth=1)
    assert forest.descent.depth == 1
    _assert_batch_is_the_walk(forest, trees, np.round(rng.random((40, 2)) * 8) / 8)
    leaf_only = _hand_built([{"tp": 2, "fp": 5}], 2, max_depth=1)
    assert leaf_only.descent.depth == 0
    assert predict_proba_batch(leaf_only, rng.random((3, 2))).tolist() == [2 / 7] * 3


def test_tree_deeper_than_its_params_is_walked_to_its_leaves():
    # the descent depth comes from the nodes: a loaded model may exceed params.max_depth
    rng = np.random.default_rng(5)
    trees = [_random_tree(rng, 9, 3), _random_tree(rng, 2, 3)]
    forest = _hand_built(trees, 3, max_depth=2)
    assert forest.descent.depth == 9
    _assert_batch_is_the_walk(forest, trees, np.round(rng.random((60, 3)) * 8) / 8)


def test_mixed_depths_score_as_the_walk_across_chunk_edges(monkeypatch):
    rng = np.random.default_rng(8)
    trees = [_random_tree(rng, depth, 4) for depth in (0, 1, 7, 3, 0, 12, 2)]
    forest = _hand_built(trees, 4, max_depth=6)
    assert forest.descent.depth == 12
    rows = np.round(rng.random((23, 4)) * 8) / 8
    for rows_per_chunk in (1, 2, 5, 23, 40):
        monkeypatch.setattr(forest_mod, "_CHUNK_CELLS", rows_per_chunk * len(trees))
        _assert_batch_is_the_walk(forest, trees, rows)
        for n in (1, 4, 11):
            walked = [_walk_proba(trees, row) for row in rows[:n]]
            assert predict_proba_batch(forest, rows[:n]).tolist() == walked


def _golden_matrix():
    """The 60 x 5 quarter-step matrix and labels of the golden-digest model."""
    rng = np.random.default_rng(31)
    X = np.round(rng.random((60, 5)) * 4) / 4
    y = (X[:, 0] + X[:, 2] + 0.5 * rng.random(60) > 1.2).astype(int)
    return X, y


def test_saved_model_bytes_match_golden_digest():
    # pins the RNG draw order, the split search and the format "1" bytes:
    # the same seed must keep writing the same model
    X, y = _golden_matrix()
    buf = io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=6, seed=13)), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "d05a2ad39f99373de69eb8d8f5d403dcddbb1863d18a76869a5244777c487f12"


def test_saved_model_bytes_match_golden_digest_on_encoder_like_matrix():
    # encoder-like columns: 2 to 100 integer levels, -1 sentinels, heavily
    # duplicated rows; pins the split search where many values tie
    rng = np.random.default_rng(47)
    levels = [2, 3, 5, 9, 17, 33, 65, 100]
    base = np.column_stack([rng.integers(0, k, size=400) for k in levels]).astype(float)
    base[rng.random(base.shape) < 0.15] = -1.0
    X = base[rng.integers(0, 400, size=2000)]
    y = ((X[:, 1] + X[:, 4] > 8) ^ (rng.random(2000) < 0.15)).astype(int)
    buf = io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=10, seed=5)), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "611713d2bf0ab3c6b4edc6335017de3c3e6d301de427f366e4814fd6663f07e7"


def test_saved_model_bytes_match_golden_digest_on_flag_heavy_matrix():
    # two-valued and constant columns beside wide ones, as the encoders' flags give;
    # pins the split search where most candidates have one or two values
    X, y = _flag_heavy(np.random.default_rng(53))
    ranked = _ranked(X, y)
    assert [len(v) for v in ranked.values].count(2) == 17 and ranked.codes.dtype == np.uint16
    buf = io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=10, seed=11)), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "911fd392eabf028753e68779a2b27ab5090354f70d8887c6ab2bc922d40f436e"


def test_saved_model_bytes_match_golden_digest_on_columns_either_side_of_the_cut():
    # columns of 2, 3 and 32 values are scored on Python ints, of 33, 101 and 1,001
    # on arrays; pins the split search where both feed one pick
    X, y = _cut_crossing(np.random.default_rng(59))
    assert [len(v) for v in _ranked(X, y).values] == _CUT_LEVELS
    buf = io.StringIO()
    save_forest(train_forest(X, y, ForestParams(n_estimators=10, seed=17)), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "9007cd9e01c67d759930d5065b805a0c6844ee586092fbee829c989c737c2861"


def test_every_node_that_may_split_calls_best_split_through_the_module(monkeypatch):
    # the benchmark's tracer counts forest.best_split_calls by rebinding the module global
    calls = []
    split = forest_mod.best_split
    monkeypatch.setattr(forest_mod, "best_split", lambda *args: calls.append(1) or split(*args))
    X, y = _golden_matrix()
    forest = train_forest(X, y, ForestParams(n_estimators=6, seed=13))
    assert (len(calls), len(forest.nodes.feature)) == (70, 140)


def _reference_grow_tree(X, y, params, rng):
    """Tree growth on one index array per node, reading y[idx] and splitting
    by boolean masks: the grower that preceded rows held by class, kept as an
    oracle. Recursive, so it also checks the preorder of the explicit stack."""
    width = X.shape[1]
    n_candidates = min(params.max_features_for(width), width)
    rows = []  # [feature, threshold, left, right, n_tp, n_fp]

    def add(idx, depth):
        node = len(rows)
        ys = y[idx]
        n_tp = int(ys.sum())
        n_fp = len(idx) - n_tp
        split = None
        if depth < params.max_depth and n_tp and n_fp and len(idx) >= params.min_samples_split:
            candidates = rng.choice(width, size=n_candidates, replace=False).tolist()
            split = best_split(_ranked(X[idx], ys), candidates)
        if split is None:
            rows.append([-1, 0.0, node, node, n_tp, n_fp])
            return node
        feat, threshold, _ = split
        mask = X[idx, feat] <= threshold
        rows.append([feat, threshold, None, None, 0, 0])
        rows[node][2:4] = add(idx[mask], depth + 1), add(idx[~mask], depth + 1)
        return node

    add(np.arange(len(y)), 0)
    return forest_mod.Nodes(*(np.array(col) for col in zip(*rows)))


def _continuous(rng):
    X = rng.random((2000, 6))
    y = ((X[:, 0] + X[:, 3] > 1.0) ^ (rng.random(2000) < 0.2)).astype(int)
    return X, y


def _encoder_like(rng):
    levels = [2, 3, 5, 9, 17, 33]
    base = np.column_stack([rng.integers(0, k, size=300) for k in levels]).astype(float)
    base[rng.random(base.shape) < 0.15] = -1.0
    X = base[rng.integers(0, 300, size=1500)]
    y = ((X[:, 1] + X[:, 4] > 8) ^ (rng.random(1500) < 0.15)).astype(int)
    return X, y


def _flag_heavy(rng):
    """FULL29-like columns: 17 flags at base rates 1% to 90%, a constant, a 101-level and
    a 1,001-level column, in 600 base rows drawn 2,400 times (the codes are uint16)."""
    rates = np.linspace(0.01, 0.9, 17)
    flags = (rng.random((600, 17)) < rates).astype(float)
    base = np.column_stack([flags, np.full(600, 7.0), rng.integers(0, 101, size=600),
                            rng.integers(0, 1001, size=600)])
    X = base[rng.integers(0, 600, size=2400)]
    y = ((X[:, 3] + X[:, 12] + (X[:, 18] > 60) >= 2) ^ (rng.random(2400) < 0.1)).astype(int)
    return X, y


_CUT_LEVELS = [2, 3, 32, 33, 101, 1001]


def _cut_crossing(rng):
    """3,000 rows, every level of each of the _CUT_LEVELS columns present; the label
    reads four of them, with 15% of it flipped."""
    X = np.column_stack([rng.permutation(np.arange(3000) % k) for k in _CUT_LEVELS]).astype(float)
    y = ((X[:, 0] + (X[:, 2] > 15) + (X[:, 3] > 20) + (X[:, 5] > 500) >= 2)
         ^ (rng.random(3000) < 0.15)).astype(int)
    return X, y


@pytest.mark.parametrize("data, params", [
    (_continuous, ForestParams()),
    (_encoder_like, ForestParams()),
    (_encoder_like, ForestParams(min_samples_split=5)),
    (_continuous, ForestParams(max_depth=1)),
    (_continuous, ForestParams(max_depth=12)),
    (_encoder_like, ForestParams(max_depth=12, min_samples_split=5)),
    (_flag_heavy, ForestParams(max_depth=12)),
], ids=["continuous", "encoder-like", "min-split-5", "depth-1", "depth-12", "encoder-depth-12",
        "flag-heavy"])
@pytest.mark.parametrize("bootstrap", [False, True], ids=["all-rows", "bootstrap"])
def test_grow_tree_matches_the_index_array_reference(data, params, bootstrap):
    X, y = data(np.random.default_rng(23))
    if bootstrap:  # the reference gets the drawn rows; grow_tree gets their ids, repeats kept
        boot = np.random.default_rng(29).integers(0, len(y), size=len(y))
        expected = _reference_grow_tree(X[boot], y[boot], params, _rng(3))
        drawn = _ranked(X, y)._replace(tp_rows=boot[y[boot] == 1], fp_rows=boot[y[boot] == 0])
        got = grow_tree(drawn, params, _rng(3))
    else:
        expected = _reference_grow_tree(X, y, params, _rng(3))
        got = grow_tree(_ranked(X, y), params, _rng(3))
    assert len(expected.feature) > 1
    for name, want, have in zip(forest_mod.Nodes._fields, expected, got):
        assert want.dtype == have.dtype and np.array_equal(want, have), name


def _chain_model(depth: int) -> dict:
    """A one-tree model whose splits nest `depth` deep, built bottom-up in a loop."""
    node = {"tp": 2, "fp": 5}
    for k in reversed(range(depth)):
        leaf = {"tp": k % 3, "fp": 1 + k % 2}
        node = {"feature": k % 2, "threshold": 0.5 * k / depth, "left": leaf, "right": node}
    return {"version": MODEL_FORMAT_VERSION, "params": {}, "profile": None,
            "feature_names": ["a", "b"], "trees": [node]}


def test_model_nested_5000_deep_loads_and_scores_as_the_walk():
    obj = _chain_model(5000)
    forest = forest_from_dict(obj)
    assert forest.descent.depth == 5000
    rows = np.random.default_rng(4).random((40, 2)) * 0.6
    rows[0] = 0.55  # goes right at every split, to the deepest leaf
    _assert_batch_is_the_walk(forest, obj["trees"], rows)


@pytest.mark.parametrize("depth", [900, 985, 1500, 5000])
def test_predict_on_a_deeply_nested_model_never_prints_a_traceback(tmp_path, depth):
    # a fresh interpreter, as a user runs it: json.loads reads about 1,000 levels, so a
    # deeper file is invalid JSON; whatever it reads must load and score
    split = '{"feature": 0, "threshold": 0.5, "left": {"tp": 1, "fp": 0}, "right": '
    model, matrix, out = tmp_path / "model.json", tmp_path / "m.csv", tmp_path / "p.csv"
    model.write_text('{"version": "1", "params": {}, "profile": null, "feature_names": ["a"], '
                     '"trees": [' + split * depth + '{"tp": 0, "fp": 1}' + "}" * depth + "]}",
                     encoding="utf-8")
    matrix.write_text("a\n0.2\n0.7\n", encoding="utf-8")
    src = str(Path(forest_mod.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-m", "alert_sift.cli", "predict", "--in", str(matrix),
         "--model", str(model), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert out.read_text(encoding="utf-8") == "row,proba,label\n0,1.0,1\n1,0.0,0\n"
    else:
        assert depth > 900 and proc.returncode == 1
        assert proc.stderr.startswith("error: invalid JSON input") and proc.stderr.count("\n") == 1
        assert not out.exists()


def _writes(forest) -> list[str]:
    """The texts save_forest hands to stream.write, one per call."""
    sink, writes = io.StringIO(), []
    sink.write = writes.append
    save_forest(forest, sink)
    return writes


def _saved(forest) -> dict:
    """The model as nested dicts: json.loads of the text save_forest writes."""
    return json.loads("".join(_writes(forest)))


@pytest.mark.parametrize("data, params", [
    (lambda rng: _golden_matrix(), ForestParams(n_estimators=6, seed=13)),
    (_encoder_like, ForestParams(n_estimators=5, max_depth=12, seed=2)),
    (_continuous, ForestParams(n_estimators=3, seed=-4)),
], ids=["golden", "encoder-like-depth-12", "continuous"])
def test_saved_model_is_json_dump_bytes_one_write_per_tree(data, params):
    # save_forest writes canonical json.dumps text, a tree at a time, of the forest's nodes
    X, y = data(np.random.default_rng(23))
    forest = train_forest(X, y, params)
    writes = _writes(forest)
    text = "".join(writes)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    loaded = forest_from_dict(json.loads(text))
    for name, want, have in zip(forest_mod.Nodes._fields, forest.nodes, loaded.nodes):
        assert want.dtype == have.dtype and np.array_equal(want, have), name
    assert np.array_equal(loaded.roots, forest.roots)
    assert len(writes) == params.n_estimators + 2  # the head, each tree, the tail


# thresholds whose text is easy to get wrong: a signed zero, integer-valued floats,
# the largest finite doubles (a split past them keeps its lower value) and a subnormal
_THRESHOLDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, -3.0, 2.0**52, 1e16, 1.6e308, 1.7e308, -1.7e308, 5e-324]),
    st.integers(-(2**53), 2**53).map(float),
)
# leaf counts small or with tp + fp just below 2**53, the most a leaf may carry
_TOTALS = st.one_of(st.integers(1, 40), st.integers(2**53 - 40, 2**53 - 1))
_LEAVES = _TOTALS.flatmap(
    lambda total: st.integers(0, total).map(lambda tp: {"tp": tp, "fp": total - tp}))
_TREES = st.recursive(_LEAVES, lambda kids: st.builds(
    lambda feature, threshold, left, right: {
        "feature": feature, "threshold": threshold, "left": left, "right": right},
    st.integers(0, 2), _THRESHOLDS, kids, kids), max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TREES, min_size=1, max_size=4), st.integers(-(2**63), 2**63))
def test_saved_model_of_drawn_trees_is_json_dumps_of_them(trees, seed):
    model = {"version": MODEL_FORMAT_VERSION, "params": asdict(ForestParams(seed=seed)),
             "profile": None, "feature_names": ["a", "b", "c"], "trees": trees}
    forest = forest_from_dict(model)
    writes = _writes(forest)
    assert "".join(writes) == json.dumps(model, sort_keys=True)
    assert len(writes) == len(trees) + 2


def test_saved_threshold_and_count_texts():
    big = 2**53 - 1
    trees = [
        {"feature": 0, "threshold": -0.0, "left": {"tp": big, "fp": 0},
         "right": {"tp": 0, "fp": big}},
        {"feature": 1, "threshold": 3, "left": {"tp": 1, "fp": 1},  # a JSON integer: 3.0
         "right": {"feature": 0, "threshold": 1.7e308, "left": {"tp": 2, "fp": 0},
                   "right": {"tp": 0, "fp": 2}}},
    ]
    forest = _hand_built(trees, 2, max_depth=2)
    text = "".join(_writes(forest))
    assert json.dumps(json.loads(text), sort_keys=True) == text
    assert json.loads(text)["trees"] == trees
    assert '"trees": [{"feature": 0, "left": {"fp": 0, "tp": 9007199254740991}' in text
    assert '"threshold": -0.0}' in text and '"threshold": 3.0}' in text
    assert '"threshold": 1.7e+308}' in text


def _chain_text(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True) of a _chain_model, put together level by level.

    json.dumps recurses once per level, and since Python 3.12 no recursion limit
    lets it through 5,000 levels, so each level is dumped alone with a marker
    for its right child, and the texts are joined around the deepest leaf.
    """
    def cut(value: dict) -> list[str]:
        return json.dumps(value, sort_keys=True).split('"@"')

    head, tail = cut({**obj, "trees": ["@"]})
    opens, closes, node = [], [], obj["trees"][0]
    while "feature" in node:
        before, after = cut({**node, "right": "@"})
        opens.append(before)
        closes.append(after)
        node = node["right"]
    return head + "".join(opens) + json.dumps(node, sort_keys=True) + "".join(reversed(closes)) + tail


def test_model_nested_5000_deep_saves_and_the_bytes_fail_closed_on_load():
    # the writer needs no recursion, so any depth saves; json.loads reads about 1,000
    # levels where the recursion limit governs it, so the bytes are refused or load whole
    obj = {**_chain_model(5000), "params": asdict(ForestParams())}
    text = "".join(_writes(forest_from_dict(obj)))
    assert text == _chain_text(obj)
    try:
        loaded = load_forest(io.StringIO(text))
    except ParseError as exc:
        assert str(exc).startswith("invalid JSON input")
    else:  # its text again: a 5,000-deep dict comparison would itself recurse
        assert "".join(_writes(loaded)) == text


@pytest.mark.parametrize("levels, dtype", [([2, 17, 255, 100], np.uint8), ([2, 300, 2], np.uint16)],
                         ids=["uint8", "uint16-upcast"])
def test_rank_codes_are_the_unique_inverses_in_the_widest_columns_type(levels, dtype):
    # each column's codes narrow as they are made; all take the type of the most values
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.permutation(np.resize(np.arange(k) * 0.5 - 3, 1000)) for k in levels])
    ranked = _ranked(X, rng.integers(0, 2, 1000))
    assert ranked.codes.dtype == dtype == np.min_scalar_type(max(levels))
    for j, k in enumerate(levels):
        values, inverse = np.unique(X[:, j], return_inverse=True)
        assert len(values) == k and np.array_equal(ranked.values[j], values)
        assert np.array_equal(ranked.codes[j], inverse)


def _traced_peak(call) -> int:
    """The most memory Python's allocators (numpy's included) held during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Counter:
    """A text stream that keeps only the count of characters written to it."""

    chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def test_save_holds_under_half_of_what_one_json_dumps_string_holds():
    X, y = _encoder_like(np.random.default_rng(23))
    forest = train_forest(X, y, ForestParams(n_estimators=10, seed=5))
    obj = _saved(forest)
    text = json.dumps(obj, sort_keys=True)
    oracle = _traced_peak(lambda: json.dumps(obj, sort_keys=True))
    sink = _Counter()
    assert _traced_peak(lambda: save_forest(forest, sink)) < oracle / 2
    assert sink.chars == len(text)


def test_rank_coding_holds_under_the_int64_inverses_of_every_column():
    # encoder-like columns of 200 levels: the codes are one byte a cell, not eight
    rng = np.random.default_rng(1)
    n, width = 20_000, 20
    X = rng.integers(0, 200, size=(n, width)).astype(float)
    y = rng.integers(0, 2, size=n)
    assert _traced_peak(lambda: _ranked(X, y)) < n * width * 8


def test_model_round_trip_is_lossless():
    rng = np.random.default_rng(10)
    X = rng.random((40, 4))
    y = rng.integers(0, 2, size=40)
    forest = train_forest(X, y, ForestParams(n_estimators=5, seed=3))
    buf = io.StringIO()
    save_forest(forest, buf)
    loaded = load_forest(io.StringIO(buf.getvalue()))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.nodes, forest.nodes))
    assert np.array_equal(loaded.roots, forest.roots)
    assert loaded.params == forest.params
    assert loaded.feature_names == forest.feature_names
    assert loaded.profile == forest.profile
    buf2 = io.StringIO()
    save_forest(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize("profile", list(FeatureProfile))
def test_profile_comes_from_the_feature_names(profile):
    rng = np.random.default_rng(14)
    X = rng.random((30, profile.width))
    y = np.array([0, 1] * 15)
    names = feature_names(profile)
    params = ForestParams(n_estimators=2)
    assert train_forest(X, y, params, feature_names=names).profile is profile
    # the width alone, or the right names in another order, name no profile
    assert train_forest(X, y, params).profile is None
    obj = _saved(train_forest(X, y, params, feature_names=names[::-1]))
    assert obj["profile"] is None
    assert forest_from_dict(obj).profile is None
    obj["profile"] = profile.value  # a claim its names do not bear out
    with pytest.raises(ValidationError, match=f"^model profile {profile.value!r} does not name"):
        forest_from_dict(obj)
    obj["feature_names"] = names
    assert forest_from_dict(obj).profile is profile
    # a null claim over a profile's names, which only a hand edit writes, loads as that profile
    obj["profile"] = None
    assert _saved(forest_from_dict(obj))["profile"] == profile.value


def test_model_that_names_a_feature_twice_is_refused():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    obj = _saved(train_forest(X, [0, 1, 0, 1], ForestParams(n_estimators=2)))
    obj["feature_names"] = ["a", "a"]
    with pytest.raises(ValidationError, match="^model feature_names name 'a' twice$"):
        forest_from_dict(obj)
    # the check is the model's own, so training cannot write a model that loading refuses
    with pytest.raises(ValidationError, match="^model feature_names name 'a' twice$"):
        train_forest(X, [0, 1, 0, 1], ForestParams(n_estimators=2), feature_names=["a", "a"])


@pytest.mark.parametrize("old, new, key", [
    ('"version": "1"', '"version": "1", "version": "1"', "version"),
    ('{"feature": 0, ', '{"feature": 0, "feature": 1, ', "feature"),
], ids=["top-level", "split-node"])
def test_model_file_that_names_a_key_twice_is_refused(old, new, key):
    # json.loads alone keeps a repeated key's last value: this split once loaded on feature 1
    trees = [{"feature": 0, "threshold": 0.5, "left": {"tp": 1, "fp": 0},
              "right": {"tp": 0, "fp": 1}}]
    text = "".join(_writes(_hand_built(trees, 2, max_depth=1)))
    assert load_forest(io.StringIO(text)).nodes.feature.tolist() == [0, -1, -1]
    assert text.count(old) == 1
    with pytest.raises(ValidationError, match=f"^model file names key '{key}' twice$"):
        load_forest(io.StringIO(text.replace(old, new)))


def test_model_that_names_a_feature_by_a_non_string_is_refused():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    obj = _saved(train_forest(X, [0, 1, 0, 1], ForestParams(n_estimators=2)))
    obj["feature_names"] = ["a", 2]
    with pytest.raises(ValidationError, match="^model feature_names must be a list of strings$"):
        forest_from_dict(obj)
    # training once wrote such a model, which loading then refused
    with pytest.raises(ValidationError, match="^model feature_names must be a list of strings$"):
        train_forest(X, [0, 1, 0, 1], ForestParams(n_estimators=2), feature_names=[1, 2])


def test_model_version_field_mandatory():
    rng = np.random.default_rng(12)
    X = rng.random((10, 2))
    y = np.array([0, 1] * 5)
    obj = _saved(train_forest(X, y, ForestParams(n_estimators=2)))
    obj["version"] = "999"
    with pytest.raises(ValidationError, match="version"):
        load_forest(io.StringIO(json.dumps(obj)))
    del obj["version"]
    with pytest.raises(ValidationError, match="version"):
        load_forest(io.StringIO(json.dumps(obj)))
