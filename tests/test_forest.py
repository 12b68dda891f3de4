"""Gini splitting, tree growth, bagging, prediction, and persistence."""

from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alert_sift import forest as forest_mod
from alert_sift.errors import ValidationError
from alert_sift.features import FeatureProfile, feature_names
from alert_sift.forest import (
    MODEL_FORMAT_VERSION,
    ForestParams,
    best_split,
    forest_from_dict,
    forest_to_dict,
    grow_tree,
    load_forest,
    predict,
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
    feat, threshold, decrease = best_split(X, y, [0, 1, 2])
    assert feat == 2
    assert threshold == 0.5
    assert decrease == pytest.approx(0.5)


def test_best_split_identical_samples_returns_none():
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    assert best_split(X, y, [0, 1]) is None


def test_best_split_no_improving_split_returns_none():
    # XOR: every single split leaves both children at parent impurity
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    assert best_split(X, y, [0, 1]) is None


def test_best_split_tie_prefers_lower_feature():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    feat, _, _ = best_split(X, y, [1, 0])
    assert feat == 0


def test_best_split_tie_prefers_lower_threshold():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 0])
    _, threshold, _ = best_split(X, y, [0])
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
    got = best_split(X, y, [0, 1])
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
        got = best_split(X, y, list(range(w)))
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
    got = best_split(X, y, candidates)
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
    feat, threshold, decrease = best_split(X, y, [0])
    assert (feat, threshold) == (0, lo)
    assert decrease == pytest.approx(0.5)
    tree = grow_tree(X, y, ForestParams(), _rng())
    assert tree.feature.tolist() == [0, -1, -1]
    assert (tree.n_tp[1:].tolist(), tree.n_fp[1:].tolist()) == ([0, 2], [2, 0])


def test_best_split_threshold_past_the_largest_double_is_the_lower_value():
    lo, hi = 1.6e308, 1.7e308  # their sum overflows
    X = np.array([[lo], [lo], [hi], [hi]])
    feat, threshold, _ = best_split(X, np.array([0, 0, 1, 1]), [0])
    assert (feat, threshold) == (0, lo)


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
    tree = grow_tree(X, y, ForestParams(), _rng())
    assert tree.feature.tolist() == [-1]
    assert (tree.n_tp[0], tree.n_fp[0]) == (3, 0)


def test_grow_tree_depth_one_is_at_most_a_stump():
    rng = np.random.default_rng(5)
    X = rng.random((30, 3))
    y = rng.integers(0, 2, size=30)
    tree = grow_tree(X, y, ForestParams(max_depth=1), _rng())
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
        split = best_split(X[idx], ys, [0, 1])
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


def test_predict_threshold_and_tie_break():
    forest = _leaf_forest([0.25, 0.75])  # proba 0.5
    assert predict(forest, [0.0, 0.0]) == 1  # tie resolves to TP
    assert predict(_leaf_forest([1.0]), [0.0, 0.0], threshold=0.9) == 1
    assert predict(_leaf_forest([0.25, 0.25]), [0.0, 0.0], threshold=0.5) == 0


def test_predict_threshold_validated():
    forest = _leaf_forest([0.5])
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            predict(forest, [0.0, 0.0], threshold=bad)


def test_raising_threshold_never_flips_fp_to_tp():
    rng = np.random.default_rng(8)
    X = rng.random((50, 4))
    y = rng.integers(0, 2, size=50)
    forest = train_forest(X, y, ForestParams(n_estimators=10))
    for row in rng.random((20, 4)):
        labels = [predict(forest, row, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert labels == sorted(labels, reverse=True)


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
    with pytest.raises(ValidationError, match="non-finite"):
        predict(forest, [bad, bad, bad])


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
    trees = forest_to_dict(forest)["trees"]
    monkeypatch.setattr(forest_mod, "_CHUNK_CELLS", 3 * 11)  # 3 rows per chunk
    rows = np.round(rng.random((8, 4)) * 8) / 8
    singles = np.array([predict_proba(forest, row) for row in rows])
    assert singles.tolist() == [_walk_proba(trees, row) for row in rows]
    for n in (1, 2, 3, 4, 6, 7, 8):
        assert np.array_equal(predict_proba_batch(forest, rows[:n]), singles[:n])


def test_saved_model_bytes_match_golden_digest():
    # pins the RNG draw order, the split search and the format "1" bytes:
    # the same seed must keep writing the same model
    rng = np.random.default_rng(31)
    X = np.round(rng.random((60, 5)) * 4) / 4
    y = (X[:, 0] + X[:, 2] + 0.5 * rng.random(60) > 1.2).astype(int)
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
    obj = forest_to_dict(train_forest(X, y, params, feature_names=names[::-1]))
    assert obj["profile"] is None
    assert forest_from_dict(obj).profile is None
    obj["profile"] = profile.value  # a claim its names do not bear out
    with pytest.raises(ValidationError, match=f"^model profile {profile.value!r} does not name"):
        forest_from_dict(obj)
    obj["feature_names"] = names
    assert forest_from_dict(obj).profile is profile


def test_model_version_field_mandatory():
    rng = np.random.default_rng(12)
    X = rng.random((10, 2))
    y = np.array([0, 1] * 5)
    obj = forest_to_dict(train_forest(X, y, ForestParams(n_estimators=2)))
    obj["version"] = "999"
    with pytest.raises(ValidationError, match="version"):
        load_forest(io.StringIO(json.dumps(obj)))
    del obj["version"]
    with pytest.raises(ValidationError, match="version"):
        load_forest(io.StringIO(json.dumps(obj)))
