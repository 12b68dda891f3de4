"""Shapley attribution tests against an exhaustive subset-enumeration oracle."""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np
import pytest

from alert_sift import attribution
from alert_sift.attribution import Attribution, expected_value, global_importance, tree_shap
from alert_sift.errors import ValidationError
from alert_sift.forest import (
    MODEL_FORMAT_VERSION,
    ForestParams,
    forest_from_dict,
    forest_to_dict,
    predict_proba,
    predict_proba_batch,
    train_forest,
)

# Reference trees are nested model-format dicts: a split is
# {feature, threshold, left, right}, a leaf {tp, fp}.


def _leaf(n_tp, n_fp):
    return {"tp": n_tp, "fp": n_fp}


def _split(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def _n_samples(node):
    if "feature" not in node:
        return node["tp"] + node["fp"]
    return _n_samples(node["left"]) + _n_samples(node["right"])


def _cond_exp(node, row, subset):
    # conditional expectation: follow the branch when the split feature is in
    # the subset, otherwise average children by training-sample counts
    if "feature" not in node:
        return node["tp"] / (node["tp"] + node["fp"])
    if node["feature"] in subset:
        child = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        return _cond_exp(child, row, subset)
    n_left, n_right = _n_samples(node["left"]), _n_samples(node["right"])
    return (
        n_left * _cond_exp(node["left"], row, subset)
        + n_right * _cond_exp(node["right"], row, subset)
    ) / (n_left + n_right)


def _brute_phi(root, row, width):
    phi = [0.0] * width
    for i in range(width):
        others = [f for f in range(width) if f != i]
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                weight = factorial(r) * factorial(width - r - 1) / factorial(width)
                subset = set(combo)
                phi[i] += weight * (
                    _cond_exp(root, row, subset | {i}) - _cond_exp(root, row, subset)
                )
    return phi


def _forest_of(trees, width):
    return forest_from_dict(
        {
            "version": MODEL_FORMAT_VERSION,
            "params": {"n_estimators": len(trees)},
            "profile": None,
            "feature_names": [f"f{j}" for j in range(width)],
            "trees": trees,
        }
    )


def _stump(feature=0, threshold=0.5, left=(3, 1), right=(1, 3)):
    return _split(feature, threshold, _leaf(*left), _leaf(*right))


def test_single_leaf_gives_zero_phi():
    forest = _forest_of([_leaf(3, 1)], width=2)
    attr = tree_shap(forest, [0.4, 0.9])
    assert attr.phi == (0.0, 0.0)
    assert attr.base_value == 0.75
    assert attr.total == 0.75


def test_stump_attribution_by_hand():
    # base = (4*0.75 + 4*0.25)/8 = 0.5; a row routed left gets phi_0 = 0.25
    forest = _forest_of([_stump()], width=2)
    attr = tree_shap(forest, [0.2, 0.7])
    assert attr.base_value == pytest.approx(0.5)
    assert attr.phi[0] == pytest.approx(0.25)
    assert attr.phi[1] == 0.0
    attr_right = tree_shap(forest, [0.9, 0.7])
    assert attr_right.phi[0] == pytest.approx(-0.25)


def test_unused_feature_gets_zero_attribution():
    # dummy axiom: splitting only on feature 1 leaves feature 0 at zero
    rng = np.random.default_rng(21)
    forest = _forest_of([_stump(feature=1)], width=3)
    for row in rng.random((10, 3)):
        attr = tree_shap(forest, row)
        assert attr.phi[0] == 0.0
        assert attr.phi[2] == 0.0


def test_expected_value_is_count_weighted_leaf_mean():
    tree = _stump(left=(2, 0), right=(0, 6))
    assert expected_value(_forest_of([tree], width=2)) == pytest.approx(2 / 8)
    assert expected_value(_forest_of([_leaf(1, 4)], width=2)) == pytest.approx(0.2)


def test_local_accuracy_on_trained_forests():
    rng = np.random.default_rng(22)
    X = rng.random((60, 5))
    y = (X[:, 0] + X[:, 3] > 1.0).astype(int)
    forest = train_forest(X, y, ForestParams(n_estimators=15, max_depth=4))
    for row in rng.random((25, 5)):
        attr = tree_shap(forest, row)
        assert attr.total == pytest.approx(predict_proba(forest, row), abs=1e-9)


def _path_features(node, path=()):
    """Split features of every root-to-leaf path."""
    if "feature" not in node:
        return [path]
    path = path + (node["feature"],)
    return _path_features(node["left"], path) + _path_features(node["right"], path)


def test_matches_exhaustive_shapley_on_random_forests():
    rng = np.random.default_rng(23)
    # shallow forests of width 2-4 on random labels, then depth-6 forests of
    # width 5-6 on parity labels, whose paths carry up to 6 unique features
    # and repeated ones
    configs = [(2, 5, 8, 25, 3, 3)] * 10 + [(5, 7, 60, 90, 6, 4)] * 4
    widest, repeats = 0, False
    for lo_width, hi_width, lo_n, hi_n, depth, levels in configs:
        width = int(rng.integers(lo_width, hi_width))
        n = int(rng.integers(lo_n, hi_n))
        X = rng.integers(0, levels, size=(n, width)).astype(float)
        y = rng.integers(0, 2, size=n) if depth == 3 else (X.sum(axis=1) % 2).astype(int)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        forest = train_forest(
            X, y, ForestParams(n_estimators=3, max_depth=depth, seed=int(rng.integers(1000)))
        )
        trees = forest_to_dict(forest)["trees"]
        paths = [p for tree in trees for p in _path_features(tree)]
        widest = max([widest] + [len(set(p)) for p in paths])
        repeats = repeats or any(len(set(p)) < len(p) for p in paths)
        for row in rng.integers(0, levels, size=(4, width)).astype(float):
            attr = tree_shap(forest, row)
            expected = np.zeros(width)
            for tree in trees:
                expected += _brute_phi(tree, row, width)
            expected /= len(trees)
            assert np.abs(np.asarray(attr.phi) - expected).max() < 1e-9
    assert widest == 6 and repeats


def test_repeated_split_feature_on_path():
    # same feature twice on one path exercises the unwind/re-extend branch
    inner = _split(0, 0.25, _leaf(4, 0), _leaf(1, 3))
    root = _split(0, 0.75, inner, _leaf(0, 8))
    forest = _forest_of([root], width=2)
    for x0 in (0.1, 0.5, 0.9):
        attr = tree_shap(forest, [x0, 0.0])
        ref = _brute_phi(root, np.array([x0, 0.0]), 2)
        assert attr.phi == pytest.approx(ref, abs=1e-12)
        assert attr.total == pytest.approx(_cond_exp(root, [x0, 0.0], {0, 1}), abs=1e-12)


def test_chain_of_64_distinct_features_is_locally_accurate():
    # one path holds 64 unique features: more pattern bits than an int64 key
    depth, width = 64, 66
    node = _leaf(3, 2)
    for k in reversed(range(depth)):
        node = _split(k, 0.5, _leaf(k % 3, 1 + k % 2), node)
    forest = _forest_of([node], width)
    rng = np.random.default_rng(27)
    rows = np.vstack([rng.random((20, width)), 0.5 + 0.5 * rng.random((20, width))])
    rows[np.arange(20, 40), rng.integers(0, depth, size=20)] = 0.25  # leave at varied depths
    for row in rows:
        attr = tree_shap(forest, row)
        assert attr.total == pytest.approx(predict_proba(forest, row), abs=1e-9)
        assert attr.phi[depth:] == (0.0, 0.0)
    assert tree_shap(forest, np.ones(width)).total == pytest.approx(0.6, abs=1e-9)


def test_width_mismatch_rejected():
    forest = _forest_of([_stump()], width=2)
    with pytest.raises(ValidationError):
        tree_shap(forest, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attribution_refuses_non_finite_features(bad):
    rng = np.random.default_rng(12)
    X = rng.random((30, 3))
    forest = train_forest(X, (X[:, 2] > 0.5).astype(int), ForestParams(n_estimators=5))
    with pytest.raises(ValidationError, match="non-finite"):
        tree_shap(forest, [0.5, bad, 0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        tree_shap(forest, [bad, bad, bad])
    rows = rng.random((4, 3))
    rows[3, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        global_importance(forest, rows)
    with pytest.raises(ValidationError, match="non-finite"):
        global_importance(forest, np.full((2, 3), bad))


def test_global_importance_all_leaves_is_zero():
    forest = _forest_of([_leaf(2, 2), _leaf(1, 0)], width=2)
    ranked = global_importance(forest, np.random.default_rng(24).random((5, 2)))
    assert ranked == [("f0", 0.0), ("f1", 0.0)]


def test_global_importance_ranks_split_feature_first():
    forest = _forest_of([_stump(feature=1)], width=3)
    rng = np.random.default_rng(25)
    ranked = global_importance(forest, rng.random((20, 3)))
    assert ranked[0][0] == "f1"
    assert ranked[0][1] > 0.0
    assert [name for name, _ in ranked[1:]] == ["f0", "f2"]
    assert all(score == 0.0 for _, score in ranked[1:])


def test_global_importance_invariant_under_row_duplication():
    rng = np.random.default_rng(26)
    X = rng.random((30, 4))
    y = rng.integers(0, 2, size=30)
    forest = train_forest(X, y, ForestParams(n_estimators=5, max_depth=3))
    rows = rng.random((6, 4))
    once = global_importance(forest, rows)
    twice = global_importance(forest, np.vstack([rows, rows]))
    assert [n for n, _ in once] == [n for n, _ in twice]
    for (_, a), (_, b) in zip(once, twice):
        assert a == pytest.approx(b, abs=1e-12)


def test_global_importance_is_mean_abs_row_phi_across_chunks(monkeypatch):
    rng = np.random.default_rng(28)
    X = rng.random((80, 5))
    y = (X[:, 1] + X[:, 4] > 1.0).astype(int)
    forest = train_forest(X, y, ForestParams(n_estimators=8, max_depth=5))
    rows = rng.random((50, 5))
    paths = attribution._flatten(forest)
    cells = max(paths.edge_feature.size, paths.z.size)
    monkeypatch.setattr(attribution, "_CHUNK_CELLS", 7 * cells)  # 7 full chunks and a row
    ranked = dict(global_importance(forest, rows))
    per_row = np.array([tree_shap(forest, row).phi for row in rows])
    expected = np.abs(per_row).mean(axis=0)
    for j, name in enumerate(forest.feature_names):
        assert ranked[name] == pytest.approx(expected[j], abs=1e-12)
    base, phi = attribution._shap_batch(forest, rows)
    assert np.abs(base + phi.sum(axis=1) - predict_proba_batch(forest, rows)).max() < 1e-12


def test_attribution_total_property():
    attr = Attribution(base_value=0.4, phi=(0.1, -0.05, 0.2))
    assert attr.total == pytest.approx(0.65)
