"""Bagged ensemble of depth-limited binary CART trees, built from scratch.

Trees greedily split on Gini impurity decrease at thresholds between
consecutive distinct feature values. Columns are rank-coded once per
forest, so a node counts its rows per value with bincount, without a sort.
Near-ties are re-compared in exact integers, so tie-breaking (lower feature,
then lower threshold) never depends on float rounding order.

Each tree trains on an n-row bootstrap draw; its RNG stream derives from
(seed, tree index) via numpy's SeedSequence/PCG64, so training is
deterministic and per-tree parallelizable. Trees grow in preorder (a node
draws its candidates, then its left subtree grows, then its right) into one
set of node arrays (Nodes) for the whole forest, plus each tree's root.

Prediction soft-votes: the mean over trees of the leaf true-positive
fraction. For a chunk of at most _CHUNK_CELLS (tree, row) pairs, every pair
steps one level down at once until all rest at leaves, which are their own
children; leaf values add up in tree order, so a row scores the same alone
(predict_proba, a batch of one) as in any batch. Models persist as format
"1": per tree, nested {feature, threshold, left, right} and {tp, fp} nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .features import FeatureProfile, as_matrix, feature_names as profile_names

MODEL_FORMAT_VERSION = "1"

# Relative float tolerance below which split scores are re-compared exactly.
_TIE_EPS = 1e-9

# Bound on the (trees x rows) working set of one scoring chunk.
_CHUNK_CELLS = 2**16


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_depth: int = 6
    min_samples_split: int = 2
    seed: int = 42

    def __post_init__(self):
        for name in ("n_estimators", "max_depth", "min_samples_split"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")

    def max_features_for(self, width: int) -> int:
        """Candidate features per node: floor(sqrt(width)), at least 1."""
        return max(1, math.isqrt(width))


class Nodes(NamedTuple):
    """Tree nodes in preorder: each node, then its left subtree, then its right."""

    feature: np.ndarray  # split feature, -1 at a leaf
    threshold: np.ndarray  # a row goes to left iff its value <= threshold
    left: np.ndarray  # child indices; a leaf is its own left and right child
    right: np.ndarray
    n_tp: np.ndarray  # a leaf's bootstrap class counts, 0 at a split
    n_fp: np.ndarray


def _preorder(root, visit) -> Nodes:
    """One tree's nodes; visit(item) gives a leaf (n_tp, n_fp) or a split
    (feature, threshold, left item, right item), called in preorder."""
    rows: list[list] = []  # [feature, threshold, left, right, n_tp, n_fp]

    def add(item) -> int:
        node = len(rows)
        out = visit(item)
        if len(out) == 2:
            rows.append([-1, 0.0, node, node, *out])
        else:
            feature, threshold, left, right = out
            rows.append([feature, threshold, None, None, 0, 0])
            rows[node][2:4] = add(left), add(right)
        return node

    add(root)
    return Nodes(*(np.array(col) for col in zip(*rows)))


@dataclass(eq=False)
class Forest:
    nodes: Nodes  # every tree's nodes, trees concatenated in order
    roots: np.ndarray  # index of each tree's root in nodes
    params: ForestParams
    feature_names: list[str]
    profile: FeatureProfile | None = None  # set when feature_names are a profile's, in order

    @property
    def width(self) -> int:
        return len(self.feature_names)


def _join(trees: Sequence[Nodes]) -> tuple[Nodes, np.ndarray]:
    """One node set for all trees, child indices shifted by each tree's offset."""
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)
    nodes = Nodes(*(np.concatenate(col) for col in zip(*trees)))
    return nodes._replace(left=nodes.left + offset, right=nodes.right + offset), roots


class Ranked(NamedTuple):
    """Rows of a rank-coded matrix: row i holds values[j][codes[j, rows[i]]] in column j."""

    values: list[np.ndarray]  # each column's distinct values, ascending: codes sort as values
    codes: np.ndarray  # (width, n), column-major
    rows: np.ndarray


def _ranked(X: np.ndarray | Ranked) -> Ranked:
    """Rank-code each column of a finite float matrix once; a Ranked passes through."""
    if isinstance(X, Ranked):
        return X
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValidationError("cannot split on non-finite values")
    columns = [np.unique(column, return_inverse=True) for column in X.T]
    values = [distinct for distinct, _ in columns]
    dtype = np.min_scalar_type(max(map(len, values), default=0))
    codes = np.array([inverse for _, inverse in columns], dtype=dtype).reshape(X.shape[::-1])
    return Ranked(values, codes, np.arange(X.shape[0]))


def best_split(
    X: np.ndarray | Ranked, y: np.ndarray, candidate_features: Sequence[int]
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, Gini decrease) over the candidates, or None.

    Thresholds are midpoints between consecutive distinct values present
    (the lower value where the midpoint rounds onto the upper or overflows).
    The split maximizing weighted Gini decrease wins; ties go to the lower
    feature index, then the lower threshold. None when no split strictly
    decreases impurity. Scores are compared as s = (tp_l^2+fp_l^2)/n_l +
    (tp_r^2+fp_r^2)/n_r, a monotone transform of the Gini decrease with the
    parent fixed; exact integers settle candidates within float tolerance.
    """
    X = _ranked(X)
    n = len(y)
    total_tp = int(y.sum())
    total_fp = n - total_tp
    parent_mass = total_tp * total_tp + total_fp * total_fp
    eps = _TIE_EPS * max(1.0, float(n))
    tp_rows, fp_rows = X.rows[y == 1], X.rows[y != 1]

    best: tuple[float, int, int, float, int] | None = None  # (score, N, D, threshold, feature)
    for feat in sorted(set(int(f) for f in candidate_features)):
        column, size = X.codes[feat], len(X.values[feat])
        tp_at = np.bincount(column.take(tp_rows), minlength=size)
        n_at = np.bincount(column.take(fp_rows), minlength=size) + tp_at
        present = n_at.nonzero()[0]  # codes of the values present, ascending
        if present.size < 2:
            continue
        tp_left = tp_at[present[:-1]].cumsum()
        n_left = n_at[present[:-1]].cumsum()
        fp_left = n_left - tp_left
        n_right = n - n_left
        mass_left = tp_left * tp_left + fp_left * fp_left
        mass_right = (total_tp - tp_left) ** 2 + (total_fp - fp_left) ** 2
        scores = mass_left / n_left + mass_right / n_right

        pick = None  # (N, D, boundary), exact max at lowest threshold
        for i in (scores >= scores.max() - eps).nonzero()[0]:
            num = int(mass_left[i]) * int(n_right[i]) + int(mass_right[i]) * int(n_left[i])
            den = int(n_left[i]) * int(n_right[i])
            if pick is None or num * pick[1] > pick[0] * den:
                pick = (num, den, int(i))
        num, den, i = pick
        lo, hi = X.values[feat][present[i:i + 2]].tolist()  # floats: an overflow gives inf
        mid = (lo + hi) / 2.0
        threshold = mid if lo <= mid < hi else lo
        score = float(scores[i])

        # a clear float win, or an exact strict one within eps; exact ties keep the lower feature
        if best is None or score > best[0] + eps or (
            score >= best[0] - eps and num * best[2] > best[1] * den
        ):
            best = (score, num, den, threshold, feat)

    # require a strict impurity decrease: s_split > s_parent, exactly
    if best is None or best[1] * n <= parent_mass * best[2]:
        return None
    _, num, den, threshold, feat = best
    decrease = (num / den - parent_mass / n) / n
    return feat, threshold, float(decrease)


def grow_tree(
    X: np.ndarray | Ranked, y: np.ndarray, params: ForestParams, rng: np.random.Generator
) -> Nodes:
    """Grow one depth-limited tree in preorder; candidate features draw from rng per node."""
    if len(y) == 0:
        raise ValidationError("cannot grow a tree on an empty sample")
    X = _ranked(X)
    codes = X.codes.take(X.rows, axis=1)  # this tree's rows, in order
    width = len(X.values)
    n_candidates = min(params.max_features_for(width), width)

    def visit(item: tuple[np.ndarray, int]) -> tuple:
        idx, depth = item
        ys = y[idx]
        n_tp = int(ys.sum())
        n_fp = len(idx) - n_tp
        split = None
        if depth < params.max_depth and n_tp and n_fp and len(idx) >= params.min_samples_split:
            candidates = rng.choice(width, size=n_candidates, replace=False)
            split = best_split(Ranked(X.values, codes, idx), ys, candidates)
        if split is None:
            return n_tp, n_fp
        feat, threshold, _ = split
        mask = (X.values[feat] <= threshold)[codes[feat].take(idx)]
        left, right = idx[mask], idx[~mask]
        assert len(left) and len(right), "split must partition the node"
        return feat, threshold, (left, depth + 1), (right, depth + 1)

    return _preorder((np.arange(len(y)), 0), visit)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, tree_index]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def train_forest(
    matrix: np.ndarray,
    labels: Sequence[int],
    params: ForestParams | None = None,
    feature_names: Sequence[str] | None = None,
) -> Forest:
    """Train the bagged ensemble; deterministic given (data, params)."""
    params = params or ForestParams()
    X = as_matrix(matrix)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ValidationError("training needs at least 2 samples")
    present = set(np.unique(y).tolist())
    if not present <= {0, 1}:
        raise ValidationError(f"labels must be 0/1, got {sorted(present)}")
    if len(present) < 2:
        raise ValidationError("training needs both classes present")

    width = X.shape[1]
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(width)]
    elif len(feature_names) != width:
        raise ValidationError(f"{len(feature_names)} names vs width {width}")
    profile = next((p for p in FeatureProfile if profile_names(p) == list(feature_names)), None)

    ranked = _ranked(X)
    trees = []
    for i in range(params.n_estimators):
        rng = _tree_rng(params.seed, i)
        bootstrap = rng.integers(0, len(y), size=len(y))
        trees.append(grow_tree(ranked._replace(rows=bootstrap), y[bootstrap], params, rng))
    return Forest(*_join(trees), params, list(feature_names), profile)


def _check_vector(forest: Forest, vector: Sequence[float]) -> np.ndarray:
    arr = np.asarray(vector, dtype=float)
    if arr.shape != (forest.width,):
        raise ValidationError(f"vector width {arr.shape} does not match forest width {forest.width}")
    return arr


def check_threshold(threshold: float) -> None:
    """Refuse a decision threshold outside (0, 1), NaN included."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")


def predict_proba(forest: Forest, vector: Sequence[float]) -> float:
    """Mean over trees of the leaf TP fraction at the vector's leaf."""
    return float(predict_proba_batch(forest, _check_vector(forest, vector)[None, :])[0])


def predict(forest: Forest, vector: Sequence[float], threshold: float = 0.5) -> int:
    """1 (TP) iff predict_proba >= threshold; ties resolve to TP."""
    check_threshold(threshold)
    return 1 if predict_proba(forest, vector) >= threshold else 0


def predict_proba_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """predict_proba of every matrix row, all trees descended at once per chunk."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != forest.width:
        raise ValidationError(f"matrix shape {X.shape} does not match forest width {forest.width}")
    if not np.isfinite(X).all():
        raise ValidationError("cannot score non-finite feature values")
    nodes, n_trees = forest.nodes, len(forest.roots)
    children = np.stack([nodes.right, nodes.left], axis=1).ravel()  # node i: 2i right, 2i+1 left
    total = np.empty(X.shape[0])
    step = max(1, _CHUNK_CELLS // n_trees)
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        cells, offset = chunk.ravel(), np.arange(chunk.shape[0]) * forest.width
        node = np.repeat(forest.roots[:, None], chunk.shape[0], axis=1)  # (trees, rows)
        feature = nodes.feature[node]
        while (feature >= 0).any():
            left = cells[offset + feature] <= nodes.threshold[node]
            node = children[2 * node + left]
            feature = nodes.feature[node]
        value = nodes.n_tp[node] / (nodes.n_tp[node] + nodes.n_fp[node])
        # cumsum adds the trees one by one in order, as a loop would; sum may pair them
        total[lo:lo + step] = np.cumsum(value, axis=0)[-1]
    return total / n_trees


def _node_to_dict(nodes: Nodes, i: int) -> dict:
    if nodes.feature[i] < 0:
        return {"tp": int(nodes.n_tp[i]), "fp": int(nodes.n_fp[i])}
    return {
        "feature": int(nodes.feature[i]),
        "threshold": float(nodes.threshold[i]),
        "left": _node_to_dict(nodes, nodes.left[i]),
        "right": _node_to_dict(nodes, nodes.right[i]),
    }


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _node_from_dict(obj, width: int) -> tuple:
    """Visit one model node, refusing any structure that scoring cannot use."""
    if not isinstance(obj, dict):
        raise ValidationError(f"model node must be an object, got {type(obj).__name__}")
    if "feature" in obj:
        missing = [key for key in ("threshold", "left", "right") if key not in obj]
        if missing:
            raise ValidationError(f"model split node lacks {', '.join(missing)}")
        feature, threshold = obj["feature"], obj["threshold"]
        if not _is_count(feature) or feature >= width:
            raise ValidationError(f"model split feature {feature!r} outside [0, {width})")
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, (int, float))
            or not math.isfinite(threshold)
        ):
            raise ValidationError(f"model split threshold {threshold!r} is not a finite number")
        return feature, float(threshold), obj["left"], obj["right"]
    n_tp, n_fp = obj.get("tp"), obj.get("fp")
    if not (_is_count(n_tp) and _is_count(n_fp)):
        raise ValidationError(
            f"model leaf counts must be non-negative integers, got tp={n_tp!r}, fp={n_fp!r}"
        )
    if n_tp + n_fp == 0:
        raise ValidationError("model leaf has tp + fp == 0 and carries no samples")
    if n_tp + n_fp >= 2**53:  # the node arrays hold int64 counts, added exactly as floats
        raise ValidationError(f"model leaf has tp + fp = {n_tp + n_fp}, not below 2**53")
    return n_tp, n_fp


def forest_to_dict(forest: Forest) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "params": asdict(forest.params),
        "profile": forest.profile.value if forest.profile else None,
        "feature_names": forest.feature_names,
        "trees": [_node_to_dict(forest.nodes, root) for root in forest.roots],
    }


def forest_from_dict(obj: dict) -> Forest:
    if not isinstance(obj, dict):
        raise ValidationError("model file must hold a JSON object")
    if obj.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {obj.get('version')!r} "
            f"(expected {MODEL_FORMAT_VERSION!r})"
        )
    try:
        params = ForestParams(**obj["params"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"model params are missing or malformed: {exc}") from None
    names, trees = obj.get("feature_names"), obj.get("trees")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValidationError("model feature_names must be a list of strings")
    profile = obj.get("profile")
    if profile is not None:
        profile = next((p for p in FeatureProfile if p.value == profile), None)
        if profile is None or profile_names(profile) != names:
            raise ValidationError(
                f"model profile {obj['profile']!r} does not name its {len(names)} features"
            )
    if not isinstance(trees, list) or not trees:
        raise ValidationError("model must hold a non-empty list of trees")
    trees = [_preorder(t, lambda obj: _node_from_dict(obj, len(names))) for t in trees]
    return Forest(*_join(trees), params, names, profile)


def save_forest(forest: Forest, stream: IO[str]) -> None:
    json.dump(forest_to_dict(forest), stream, sort_keys=True)


def load_forest(stream: IO[str]) -> Forest:
    text = stream.read()  # outside the try: a UnicodeDecodeError is a ValueError too
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, a long integer, deep nesting
        raise ParseError(f"invalid JSON input: {exc}") from None
    return forest_from_dict(obj)
