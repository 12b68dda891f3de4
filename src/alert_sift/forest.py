"""Bagged ensemble of depth-limited binary CART trees, built from scratch.

Trees greedily split on Gini impurity decrease at thresholds between
consecutive distinct feature values. Columns are rank-coded once per
forest, so a node counts its rows per value without a sort: bincount for a
column of three or more values, count_nonzero of the ones for a two-valued
column (a flag), and nothing for a constant one. A column of at most 32
values scores its thresholds in a loop on Python ints, where numpy's
per-call cost would dominate; a wider one scores them on arrays. Each
column's codes narrow as they are made, so one int64 column of codes is
alive at a time. Near-ties are re-compared in exact integers, so
tie-breaking (lower feature, then lower threshold) never depends on float
rounding order.

Each tree trains on an n-row bootstrap draw; its RNG stream derives from
(seed, tree index) via numpy's SeedSequence/PCG64, so training is
deterministic and per-tree parallelizable. A node holds the ids of its drawn
rows split by class, TP ids and FP ids (a row drawn twice is listed twice),
all indexing the forest's one code array: its class counts are the two
lengths, a split candidate is two counts over the codes of those ids, and
a split sends each class's ids left or right with compress, so no node reads
a label and no tree copies codes. Trees grow in preorder (a node draws its
candidates, then its left subtree grows, then its right) into one set of
node arrays (Nodes) for the whole forest, plus each tree's root.

Prediction soft-votes: the mean over trees of the leaf true-positive
fraction. Each Forest builds its descent table once: the children of every
node interleaved, every leaf's TP fraction, and the depth of its deepest
tree, counted from the nodes (a loaded model may be deeper than its
params.max_depth). For a chunk of at most _CHUNK_CELLS (tree, row) pairs,
every pair steps one level down at once, exactly that many times; a leaf is
its own child, so a pair that reaches one stays there. Leaf values add up in
tree order, so a row scores the same alone (predict_proba, a batch of one)
as in any batch. Models persist as format "1": per tree, nested {feature,
threshold, left, right} and {tp, fp} nodes, the bytes json.dumps gives with
sorted keys. save_forest, the one writer, writes them tree by tree from the
node arrays, with an explicit stack and no recursion, so a model of any
depth saves. load_forest reads the file with errors.load_json, so a model
file that names a key twice, in any object, is refused as a config file is.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError, check_int, check_number, load_json
from .features import (
    FeatureProfile,
    as_labeled_matrix,
    as_matrix,
    feature_names as profile_names,
)

MODEL_FORMAT_VERSION = "1"
THRESHOLD = 0.5  # the default decision threshold: a row that scores at least this is a TP

# Relative float tolerance below which split scores are re-compared exactly.
_TIE_EPS = 1e-9

# A split candidate of at most this many values is scored on Python ints, a wider
# one on arrays: about 20 numpy calls cost a candidate as much as a loop over ~32 values.
_FEW_VALUES = 32

# Bound on the (trees x rows) working set of one scoring chunk.
_CHUNK_CELLS = 2**16


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = field(default=100, metadata={"least": 1})
    max_depth: int = field(default=6, metadata={"least": 1})
    min_samples_split: int = field(default=2, metadata={"least": 1})
    seed: int = 42

    def __post_init__(self):
        for spec in fields(self):
            check_int(spec.name, getattr(self, spec.name), spec.metadata.get("least"))

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
    (feature, threshold, left item, right item), called in preorder.

    An explicit stack, not recursion, so a tree of any depth loads."""
    rows: list[list] = []  # [feature, threshold, left, right, n_tp, n_fp]
    stack = [(root, None, 0)]  # (item, parent node, its column for this child)
    while stack:
        item, parent, side = stack.pop()
        node = len(rows)
        if parent is not None:
            rows[parent][side] = node
        out = visit(item)
        if len(out) == 2:
            rows.append([-1, 0.0, node, node, *out])
        else:
            feature, threshold, left, right = out
            rows.append([feature, threshold, None, None, 0, 0])
            stack += [(right, node, 3), (left, node, 2)]  # left pops first: preorder
    return Nodes(*(np.array(col) for col in zip(*rows)))


class Descent(NamedTuple):
    """What scoring reads of a forest, built once per Forest."""

    children: np.ndarray  # node i's right child at 2i, its left at 2i + 1
    value: np.ndarray  # a leaf's TP fraction n_tp / (n_tp + n_fp), 0 at a split
    depth: int  # edges from a root to the deepest leaf of any tree


def _descent(nodes: Nodes, roots: np.ndarray) -> Descent:
    leaf = nodes.feature < 0
    value = np.zeros(len(leaf))
    value[leaf] = nodes.n_tp[leaf] / (nodes.n_tp[leaf] + nodes.n_fp[leaf])
    level, depth = roots, 0
    while True:
        split = level[~leaf[level]]
        if not split.size:
            break
        level, depth = np.concatenate([nodes.left[split], nodes.right[split]]), depth + 1
    children = np.stack([nodes.right, nodes.left], axis=1).ravel()
    return Descent(children, value, depth)


@dataclass(eq=False)
class Forest:
    nodes: Nodes  # every tree's nodes, trees concatenated in order
    roots: np.ndarray  # index of each tree's root in nodes
    params: ForestParams
    feature_names: list[str]
    descent: Descent = field(init=False, repr=False)

    def __post_init__(self):
        names = self.feature_names
        if not all(isinstance(n, str) for n in names):
            raise ValidationError("model feature_names must be a list of strings")
        if len(set(names)) != len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValidationError(f"model feature_names name {twice!r} twice")
        self.descent = _descent(self.nodes, self.roots)

    @property
    def width(self) -> int:
        return len(self.feature_names)

    @property
    def profile(self) -> FeatureProfile | None:
        return _named_profile(self.feature_names)


def _named_profile(names: list[str]) -> FeatureProfile | None:
    """The profile whose feature names are `names`, in order, or None."""
    return next((p for p in FeatureProfile if profile_names(p) == names), None)


def _join(trees: Sequence[Nodes]) -> tuple[Nodes, np.ndarray]:
    """One node set for all trees, child indices shifted by each tree's offset."""
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)
    nodes = Nodes(*(np.concatenate(col) for col in zip(*trees)))
    return nodes._replace(left=nodes.left + offset, right=nodes.right + offset), roots


class Ranked(NamedTuple):
    """Rows of a rank-coded matrix by class: row i holds values[j][codes[j, i]] in column j."""

    values: list[np.ndarray]  # each column's distinct values, ascending: codes sort as values
    codes: np.ndarray  # (width, n), column-major
    tp_rows: np.ndarray  # ids of the TP rows, a repeated id once per copy
    fp_rows: np.ndarray  # ids of the FP rows, likewise


def _ranked(X: np.ndarray, y: Sequence[int]) -> Ranked:
    """Rank-code each column of a labeled matrix once, rows split by class."""
    X, y = as_labeled_matrix(X, y)
    columns = [_coded(column) for column in X.T]
    values = [distinct for distinct, _ in columns]
    dtype = np.min_scalar_type(max(map(len, values), default=0))
    codes = np.array([inverse for _, inverse in columns], dtype=dtype).reshape(X.shape[::-1])
    return Ranked(values, codes, *_split(np.arange(len(y)), y == 1))


def _coded(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a column's distinct values, its codes in the least type they need).

    np.unique's int64 inverse is freed on return, so one is alive at a time.
    """
    distinct, inverse = np.unique(column, return_inverse=True)
    return distinct, inverse.astype(np.min_scalar_type(len(distinct)))


def _split(rows: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the rows where mask holds, the rest), each in order."""
    return rows.compress(mask), rows.compress(~mask)


def best_split(rows: Ranked, candidate_features: Sequence[int]) -> tuple[int, float, float] | None:
    """Best (feature, threshold, Gini decrease) over the candidates, or None.

    Each candidate must be an int in 0..width-1. A candidate counts its rows
    per value, by class: two bincounts over the codes, or, for a two-valued
    column, the count of code 1 in each class; a one-valued column is
    skipped. A column of at most _FEW_VALUES values is scored on Python
    ints, a wider one on arrays; both give each threshold's (score, N, D,
    code below, code above) to one pick. Thresholds are midpoints between
    consecutive distinct values present (the lower value where the midpoint
    rounds onto the upper or overflows).
    The split maximizing weighted Gini decrease wins; ties go to the lower
    feature index, then the lower threshold. None when no split strictly
    decreases impurity. Scores are compared as s = (tp_l^2+fp_l^2)/n_l +
    (tp_r^2+fp_r^2)/n_r = N/D, a monotone transform of the Gini decrease with
    the parent fixed; exact integers N and D settle candidates within float
    tolerance.
    """
    total_tp, total_fp = len(rows.tp_rows), len(rows.fp_rows)
    n = total_tp + total_fp
    parent_mass = total_tp * total_tp + total_fp * total_fp
    eps = _TIE_EPS * max(1.0, float(n))
    for feat in candidate_features:
        check_int("candidate feature", feat, 0, len(rows.values) - 1)

    best: tuple | None = None  # (score, N, D, code below, code above, feature)
    for feat in sorted(set(candidate_features)):
        column, size = rows.codes[feat], len(rows.values[feat])
        if size < 2:  # a constant column
            continue
        if size == 2:  # codes 0 and 1: count the ones
            tp_one = int(np.count_nonzero(column.take(rows.tp_rows)))
            fp_one = int(np.count_nonzero(column.take(rows.fp_rows)))
            scored = _scored_on_ints([total_tp - tp_one, tp_one], [total_fp - fp_one, fp_one],
                                     total_tp, total_fp)
        else:
            tp_at = np.bincount(column.take(rows.tp_rows), minlength=size)
            fp_at = np.bincount(column.take(rows.fp_rows), minlength=size)
            if size <= _FEW_VALUES:
                scored = _scored_on_ints(tp_at.tolist(), fp_at.tolist(), total_tp, total_fp)
            else:
                scored = _scored_on_arrays(tp_at, fp_at, total_tp, total_fp, eps)
        if not scored:  # one value present
            continue
        top = max(scored)[0] - eps
        pick = None  # exact max at lowest threshold, among those within eps of the top
        for item in scored:
            if item[0] >= top and (pick is None or item[1] * pick[2] > pick[1] * item[2]):
                pick = item
        score, num, den = pick[:3]
        # a clear float win, or an exact strict one within eps; exact ties keep the lower feature
        if best is None or score > best[0] + eps or (
            score >= best[0] - eps and num * best[2] > best[1] * den
        ):
            best = (*pick, feat)

    # require a strict impurity decrease: s_split > s_parent, exactly
    if best is None or best[1] * n <= parent_mass * best[2]:
        return None
    _, num, den, below, above, feat = best
    lo, hi = rows.values[feat].item(below), rows.values[feat].item(above)
    mid = (lo + hi) / 2.0  # floats: an overflow gives inf
    threshold = mid if lo <= mid < hi else lo
    decrease = (num / den - parent_mass / n) / n
    return feat, threshold, float(decrease)


def _scored_on_ints(tp_at: list[int], fp_at: list[int], total_tp: int, total_fp: int) -> list:
    """(score, N, D, code below, code above) of each threshold between present codes."""
    n = total_tp + total_fp
    scored, tp_left, fp_left, below = [], 0, 0, None
    for code, (tp, fp) in enumerate(zip(tp_at, fp_at)):
        if not (tp or fp):
            continue
        if below is not None:
            n_left, tp_right, fp_right = tp_left + fp_left, total_tp - tp_left, total_fp - fp_left
            n_right = n - n_left
            mass_left = tp_left * tp_left + fp_left * fp_left
            mass_right = tp_right * tp_right + fp_right * fp_right
            score = float(mass_left) / n_left + float(mass_right) / n_right  # as arrays divide
            scored.append((score, mass_left * n_right + mass_right * n_left, n_left * n_right,
                           below, code))
        tp_left, fp_left, below = tp_left + tp, fp_left + fp, code
    return scored


def _scored_on_arrays(tp_at: np.ndarray, fp_at: np.ndarray, total_tp: int, total_fp: int,
                      eps: float) -> list:
    """_scored_on_ints' items for the thresholds scoring within eps of the best only."""
    present = (tp_at + fp_at).nonzero()[0]  # codes of the values present, ascending
    if present.size < 2:
        return []
    tp_left, fp_left = tp_at[present[:-1]].cumsum(), fp_at[present[:-1]].cumsum()
    n_left = tp_left + fp_left
    n_right = (total_tp + total_fp) - n_left
    mass_left = tp_left * tp_left + fp_left * fp_left
    mass_right = (total_tp - tp_left) ** 2 + (total_fp - fp_left) ** 2
    scores = mass_left / n_left + mass_right / n_right
    near = (scores >= scores.max() - eps).nonzero()[0]
    items = (a[near].tolist() for a in (scores, mass_left, n_left, mass_right, n_right,
                                        present[:-1], present[1:]))
    return [(s, ml * nr + mr * nl, nl * nr, below, above)  # N and D on Python ints
            for s, ml, nl, mr, nr, below, above in zip(*items)]


def grow_tree(rows: Ranked, params: ForestParams, rng: np.random.Generator) -> Nodes:
    """Grow one depth-limited tree on rows in preorder; candidate features draw from rng per node.

    Each node holds its TP row ids and its FP row ids; a split sends each
    class's ids left or right by the code of the split value."""
    if not len(rows.tp_rows) + len(rows.fp_rows):
        raise ValidationError("cannot grow a tree on an empty sample")
    width = len(rows.values)
    n_candidates = params.max_features_for(width)

    def visit(item: tuple[np.ndarray, np.ndarray, int]) -> tuple:
        tp_rows, fp_rows, depth = item
        n_tp, n_fp = len(tp_rows), len(fp_rows)
        split = None
        if depth < params.max_depth and n_tp and n_fp and n_tp + n_fp >= params.min_samples_split:
            candidates = rng.choice(width, size=n_candidates, replace=False).tolist()
            split = best_split(rows._replace(tp_rows=tp_rows, fp_rows=fp_rows), candidates)
        if split is None:
            return n_tp, n_fp
        feat, threshold, _ = split
        go_left, column = rows.values[feat] <= threshold, rows.codes[feat]
        tp_left, tp_right = _split(tp_rows, go_left.take(column.take(tp_rows)))
        fp_left, fp_right = _split(fp_rows, go_left.take(column.take(fp_rows)))
        assert len(tp_left) + len(fp_left) and len(tp_right) + len(fp_right), \
            "split must partition the node"
        return feat, threshold, (tp_left, fp_left, depth + 1), (tp_right, fp_right, depth + 1)

    return _preorder((rows.tp_rows, rows.fp_rows, 0), visit)


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
    ranked = _ranked(matrix, labels)
    n_tp, n_fp = len(ranked.tp_rows), len(ranked.fp_rows)
    if n_tp + n_fp < 2:
        raise ValidationError("training needs at least 2 samples")
    if not (n_tp and n_fp):
        raise ValidationError("training needs both classes present")

    width = len(ranked.values)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(width)]
    elif len(feature_names) != width:
        raise ValidationError(f"{len(feature_names)} names vs width {width}")

    n = n_tp + n_fp
    is_tp = np.zeros(n, dtype=bool)
    is_tp[ranked.tp_rows] = True
    trees = []
    for i in range(params.n_estimators):
        rng = _tree_rng(params.seed, i)
        bootstrap = rng.integers(0, n, size=n)
        sample = Ranked(ranked.values, ranked.codes, *_split(bootstrap, is_tp.take(bootstrap)))
        trees.append(grow_tree(sample, params, rng))
    return Forest(*_join(trees), params, list(feature_names))


def _scored(forest: Forest, rows: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """as_matrix of rows, refused unless it is as wide as the forest."""
    X = as_matrix(rows)
    if X.shape[1] != forest.width:
        raise ValidationError(f"matrix width {X.shape[1]} does not match forest width {forest.width}")
    return X


def check_threshold(threshold: float) -> None:
    """Refuse a decision threshold that is not a number or lies outside (0, 1), NaN included."""
    check_number("threshold", threshold)
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")


def predict_proba(forest: Forest, vector: Sequence[float]) -> float:
    """Mean over trees of the leaf TP fraction at the vector's leaf."""
    return float(predict_proba_batch(forest, [vector])[0])


def predict_proba_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """predict_proba of every matrix row, all trees descended at once per chunk."""
    X = _scored(forest, X)
    feature, threshold = forest.nodes.feature, forest.nodes.threshold
    children, value, depth = forest.descent
    n_trees = len(forest.roots)
    total = np.empty(X.shape[0])
    step = max(1, _CHUNK_CELLS // n_trees)
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        cells, offset = chunk.ravel(), np.arange(chunk.shape[0]) * forest.width
        node = np.repeat(forest.roots[:, None], chunk.shape[0], axis=1)  # (trees, rows)
        for _ in range(depth):  # a leaf's feature -1 reads some cell; its children are itself
            left = cells.take(offset + feature.take(node)) <= threshold.take(node)
            node = children.take(2 * node + left)
        # cumsum adds the trees one by one in order, as a loop would; sum may pair them
        total[lo:lo + step] = np.cumsum(value.take(node), axis=0)[-1]
    return total / n_trees


def _node_from_dict(obj, width: int) -> tuple:
    """Visit one model node, refusing any structure that scoring cannot use."""
    if not isinstance(obj, dict):
        raise ValidationError(f"model node must be an object, got {type(obj).__name__}")
    if "feature" in obj:
        missing = [key for key in ("threshold", "left", "right") if key not in obj]
        if missing:
            raise ValidationError(f"model split node lacks {', '.join(missing)}")
        feature, threshold = obj["feature"], obj["threshold"]
        check_int("model split feature", feature, 0, width - 1)
        check_number("model split threshold", threshold)
        if not math.isfinite(threshold):
            raise ValidationError(f"model split threshold {threshold!r} is not a finite number")
        return feature, float(threshold), obj["left"], obj["right"]
    n_tp, n_fp = obj.get("tp"), obj.get("fp")
    check_int("model leaf tp", n_tp, 0)
    check_int("model leaf fp", n_fp, 0)
    if n_tp + n_fp == 0:
        raise ValidationError("model leaf has tp + fp == 0 and carries no samples")
    if n_tp + n_fp >= 2**53:  # the node arrays hold int64 counts, added exactly as floats
        raise ValidationError(f"model leaf has tp + fp = {n_tp + n_fp}, not below 2**53")
    return n_tp, n_fp


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
        raise ValidationError(f"model params are missing or malformed: {exc!r}") from None
    names, trees = obj.get("feature_names"), obj.get("trees")
    if not isinstance(names, list):
        raise ValidationError("model feature_names must be a list of strings")
    if not names:
        raise ValidationError("model feature_names is empty: a model needs at least one feature")
    claim, profile = obj.get("profile"), _named_profile(names)
    if claim is not None and (profile is None or profile.value != claim):
        raise ValidationError(f"model profile {claim!r} does not name its {len(names)} features")
    if not isinstance(trees, list) or not trees:
        raise ValidationError("model must hold a non-empty list of trees")
    trees = [_preorder(t, lambda obj: _node_from_dict(obj, len(names))) for t in trees]
    return Forest(*_join(trees), params, names)


def _cut(*keys: str) -> list[str]:
    """json.dumps(sort_keys=True) of an object whose keys hold a marker, split at the markers."""
    return json.dumps(dict.fromkeys(keys, "\0"), sort_keys=True).split(json.dumps("\0"))


# a split node's text, between its subtrees, and a leaf's: format "1" as json.dumps writes it
_SPLIT = _cut("feature", "left", "right", "threshold")
_OPEN, _RIGHT, _CLOSE = "%d".join(_SPLIT[:2]), _SPLIT[2], "%r".join(_SPLIT[3:])
_LEAF = "%d".join(_cut("fp", "tp"))


def save_forest(forest: Forest, stream: IO[str]) -> None:
    """Write model format "1", the bytes json.dumps(sort_keys=True) gives, one write per tree.

    The head and tail are json.dumps of the model with no trees. Each tree's
    text comes from the node arrays in one pass over an explicit stack, so
    neither a nested dict nor recursion is needed."""
    model = {
        "version": MODEL_FORMAT_VERSION,
        "params": asdict(forest.params),
        "profile": forest.profile.value if forest.profile else None,
        "feature_names": forest.feature_names,
        "trees": [],
    }
    head, tail = json.dumps(model, sort_keys=True).split('"trees": []')
    feature, threshold, left, right, n_tp, n_fp = (col.tolist() for col in forest.nodes)
    stream.write(head + '"trees": [')
    separator = ""
    for root in forest.roots.tolist():
        parts, stack = [], [root]
        while stack:
            item = stack.pop()
            if type(item) is str:  # the text between or after a split's subtrees
                parts.append(item)
            elif feature[item] < 0:
                parts.append(_LEAF % (n_fp[item], n_tp[item]))
            else:
                parts.append(_OPEN % feature[item])
                stack += [_CLOSE % threshold[item], right[item], _RIGHT, left[item]]
        stream.write(separator + "".join(parts))
        separator = json.JSONEncoder.item_separator
    stream.write("]" + tail)


def load_forest(stream: IO[str]) -> Forest:
    return forest_from_dict(load_json(stream.read(), "model file"))
