"""Exact per-feature Shapley attributions for forest predictions.

Path-dependent TreeSHAP (Lundberg et al. 2020, "From local explanations to
global understanding with explainable AI for trees", Alg. 2) as one numpy
pass over a batch of rows, sharing per-leaf terms across rows as in Fast
TreeSHAP v2 (Yang 2021, arXiv:2109.09847). The forest's node arrays give,
walking each leaf up its parent pointers, per-leaf records: the value v; the
path's unique split features, each with cover fraction z_k (the product over
that feature's edges); the edge tests. A row follows every edge of feature k
(o_k = 1) or not (o_k = 0), and feature i of a leaf with m path features gets

    v (o_i - z_i) prod_{zeros} z sum_t w(|A|-t) e_t(z_A),  w(s) = s!(m-1-s)!/m!
      = v (o_i - z_i) integral_0^1 prod_{k != i} ((1-q) z_k + q o_k) dq

(A: the other followed features; e_t: elementary symmetric polynomials; w as
a Beta integral). The integrand has degree m-1 and positive factors, so
ceil(m/2)-node Gauss-Legendre quadrature is exact and nothing cancels at any
depth. The term is evaluated once per distinct (leaf, pattern) pair in a
chunk of rows (at most 2^depth patterns per leaf), found by sorting leaf ids
and patterns packed into bytes, for any path length. A chunk holds at most
_CHUNK_CELLS (row, path edge or slot) cells, bounding memory for any batch.
base_value + sum(phi) equals predict_proba to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .forest import Forest, _scored

# Bound on the (rows x path cells) working set of one chunk.
_CHUNK_CELLS = 2**18


@dataclass(frozen=True)
class Attribution:
    """Per-feature contributions phi and the model's expected output."""

    base_value: float
    phi: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.base_value + sum(self.phi)


class _Paths(NamedTuple):
    value: np.ndarray  # (L,) leaf values
    feature: np.ndarray  # (L, D) unique path features, padded to D slots
    z: np.ndarray  # (L, D) their cover fractions, 1 in padding
    used: np.ndarray  # (L, D) real slots
    edge_feature: np.ndarray  # (E,) path edge tests, grouped by slot
    edge_threshold: np.ndarray
    edge_left: np.ndarray
    edge_start: np.ndarray  # (slots,) first edge of each real slot, in (L, D) order


def _flatten(forest: Forest) -> _Paths:
    nodes = forest.nodes
    split = np.flatnonzero(nodes.feature >= 0)
    parent = np.full(len(nodes.feature), -1)
    parent[nodes.left[split]] = split
    parent[nodes.right[split]] = split
    # every path edge as (leaf, child node), walking each leaf up to its root
    leaves = np.flatnonzero(nodes.feature < 0)
    leaf, child, edges = np.arange(leaves.size), leaves, []
    while child.size:
        keep = parent[child] >= 0
        leaf, child = leaf[keep], child[keep]
        edges.append((leaf, child))
        child = parent[child]
    leaf, child = (np.concatenate(col) for col in zip(*edges))
    up = parent[child]
    feat = nodes.feature[up]
    # one run per (leaf, feature), edges in root-to-leaf (preorder) order
    order = np.argsort((leaf * forest.width + feat) * len(parent) + child, kind="stable")
    leaf, child, up, feat = leaf[order], child[order], up[order], feat[order]
    # a node covers its leaf samples plus those of each leaf it is above
    count = nodes.n_tp + nodes.n_fp
    cover = count + np.bincount(up, weights=count[leaves[leaf]], minlength=count.size)
    starts = np.flatnonzero(np.diff(leaf, prepend=-1) | np.diff(feat, prepend=-1))
    slot_leaf = leaf[starts]
    rank = np.arange(starts.size) - np.searchsorted(slot_leaf, slot_leaf)
    shape = (leaves.size, int(rank.max(initial=0)) + 1)
    feature, z, used = np.zeros(shape, np.int64), np.ones(shape), np.zeros(shape, bool)
    feature[slot_leaf, rank] = feat[starts]
    z[slot_leaf, rank] = np.multiply.reduceat(cover[child] / cover[up], starts)
    used[slot_leaf, rank] = True
    value = forest.descent.value[leaves]
    edge_left = nodes.left[up] == child
    return _Paths(value, feature, z, used, feat, nodes.threshold[up], edge_left, starts)


def _leaf_terms(paths: _Paths, leaf: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Shapley terms (n, D) of n (leaf, pattern) pairs, one per path slot."""
    z, used = paths.z[leaf], paths.used[leaf]
    slope = o - z
    nodes, weights = np.polynomial.legendre.leggauss((z.shape[1] + 1) // 2)
    integral, before, after = np.zeros_like(z), np.ones_like(z), np.ones_like(z)
    for x, w in zip(nodes, weights):
        h = z + (x + 1.0) / 2.0 * slope  # (1-q) z + q o at node q
        h[~used] = 1.0
        np.cumprod(h[:, :-1], axis=1, out=before[:, 1:])
        np.cumprod(h[:, :0:-1], axis=1, out=after[:, -2::-1])
        integral += w / 2.0 * before * after  # product over the other slots
    return np.where(used, paths.value[leaf][:, None] * slope * integral, 0.0)


def _shap_batch(forest: Forest, rows) -> tuple[float, np.ndarray]:
    """Base value and phi (n, width) for every row of a matrix as wide as the forest."""
    X = _scored(forest, rows)
    paths = _flatten(forest)
    # a leaf's weight in the expected value is the product of its path fractions
    base = float(paths.value @ paths.z.prod(axis=1)) / len(forest.roots)
    phi = np.zeros((X.shape[0], forest.width))
    n_leaves, depth = paths.z.shape
    step = max(1, min(X.shape[0], _CHUNK_CELLS // max(paths.edge_feature.size, paths.z.size)))
    pair_leaf = np.tile(np.arange(n_leaves), step)  # (row, leaf) pairs of a full chunk
    cell = np.repeat(np.arange(step) * forest.width, n_leaves)[:, None] + paths.feature[pair_leaf]
    o = np.zeros((step, n_leaves, depth), dtype=bool)
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        rows, n_pairs = chunk.shape[0], chunk.shape[0] * n_leaves
        follows = (chunk[:, paths.edge_feature] <= paths.edge_threshold) == paths.edge_left
        o[:rows, paths.used] = np.logical_and.reduceat(follows, paths.edge_start, axis=1)
        pattern = o[:rows].reshape(n_pairs, depth)
        # distinct (leaf, pattern) pairs, sorted by leaf and packed pattern bytes
        leaf, packed = pair_leaf[:n_pairs], np.packbits(pattern, axis=1)
        order = np.lexsort((*packed.T, leaf))
        leaf, packed = leaf[order], packed[order]
        new = np.r_[True, (leaf[1:] != leaf[:-1]) | (packed[1:] != packed[:-1]).any(axis=1)]
        inverse = np.empty(n_pairs, dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        terms = _leaf_terms(paths, leaf[new], pattern[order[new]].astype(float))
        phi[lo:lo + rows] = np.bincount(
            cell[:n_pairs].ravel(), weights=terms[inverse].ravel(), minlength=rows * forest.width
        ).reshape(rows, forest.width)
    return base, phi / len(forest.roots)


def tree_shap(forest: Forest, vector: Sequence[float]) -> Attribution:
    """Exact Shapley attributions averaged over the forest's trees."""
    base, phi = _shap_batch(forest, [vector])
    return Attribution(base_value=base, phi=tuple(float(v) for v in phi[0]))


def global_importance(forest: Forest, matrix: np.ndarray) -> list[tuple[str, float]]:
    """Mean |phi| per feature over all rows, sorted descending (ties by index)."""
    phi = _shap_batch(forest, matrix)[1]
    if not len(phi):
        raise ValidationError("importance needs at least one row")
    acc = np.abs(phi).mean(axis=0)
    order = sorted(range(forest.width), key=lambda j: (-acc[j], j))
    return [(forest.feature_names[j], float(acc[j])) for j in order]
