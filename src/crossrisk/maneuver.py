"""Maneuver-probability model: framewise features, minority oversampling, and
a bootstrap-aggregated decision-tree classifier built on Gini impurity.

Every frame of a labeled vehicle trajectory is one sample; the learned model
returns a probability for each of the three supported maneuvers given a
single frame. Training data is class-balanced by interpolating synthetic
minority samples toward same-class nearest neighbors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, is_count, read_json_object
from .parallel import run_jobs
from .trajectory import (
    DIRECTION_CODES,
    Dataset,
    SUPPORTED_MANEUVERS,
)

#: Class codes: left=0, right=1, straight=2.
MANEUVER_CODES = {m: i for i, m in enumerate(SUPPORTED_MANEUVERS)}
N_CLASSES = len(SUPPORTED_MANEUVERS)

#: Column index of the integer-coded entering direction in the feature row.
DIRECTION_FEATURE_INDEX = 4
#: Columns of a feature row.
N_FEATURES = 5

FOREST_FILE_VERSION = 2


def feature_rows(points: np.ndarray, codes) -> np.ndarray:
    """Feature rows (x, y, speed, yaw_rate, direction code) of gathered point
    rows: ``points`` is ``(n, 6)`` with the columns of ``POINT_COLUMNS``, each
    row valid with a finite yaw rate, and ``codes`` is each row's direction
    code, or one code for all. The speed is ``math.hypot(vx, vy)``, as
    ``Trajectory.speed`` has it."""
    speed = np.array(list(map(math.hypot, points[:, 3].tolist(), points[:, 4].tolist())))
    code = np.broadcast_to(np.asarray(codes, dtype=float), len(points))
    return np.column_stack([points[:, 1:3], speed, points[:, 5], code])


def build_feature_table(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack features over all labeled vehicle frames, gathered into one
    :func:`feature_rows` call.

    Returns ``(X, y, groups)`` where ``y`` holds maneuver class codes and
    ``groups`` the row's trajectory index (for leakage-free splitting).
    Frames without finite yaw rate are skipped.
    """
    points, codes, labels, groups = [], [], [], []
    for g, traj in enumerate(dataset.vehicles):
        if traj.entering_direction is None or traj.maneuver not in MANEUVER_CODES:
            continue
        rows = np.flatnonzero(traj.valid & np.isfinite(traj.yaw_rate))
        points.append(traj.points[rows])
        codes += [DIRECTION_CODES[traj.entering_direction]] * len(rows)
        labels += [MANEUVER_CODES[traj.maneuver]] * len(rows)
        groups += [g] * len(rows)
    if not labels:
        raise InputError("no labeled vehicle frames available for training")
    return (feature_rows(np.concatenate(points), codes), np.asarray(labels, dtype=int),
            np.asarray(groups, dtype=int))


# ---------------------------------------------------------------------------
# Synthetic minority oversampling
# ---------------------------------------------------------------------------


#: Rows per block of the same-class neighbour search in ``smote_oversample``.
_KNN_BLOCK_ROWS = 256


def _nearest_neighbors(sub: np.ndarray, k: int, rows: np.ndarray | None = None
                       ) -> np.ndarray:
    """The ``k`` nearest other rows of each of the given ``rows`` of ``sub``
    (in increasing order; every row by default), nearest first and ties broken
    by row index: the first ``k`` columns of a stable argsort of each row's
    squared distances.

    The Gram matrix is formed in fixed blocks of ``_KNN_BLOCK_ROWS`` rows of
    ``sub``, skipping the blocks that hold none of ``rows``: the last bit of a
    BLAS product depends on the shape of the block it is computed in, so this
    keeps every distance, and every neighbour list, that of the full search."""
    n = len(sub)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    sq = np.sum(sub * sub, axis=1)
    out = np.empty((len(rows), k), dtype=np.intp)
    bounds = np.searchsorted(rows, range(0, n + _KNN_BLOCK_ROWS, _KNN_BLOCK_ROWS)).tolist()
    for lo, first, last in zip(range(0, n, _KNN_BLOCK_ROWS), bounds, bounds[1:]):
        if first == last:
            continue
        block = rows[first:last]
        gram = sub[lo:lo + _KNN_BLOCK_ROWS] @ sub.T
        d2 = sq[block, None] + sq[None, :] - 2.0 * gram[block - lo]
        d2[np.arange(len(block)), block] = np.inf
        cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
        cand_d2 = np.take_along_axis(d2, cand, axis=1)
        order = np.lexsort((cand, cand_d2), axis=1)
        out[first:last] = np.take_along_axis(cand, order, axis=1)
        # Rows whose k-th distance is tied (or NaN) have no unique candidate set.
        kth = cand_d2.max(axis=1, keepdims=True)
        for r in np.flatnonzero(np.sum(d2 <= kth, axis=1) != k):
            out[first + r] = np.argsort(d2[r], kind="stable")[:k]
    return out


def smote_oversample(X: np.ndarray, y: np.ndarray, k: int = 5, seed: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Upsample every minority class to the majority count.

    Each synthetic row interpolates a base sample toward one of its ``k``
    same-class nearest neighbors (continuous features only; the direction
    column is copied from the base sample). ``k`` is reduced to
    ``class size - 1`` for small classes; a singleton class is duplicated.
    Deterministic for a fixed seed: per synthetic row, in order, the base
    sample, the neighbour's rank and the interpolation weight are drawn; the
    neighbour search then runs only for the distinct base samples drawn.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y disagree in length")
    if X.shape[0] == 0:
        raise InputError("cannot oversample an empty table")
    rng = np.random.default_rng(seed)
    cont = [j for j in range(X.shape[1]) if j != DIRECTION_FEATURE_INDEX]
    counts = Counter(y.tolist())
    majority = max(counts.values())

    new_rows, new_labels = [X], [y]
    for cls in sorted(counts):
        need = majority - counts[cls]
        if need == 0:
            continue
        rows = X[y == cls]
        if len(rows) == 1:
            new_rows.append(np.repeat(rows, need, axis=0))
        else:
            k_eff = max(1, min(k, len(rows) - 1))
            s = np.empty(need, dtype=np.intp)
            rank = np.empty(need, dtype=np.intp)
            u = np.empty((need, 1))
            for i in range(need):  # scalar draws, in the seeded order
                s[i] = rng.integers(len(rows))
                rank[i] = rng.integers(k_eff)
                u[i] = rng.random()
            base, at = np.unique(s, return_inverse=True)
            nn = _nearest_neighbors(rows[:, cont], k_eff, base)[at, rank]
            synthetic = rows[s]
            synthetic[:, cont] += u * (rows[nn][:, cont] - synthetic[:, cont])
            new_rows.append(synthetic)
        new_labels.append(np.full(need, cls, dtype=int))
    return np.vstack(new_rows), np.concatenate(new_labels)


# ---------------------------------------------------------------------------
# Decision trees and the forest
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tree:
    """One fitted tree as preorder node arrays; node 0 is the root.

    Node ``i`` sends a row left when ``row[feature[i]] <= threshold[i]``.
    ``left[i]`` and ``right[i]`` are child indices, -1 at a leaf (whose feature
    is -1 too). ``counts[i]`` holds the class counts of the bootstrap rows that
    reached node ``i``; ``proba`` is that table normalized per node.
    """

    feature: tuple
    threshold: tuple
    left: tuple
    right: tuple
    counts: np.ndarray
    proba: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "proba",
                           self.counts / self.counts.sum(axis=1, keepdims=True))

    def leaves(self, rows: list) -> list:
        """Index of the leaf each row (a list of floats) falls into."""
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        out = []
        for row in rows:
            node = 0
            while (child := left[node]) >= 0:
                node = child if row[feature[node]] <= threshold[node] else right[node]
            out.append(node)
        return out


def _best_split(X: np.ndarray, y: np.ndarray, features: Sequence[int]
                ) -> Optional[tuple[float, int, float]]:
    """Lowest weighted Gini split over the candidate features.

    Returns (gini, feature, threshold); ties resolved by scanning features in
    ascending order and keeping strictly better splits only.
    """
    n = len(y)
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), y] = 1.0
    best = None
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum = np.cumsum(onehot[order], axis=0)
        cuts = np.nonzero(xs[:-1] < xs[1:])[0]
        if cuts.size == 0:
            continue
        left_n = (cuts + 1).astype(float)
        right_n = n - left_n
        left_counts = cum[cuts]
        right_counts = cum[-1] - left_counts
        gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            threshold = 0.5 * (xs[cuts[i]] + xs[cuts[i] + 1])
            best = (float(weighted[i]), f, float(threshold))
    return best


def _list_best_split(rows: list, labels: list, features: Sequence[int]
                     ) -> Optional[tuple[float, int, float]]:
    """``_best_split`` on Python lists of rows and labels, with the same float
    operations in the same order, so it returns the same split."""
    n = len(labels)
    total = [0] * N_CLASSES
    for c in labels:
        total[c] += 1
    classes = range(N_CLASSES)
    best = None
    for f in features:
        pairs = sorted(zip([row[f] for row in rows], labels), key=itemgetter(0))
        left, right = [0] * N_CLASSES, total[:]
        best_f = None  # (weighted gini, rows left of the cut) of this feature
        x_prev, c = pairs[0]
        for n_left in range(1, n):
            left[c] += 1
            right[c] -= 1
            x, c_next = pairs[n_left]
            if x_prev < x:
                n_right = n - n_left
                sum_left = sum_right = 0.0
                for k in classes:
                    q = left[k] / n_left
                    sum_left += q * q
                    q = right[k] / n_right
                    sum_right += q * q
                weighted = (n_left * (1.0 - sum_left) + n_right * (1.0 - sum_right)) / n
                if best_f is None or weighted < best_f[0]:
                    best_f = (weighted, n_left)
            x_prev, c = x, c_next
        if best_f is not None and (best is None or best_f[0] < best[0]):
            n_left = best_f[1]
            best = (best_f[0], f, 0.5 * (pairs[n_left - 1][0] + pairs[n_left][0]))
    return best


def _grow_small_tree(rows: list, labels: list, depth: int, max_depth: Optional[int],
                     mtry: int, rng: np.random.Generator, nodes: list) -> None:
    """``_grow_tree`` on Python lists: the same nodes and the same feature
    draws from ``rng``, faster than numpy on nodes of a few dozen rows."""
    counts = [0] * N_CLASSES
    for c in labels:
        counts[c] += 1
    node = [-1, 0.0, -1, -1, counts]
    nodes.append(node)
    if (
        len(labels) < 2
        or counts.count(0) == N_CLASSES - 1
        or (max_depth is not None and depth >= max_depth)
    ):
        return
    n_features = len(rows[0])
    features = sorted(rng.choice(n_features, size=mtry, replace=False).tolist())
    split = _list_best_split(rows, labels, features)
    if split is None:
        # the sampled features are constant here; fall back to all features
        split = _list_best_split(rows, labels, range(n_features))
    if split is None:
        return
    _, f, threshold = split
    node[0], node[1] = f, threshold
    left_rows, left_labels, right_rows, right_labels = [], [], [], []
    for row, c in zip(rows, labels):
        if row[f] <= threshold:
            left_rows.append(row)
            left_labels.append(c)
        else:
            right_rows.append(row)
            right_labels.append(c)
    node[2] = len(nodes)
    _grow_small_tree(left_rows, left_labels, depth + 1, max_depth, mtry, rng, nodes)
    node[3] = len(nodes)
    _grow_small_tree(right_rows, right_labels, depth + 1, max_depth, mtry, rng, nodes)


#: Nodes with at most this many rows grow their whole subtree in
#: ``_grow_small_tree``; above it numpy's per-call overhead is paid back.
_SMALL_NODE_ROWS = 64


def _grow_tree(X: np.ndarray, y: np.ndarray, depth: int, max_depth: Optional[int],
               mtry: int, rng: np.random.Generator, nodes: list) -> None:
    """Append the subtree fitted to (X, y) to ``nodes`` in preorder, one
    ``[feature, threshold, left, right, counts]`` row per node."""
    if len(y) <= _SMALL_NODE_ROWS:
        _grow_small_tree(X.tolist(), y.tolist(), depth, max_depth, mtry, rng, nodes)
        return
    counts = np.bincount(y, minlength=N_CLASSES)
    node = [-1, 0.0, -1, -1, counts]
    nodes.append(node)
    if (
        len(y) < 2
        or np.count_nonzero(counts) == 1
        or (max_depth is not None and depth >= max_depth)
    ):
        return
    features = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    split = _best_split(X, y, features)
    if split is None:
        # the sampled features are constant here; fall back to all features
        split = _best_split(X, y, range(X.shape[1]))
    if split is None:
        return
    _, f, threshold = split
    mask = X[:, f] <= threshold
    node[0], node[1] = int(f), threshold
    node[2] = len(nodes)  # the left child comes next in preorder
    _grow_tree(X[mask], y[mask], depth + 1, max_depth, mtry, rng, nodes)
    node[3] = len(nodes)
    _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, mtry, rng, nodes)


@dataclass
class ForestModel:
    """Bagged Gini trees with class-frequency leaves."""

    trees: list
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        rows = X.tolist()
        acc = np.zeros((len(rows), N_CLASSES))
        for tree in self.trees:
            acc += tree.proba[tree.leaves(rows)]
        return acc / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _fit_tree(X: np.ndarray, y: np.ndarray, max_depth: Optional[int], mtry: int,
              tree_seed: int) -> Tree:
    tree_rng = np.random.default_rng(tree_seed)
    boot = tree_rng.integers(0, len(y), size=len(y))
    nodes = []
    _grow_tree(X[boot], y[boot], 0, max_depth, mtry, tree_rng, nodes)
    feature, threshold, left, right, counts = zip(*nodes)
    return Tree(feature, threshold, left, right, np.array(counts))


def tree_jobs(X: np.ndarray, y: np.ndarray, n_trees: int, max_depth: Optional[int] = None,
              seed: int = 0) -> list:
    """The trees of ``train_forest`` as zero-argument calls, in order. Each
    depends only on its seed, so the trees fit in any process."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("cannot train on an empty split")
    if np.unique(y).size < 2:
        raise InputError("training split contains a single class")
    mtry = max(1, int(round(math.sqrt(X.shape[1]))))
    rng = np.random.default_rng(seed)
    tree_seeds = rng.integers(0, 2**63 - 1, size=n_trees).tolist()
    return [partial(_fit_tree, X, y, max_depth, mtry, s) for s in tree_seeds]


def train_forest(X: np.ndarray, y: np.ndarray, n_trees: int,
                 max_depth: Optional[int] = None, seed: int = 0) -> ForestModel:
    """Fit a forest of ``n_trees`` bootstrap trees; sqrt-feature subsampling."""
    trees = run_jobs(tree_jobs(X, y, n_trees, max_depth, seed))
    return ForestModel(trees=trees, n_features=np.shape(X)[1])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` per class, 0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(N_CLASSES), where=den > 0)


def classification_scores(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """One-vs-rest scores of every class as a ``(3, N_CLASSES)`` table whose
    rows are precision, recall and F1. A ratio with a zero denominator is 0."""
    y = np.asarray(y_true, dtype=int)
    pred = np.asarray(y_pred, dtype=int)
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty split")
    classes = np.arange(N_CLASSES)[:, None]
    predicted, actual = pred == classes, y == classes
    tp = np.sum(predicted & actual, axis=1)
    precision = _ratio(tp, predicted.sum(axis=1))
    recall = _ratio(tp, actual.sum(axis=1))
    return np.stack([precision, recall,
                     _ratio(2 * precision * recall, precision + recall)])


def evaluate_classifier(model: ForestModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``classification_scores`` of the model's predictions on a held-out split."""
    return classification_scores(y, model.predict(X))


# ---------------------------------------------------------------------------
# Model selection and the repeated-split protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestConfig:
    """Settings of the maneuver classifier, the ``forest`` config section: the
    forest sizes and depths searched on each split's validation set (a depth
    of ``None`` grows trees until their leaves are pure), the SMOTE neighbour
    count, the number of repeated splits and the seed."""

    n_trees_grid: tuple = (100, 300)
    max_depth_grid: tuple = (None, 10, 20)
    smote_k: int = 5
    n_splits: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_trees_grid or not all(map(is_count, self.n_trees_grid)):
            raise InputError("forest.n_trees_grid must be a nonempty list of positive "
                             f"integers, got {self.n_trees_grid!r}")
        if not self.max_depth_grid or not all(d is None or is_count(d)
                                              for d in self.max_depth_grid):
            raise InputError("forest.max_depth_grid must be a nonempty list of positive "
                             f"integers or nulls, got {self.max_depth_grid!r}")
        if self.n_splits < 1:
            raise InputError("forest.n_splits must be at least 1")
        if self.seed < 0:
            raise InputError("forest.seed must be nonnegative")


#: Train, validation and test shares of each split of the protocol.
_SPLIT_RATIOS = (0.8, 0.1, 0.1)


def _size_key(params: tuple[int, Optional[int]]) -> tuple[float, float]:
    n, d = params
    return (float(n), math.inf if d is None else float(d))


def train_random_forest(train: tuple[np.ndarray, np.ndarray],
                        val: tuple[np.ndarray, np.ndarray],
                        grid: Sequence[tuple[int, Optional[int]]], seed: int = 0
                        ) -> tuple[ForestModel, tuple[int, Optional[int]]]:
    """Search the ``(n_trees, max_depth)`` grid points on the validation
    macro-F1, the mean of the per-class F1 scores.

    Returns the winning model and its parameters; exact F1 ties go to the
    smaller model (fewer trees, then shallower), so the choice does not depend
    on the grid's order. ``train_forest`` draws all tree seeds at once, so the
    first ``n`` trees of a larger forest are the forest of ``n`` trees: each
    depth grows its largest size once and scores every size on a prefix.
    """
    train_X, train_y = train
    val_X, val_y = val
    if len(train_y) == 0 or len(val_y) == 0:
        raise ValueError("train and validation splits must be nonempty")
    best = None
    for depth in dict.fromkeys(d for _, d in grid):
        sizes = sorted({n for n, d in grid if d == depth})
        forest = train_forest(train_X, train_y, n_trees=sizes[-1], max_depth=depth,
                              seed=seed)
        for n_trees in sizes:
            params = (n_trees, depth)
            model = ForestModel(trees=forest.trees[:n_trees], n_features=forest.n_features)
            f1 = evaluate_classifier(model, val_X, val_y)[2].mean()
            if (
                best is None
                or f1 > best[0]
                or (f1 == best[0] and _size_key(params) < _size_key(best[1]))
            ):
                best = (f1, params, model)
    return best[2], best[1]


def split_indices(n: int, ratios: tuple[float, float, float],
                  rng: np.random.Generator, groups: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random train/val/test index split of ``n`` rows that keeps each group
    within one partition: the groups, in random order, fill the partitions
    until each reaches its share of ``n`` rows. Rows that are their own
    groups (``np.arange(n)``) give a row-level split."""
    unique = np.unique(groups)
    perm = rng.permutation(unique)
    counts = {g: int(np.sum(groups == g)) for g in unique}
    train_g, val_g, test_g = [], [], []
    acc = 0
    for g in perm:
        if acc < ratios[0] * n:
            train_g.append(g)
        elif acc < (ratios[0] + ratios[1]) * n:
            val_g.append(g)
        else:
            test_g.append(g)
        acc += counts[g]
    to_idx = lambda gs: np.nonzero(np.isin(groups, gs))[0]
    return to_idx(train_g), to_idx(val_g), to_idx(test_g)


def majority_params(chosen: Sequence[tuple[int, Optional[int]]]
                    ) -> tuple[int, Optional[int]]:
    """The grid point most splits chose; a tie goes to the one chosen first."""
    return Counter(chosen).most_common(1)[0][0]


def _protocol_split(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
                    groups: np.ndarray, s: int
                    ) -> tuple[np.ndarray, tuple[int, Optional[int]]]:
    """Split ``s`` of the protocol: oversample its training part, tune on its
    validation part (the grid forests grow serially here), and score the
    chosen model on its untouched test part."""
    seed = cfg.seed + s
    tr, va, te = split_indices(len(y), _SPLIT_RATIOS, np.random.default_rng(seed), groups)
    if min(len(tr), len(va), len(te)) == 0:
        raise InputError("split produced an empty partition; need more data")
    bal_X, bal_y = smote_oversample(X[tr], y[tr], k=cfg.smote_k, seed=seed)
    grid = [(n, d) for n in cfg.n_trees_grid for d in cfg.max_depth_grid]
    model, params = train_random_forest((bal_X, bal_y), (X[va], y[va]), grid=grid, seed=seed)
    return evaluate_classifier(model, X[te], y[te]), params


def split_jobs(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, groups: np.ndarray
               ) -> list:
    """The repeated random 80/10/10 evaluation as ``cfg.n_splits`` zero-argument
    calls, each returning one split's ``(test scores, chosen grid point)``.
    Each part of a split holds whole groups (trajectories, in the train stage)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    return [partial(_protocol_split, X, y, cfg, groups, s) for s in range(cfg.n_splits)]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_forest(model: ForestModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": FOREST_FILE_VERSION,
        "n_classes": N_CLASSES,
        "n_features": model.n_features,
        "trees": [
            {"feature": list(t.feature), "threshold": list(t.threshold),
             "left": list(t.left), "right": list(t.right),
             "counts": t.counts.tolist()}
            for t in model.trees
        ],
    }
    path.write_text(json.dumps(payload, sort_keys=True))


def _tree_from_dict(data: dict) -> Tree:
    """Rebuild one tree, rejecting arrays that could not have come from
    ``train_forest``."""
    try:
        feature, left, right = (np.asarray(data[k]) for k in ("feature", "left", "right"))
        threshold = np.asarray(data["threshold"], dtype=float)
        counts = np.asarray(data["counts"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tree: {exc!r}") from exc
    n = len(feature) if feature.ndim == 1 else 0
    if n == 0 or any(a.shape != (n,) for a in (threshold, left, right)):
        raise InputError("tree arrays must be nonempty and of equal length")
    if any(a.dtype.kind != "i" for a in (feature, left, right)):
        raise InputError("tree features and child indices must be integers")
    idx = np.arange(n)
    internal = left != -1
    children_ok = np.where(internal,
                           (idx < left) & (left < n) & (idx < right) & (right < n),
                           right == -1)
    if not children_ok.all():
        raise InputError("tree child indices must lie after their parent and "
                         "inside the tree, or both be -1 at a leaf")
    split_f = feature[internal]
    if np.any((split_f < 0) | (split_f >= N_FEATURES)):
        raise InputError(f"tree split features must lie in [0, {N_FEATURES})")
    if not np.all(np.isfinite(threshold[internal])):
        raise InputError("tree split thresholds must be finite")
    if counts.shape != (n, N_CLASSES):
        raise InputError(f"tree counts must be {n} rows of {N_CLASSES} classes")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0) or np.any(counts.sum(axis=1) <= 0):
        raise InputError("tree counts must be finite, nonnegative and nonzero per node")
    return Tree(tuple(feature.tolist()), tuple(threshold.tolist()),
                tuple(left.tolist()), tuple(right.tolist()), counts)


def load_forest(path: str | Path) -> ForestModel:
    payload = read_json_object(path, "forest", FOREST_FILE_VERSION, "train")
    sizes = [payload.get(k) for k in ("n_classes", "n_features")]
    if sizes != [N_CLASSES, N_FEATURES] or not all(type(v) is int for v in sizes):
        raise InputError(f"forest file {path} must have n_classes {N_CLASSES} and "
                         f"n_features {N_FEATURES}, got {sizes[0]!r} and {sizes[1]!r}")
    trees = payload.get("trees")
    if not isinstance(trees, list) or not trees:
        raise InputError(f"forest file {path} holds no trees")
    try:
        return ForestModel(trees=[_tree_from_dict(t) for t in trees], n_features=N_FEATURES)
    except InputError as exc:
        raise InputError(f"forest file {path}: {exc}") from exc
