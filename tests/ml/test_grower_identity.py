"""The lock-step grower against a per-node, depth-first reference.

``grow_trees`` grows every tree of a forest together and searches one
node of each tree per step with one batched split search.  Each tree
keeps its own depth-first stack and its own RNG, so it must come out
exactly as if it were grown alone, one node at a time.  This module
keeps that one-tree-at-a-time grower and its per-feature splitter as
the reference (``_reference_*`` below) and compares every fitted tree
array for array (``feature``, ``threshold``, ``left``, ``right``,
``counts``) and every ``feature_importances_`` over a matrix of
hyperparameters, on data with a constant feature, tied values and a
class that some bootstraps miss.  The batched search must also give the
same trees when its chunk budget cuts every step into many chunks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.tree import splitter
from repro.ml.tree.classifier import resolve_max_features
from repro.ml.tree.criteria import get_criterion
from repro.ml.tree.structure import TreeBuffer
from repro.utils.rng import derive_seed, ensure_generator

TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


# ----------------------------------------------------------------------
# reference: one tree at a time, one node at a time, one feature at a time
# ----------------------------------------------------------------------
def _reference_split(X, y, n_classes, criterion, feats, msl, mid, weight):
    n = X.shape[0]
    if n < 2 * msl:
        return None
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0 if weight is None else weight
    parent_counts = onehot.sum(axis=0)
    parent_imp = float(criterion(parent_counts[None, :])[0])
    if parent_imp <= 0.0:
        return None
    best_gain, best = mid, None
    for f in feats:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        distinct = v_sorted[:-1] < v_sorted[1:]
        if not distinct.any():
            continue
        left_counts = np.cumsum(onehot[order], axis=0)[:-1]
        right_counts = parent_counts[None, :] - left_counts
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        valid = distinct & (n_left >= msl) & (n_right >= msl)
        if not valid.any():
            continue
        child_imp = (
            n_left * criterion(left_counts) + n_right * criterion(right_counts)
        ) / n
        gains = parent_imp - child_imp
        gains[~valid] = -np.inf
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > best_gain + 1e-15:
            best_gain = gain
            best = (int(f), 0.5 * (float(v_sorted[pos]) + float(v_sorted[pos + 1])))
    return best


def _reference_tree(params, X, y, class_labels, seed):
    """``DecisionTreeClassifier.fit`` grown depth-first, node by node."""
    classes = np.unique(y) if class_labels is None else np.asarray(class_labels)
    label_of = {int(c): i for i, c in enumerate(classes)}
    y_enc = np.asarray([label_of[int(v)] for v in y], dtype=np.int64)
    n_features, n_classes = X.shape[1], classes.shape[0]
    criterion = get_criterion(params["criterion"])
    k = resolve_max_features(params["max_features"], n_features)
    rng = ensure_generator(seed)
    weight = None
    if params["class_weight"] == "balanced":
        counts = np.bincount(y_enc, minlength=n_classes).astype(np.float64)
        with np.errstate(divide="ignore"):
            per_class = np.where(
                counts > 0, y_enc.shape[0] / (n_classes * counts), 0.0
            )
        weight = per_class[y_enc]

    def node_counts(idx):
        if weight is None:
            return np.bincount(y_enc[idx], minlength=n_classes).astype(np.float64)
        return np.bincount(y_enc[idx], weights=weight[idx], minlength=n_classes)

    buf = TreeBuffer(n_classes)
    everything = np.arange(X.shape[0])
    stack = [(buf.add_node(node_counts(everything)), everything, 0)]
    while stack:
        node, idx, depth = stack.pop()
        if (
            idx.shape[0] < params["min_samples_split"]
            or (params["max_depth"] is not None and depth >= params["max_depth"])
            or np.count_nonzero(np.bincount(y_enc[idx], minlength=n_classes)) <= 1
        ):
            continue
        if k < n_features:
            feats = rng.choice(n_features, size=k, replace=False)
        else:
            feats = np.arange(n_features)
        best = _reference_split(
            X[idx], y_enc[idx], n_classes, criterion, feats,
            params["min_samples_leaf"], params["min_impurity_decrease"],
            None if weight is None else weight[idx],
        )
        if best is None:
            continue
        feature, threshold = best
        mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        left = buf.add_node(node_counts(left_idx))
        right = buf.add_node(node_counts(right_idx))
        buf.set_split(node, feature, threshold, left, right)
        stack.append((left, left_idx, depth + 1))
        stack.append((right, right_idx, depth + 1))
    return buf.freeze()


def _reference_forest(params, X, y, n_estimators, bootstrap, seed):
    classes = np.unique(y)
    trees = []
    for t in range(n_estimators):
        if bootstrap:
            rng = ensure_generator(derive_seed(seed, "bootstrap", t))
            sample = rng.integers(0, X.shape[0], size=X.shape[0])
        else:
            sample = np.arange(X.shape[0])
        trees.append(
            _reference_tree(
                params, X[sample], y[sample], classes, derive_seed(seed, "tree", t)
            )
        )
    return trees


# ----------------------------------------------------------------------
def _dataset(seed):
    """40 rows: a constant feature, a heavily tied one, three continuous
    ones, and a rare class (two rows) that some bootstraps miss."""
    rng = np.random.default_rng(seed)
    n = 40
    X = np.column_stack([
        np.full(n, 3.0),
        rng.integers(0, 4, size=n).astype(np.float64),
        rng.standard_normal(n),
        rng.standard_normal(n).round(1),
        rng.random(n),
    ])
    y = (X[:, 1] + (X[:, 2] > 0) + rng.integers(0, 2, size=n)).astype(np.int64) % 3
    y[:2] = 7
    return X, y


GRID = [
    dict(
        criterion=c,
        bootstrap=b,
        max_features=mf,
        min_samples_leaf=msl,
        class_weight=cw,
        max_depth=md,
        min_impurity_decrease=mid,
    )
    for c, b, mf, msl, cw, md, mid in itertools.product(
        ("gini", "entropy"),
        (True, False),
        (None, "sqrt", 0.6),
        (1, 3),
        (None, "balanced"),
        (None, 3),
        (0.0, 0.02),
    )
]


def _tree_params(case):
    return dict(
        criterion=case["criterion"],
        max_depth=case["max_depth"],
        min_samples_split=2,
        min_samples_leaf=case["min_samples_leaf"],
        max_features=case["max_features"],
        min_impurity_decrease=case["min_impurity_decrease"],
        class_weight=case["class_weight"],
    )


def _assert_same_tree(tree, ref, label):
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype, f"{label}: {name} dtype"
        np.testing.assert_array_equal(got, want, err_msg=f"{label}: {name}")


def _check_forest(case, seed, n_estimators=6):
    X, y = _dataset(seed)
    params = _tree_params(case)
    forest = RandomForestClassifier(
        n_estimators=n_estimators, bootstrap=case["bootstrap"], seed=seed, **params
    ).fit(X, y)
    refs = _reference_forest(params, X, y, n_estimators, case["bootstrap"], seed)
    importances = []
    for t, (est, ref) in enumerate(zip(forest.estimators_, refs)):
        _assert_same_tree(est.tree_, ref, f"{case} tree {t}")
        want = ref.feature_importances(X.shape[1])
        np.testing.assert_array_equal(est.feature_importances_, want)
        importances.append(want)
    np.testing.assert_array_equal(
        forest.feature_importances_, np.mean(importances, axis=0)
    )
    return forest


def test_forest_matches_depth_first_reference():
    missed = 0
    for case in GRID:
        forest = _check_forest(case, seed=0)
        missed += sum(
            est.tree_.counts[0, -1] == 0 for est in forest.estimators_
        )
    # the rare class really is missing from some bootstrap samples
    assert missed > 0


@pytest.mark.parametrize("index", range(0, len(GRID), 7))
def test_single_tree_matches_reference(index):
    case = GRID[index]
    X, y = _dataset(2)
    params = _tree_params(case)
    tree = DecisionTreeClassifier(seed=11, **params).fit(X, y)
    ref = _reference_tree(params, X, y, None, 11)
    _assert_same_tree(tree.tree_, ref, str(case))
    np.testing.assert_array_equal(
        tree.feature_importances_, ref.feature_importances(X.shape[1])
    )


@pytest.mark.parametrize("budget", [1, 4096])
def test_chunked_search_gives_the_same_trees(monkeypatch, budget):
    """Budgets that cut each step into chunks of one or a few nodes, and
    a node's candidate features into slices (one feature each at 1)."""
    monkeypatch.setattr(splitter, "BLOCK_BYTES", budget)
    for case in GRID[::5]:
        _check_forest(case, seed=3, n_estimators=9)
