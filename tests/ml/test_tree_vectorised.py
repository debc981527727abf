"""Vectorised tree walks give the node-loop results bit for bit.

``Tree.feature_importances`` and ``Tree.depth`` once walked every node
in a Python loop, a forest's hard vote went through each tree's
``predict`` and back through ``searchsorted``, and a deployed model
descended each of its trees separately.  The loops are kept here
as references; the vectorised versions must match them exactly on
fitted trees (importances summed per feature in node order), with and
without class weights.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree.criteria import gini_impurity
from repro.ml.tree.structure import LEAF


def _reference_importances(tree, n_features):
    importances = np.zeros(n_features, dtype=np.float64)
    node_imp = gini_impurity(tree.counts)
    node_n = tree.counts.sum(axis=1)
    total = node_n[0] if tree.n_nodes else 0
    for i in range(tree.n_nodes):
        if tree.feature[i] == LEAF:
            continue
        li, ri = tree.left[i], tree.right[i]
        decrease = (
            node_n[i] * node_imp[i]
            - node_n[li] * node_imp[li]
            - node_n[ri] * node_imp[ri]
        )
        importances[tree.feature[i]] += max(0.0, decrease) / max(total, 1)
    s = importances.sum()
    return importances / s if s > 0 else importances


def _reference_depth(tree):
    depths = np.zeros(tree.n_nodes, dtype=np.int64)
    out = 0
    for i in range(tree.n_nodes):
        if tree.feature[i] != LEAF:
            for child in (tree.left[i], tree.right[i]):
                depths[child] = depths[i] + 1
                out = max(out, int(depths[child]))
    return out


def _reference_hard_vote(forest, X):
    votes = np.zeros((X.shape[0], forest.classes_.shape[0]))
    for tree in forest.estimators_:
        enc = np.searchsorted(forest.classes_, tree.predict(X))
        votes[np.arange(X.shape[0]), enc] += 1.0
    return votes / forest.n_estimators


def _dataset(seed, n=120, n_features=7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n_features))
    X[:, 1] = rng.integers(0, 3, size=n)  # heavily tied
    y = (X[:, 0] > 0).astype(np.int64) + 2 * (X[:, 2] > 0.5)
    y[rng.random(n) < 0.15] = 9  # label noise: deep, uneven trees
    return X, y


@pytest.mark.parametrize(
    "seed,class_weight,max_depth",
    list(itertools.product((0, 1, 2), (None, "balanced"), (None, 4))),
)
def test_vectorised_walks_match_the_node_loops(seed, class_weight, max_depth):
    X, y = _dataset(seed)
    forest = RandomForestClassifier(
        n_estimators=8,
        class_weight=class_weight,
        max_depth=max_depth,
        seed=seed,
    ).fit(X, y)
    for est in forest.estimators_:
        tree = est.tree_
        want = _reference_importances(tree, X.shape[1])
        assert np.array_equal(est.feature_importances_, want)
        assert est.feature_importances_.tobytes() == want.tobytes()
        assert tree.depth() == _reference_depth(tree)
    probe = np.random.default_rng(seed + 100).standard_normal((50, X.shape[1]))
    for data in (X, probe):
        got = forest.predict_proba(data)
        assert got.tobytes() == _reference_hard_vote(forest, data).tobytes()


def test_stump_and_single_leaf_walks():
    X = np.arange(6, dtype=np.float64).reshape(-1, 1)
    for y, depth in ((np.zeros(6, dtype=np.int64), 0), (X[:, 0] > 2, 1)):
        forest = RandomForestClassifier(
            n_estimators=2, bootstrap=False, max_features=None, seed=0
        ).fit(X, y.astype(np.int64))
        for est in forest.estimators_:
            assert est.tree_.depth() == depth == _reference_depth(est.tree_)
            assert np.array_equal(
                est.feature_importances_,
                _reference_importances(est.tree_, 1),
            )
        assert np.array_equal(
            forest.predict_proba(X), _reference_hard_vote(forest, X)
        )


def _reference_oracle_predict(model, X):
    votes = np.zeros((X.shape[0], model.classes.shape[0]))
    for tree in model.trees:
        proba = tree.predict_proba(X)
        votes[np.arange(X.shape[0]), np.argmax(proba, axis=1)] += 1.0
    return model.classes[np.argmax(votes, axis=1)]


@pytest.mark.parametrize("class_weight", [None, "balanced"])
def test_stacked_descent_matches_each_tree(class_weight):
    """One lock-step descent over every (tree, sample) pair reaches the
    leaf each tree's own descent reaches, and a deployed model votes as
    the per-tree loop did, NaN features included."""
    from repro.core.model_io import OracleModel
    from repro.ml.tree.structure import TreeStack

    X, y = _dataset(3)
    forest = RandomForestClassifier(
        n_estimators=12, class_weight=class_weight, seed=3
    ).fit(X, y)
    probe = np.random.default_rng(4).standard_normal((60, X.shape[1]))
    probe[::7, 0] = np.nan
    trees = [est.tree_ for est in forest.estimators_]
    stack = TreeStack(trees)
    leaves = stack.apply(probe)
    for t, tree in enumerate(trees):
        assert np.array_equal(leaves[t] - stack.roots[t], tree.apply(probe))
    model = OracleModel.from_estimator(forest)
    for data in (X, probe):
        assert np.array_equal(
            model.predict(data), _reference_oracle_predict(model, data)
        )


def test_refit_votes_with_the_new_trees():
    """A forest's stacked trees are built on its first hard vote; a refit
    of the same forest votes with the trees of that refit."""
    X, y = _dataset(5)
    X2, y2 = _dataset(6)
    forest = RandomForestClassifier(n_estimators=8, seed=5).fit(X, y)
    forest.predict(X2)
    forest.fit(X2, y2)
    fresh = RandomForestClassifier(n_estimators=8, seed=5).fit(X2, y2)
    assert np.array_equal(forest.predict_proba(X), fresh.predict_proba(X))
