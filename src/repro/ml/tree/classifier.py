"""CART decision-tree classifier and the lock-step grower.

:func:`grow_trees` grows any number of binary trees together, step by
step, with the usual regularisation controls (``max_depth``,
``min_samples_split``, ``min_samples_leaf``, ``max_features``,
``min_impurity_decrease``) — the hyperparameters the paper's grid search
tunes (Table III).  Each tree grows depth-first from its own stack and
its own RNG; each step searches the next node of every tree with one
batched split search.  A single tree is the one-tree case; a random
forest grows all of its trees at once.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ModelError, ValidationError
from repro.ml.base import BaseEstimator, check_is_fitted
from repro.ml.tree.criteria import get_criterion
from repro.ml.tree.splitter import find_best_splits
from repro.ml.tree.structure import Tree, TreeBuffer
from repro.utils.rng import ensure_generator

__all__ = ["DecisionTreeClassifier", "encode_labels", "grow_trees"]


def _class_weights(
    class_weight: str | dict | None,
    y_enc: np.ndarray,
    n_classes: int,
) -> np.ndarray | None:
    """Per-class weights from a class-weight spec, indexed by encoded class.

    ``"balanced"`` gives class ``c`` weight ``n / (k * count_c)`` — the
    paper's Section IX names dataset balancing as the route to better
    minority-format recall.  A dict maps *encoded* class index to weight.
    ``None`` means unweighted.
    """
    if class_weight is None:
        return None
    if class_weight == "balanced":
        counts = np.bincount(y_enc, minlength=n_classes).astype(np.float64)
        n = y_enc.shape[0]
        with np.errstate(divide="ignore"):
            return np.where(counts > 0, n / (n_classes * counts), 0.0)
    if isinstance(class_weight, dict):
        per_class = np.ones(n_classes, dtype=np.float64)
        for cls, w in class_weight.items():
            if not 0 <= int(cls) < n_classes:
                raise ValidationError(
                    f"class_weight key {cls!r} outside encoded class range"
                )
            per_class[int(cls)] = float(w)
        return per_class
    raise ValidationError(
        f"class_weight must be None, 'balanced' or a dict, got {class_weight!r}"
    )


def encode_labels(y: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Index of each label of *y* in *classes* (compared as integers)."""
    keys = np.asarray(classes).astype(np.int64)
    values = np.asarray(y).astype(np.int64)
    missing = ~np.isin(values, keys)
    if missing.any():
        raise ValidationError(f"label {values[missing][0]} not in class_labels")
    sorter = np.argsort(keys, kind="stable")
    return sorter[np.searchsorted(keys, values, side="right", sorter=sorter) - 1]


def resolve_max_features(max_features: object, n_features: int) -> int:
    """Translate a ``max_features`` spec into a concrete count."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(
                f"float max_features must be in (0, 1], got {max_features}"
            )
        return max(1, int(max_features * n_features))
    if isinstance(max_features, (int, np.integer)):
        if max_features < 1:
            raise ValidationError("int max_features must be >= 1")
        return min(int(max_features), n_features)
    raise ValidationError(f"unsupported max_features spec: {max_features!r}")


def grow_trees(
    trees: Sequence["DecisionTreeClassifier"],
    X: np.ndarray,
    y: np.ndarray,
    classes: np.ndarray,
    samples: Sequence[np.ndarray],
) -> None:
    """Fit ``trees[t]`` on rows ``samples[t]`` of ``(X, y)``, in lock-step.

    The trees share the hyperparameters of ``trees[0]`` and differ in
    their seeds and samples; ``y`` is already encoded against
    ``classes``.  Each tree pops nodes from its own depth-first stack
    (right child first) and draws each node's ``max_features`` subset
    from its own RNG, exactly as it would grown alone.  One step takes
    the next node to search from every tree and searches them all with
    one :func:`~repro.ml.tree.splitter.find_best_splits` call, so no
    tree's draws or splits depend on the trees beside it.
    """
    spec = trees[0]
    if X.shape[0] == 0:
        raise ValidationError("cannot fit on an empty dataset")
    if spec.min_samples_split < 2:
        raise ValidationError("min_samples_split must be >= 2")
    if spec.min_samples_leaf < 1:
        raise ValidationError("min_samples_leaf must be >= 1")
    if spec.max_depth is not None and spec.max_depth < 1:
        raise ValidationError("max_depth must be >= 1 or None")
    n_features = X.shape[1]
    n_classes = classes.shape[0]
    criterion = get_criterion(spec.criterion)
    k_features = resolve_max_features(spec.max_features, n_features)
    rngs = [ensure_generator(tree.seed) for tree in trees]
    weights = [
        _class_weights(spec.class_weight, y[s], n_classes) for s in samples
    ]
    bufs = [TreeBuffer(n_classes) for _ in trees]
    stacks: List[list] = [[] for _ in trees]

    def add_nodes(nodes: list) -> List[int]:
        """Append ``(tree, rows, depth)`` nodes with their class counts
        to their trees and stacks, in order; return their node ids."""
        flat = np.concatenate([rows for _, rows, _ in nodes])
        slot = np.repeat(
            np.arange(len(nodes)), [rows.shape[0] for _, rows, _ in nodes]
        )
        labels = y[flat]
        key = slot * n_classes + labels
        size = len(nodes) * n_classes
        raw = np.bincount(key, minlength=size).reshape(-1, n_classes)
        if weights[0] is None:
            counts = raw.astype(np.float64)
        else:
            tree_of = np.array([t for t, _, _ in nodes])
            w = np.stack(weights)[tree_of[slot], labels]
            counts = np.bincount(key, weights=w, minlength=size).reshape(
                -1, n_classes
            )
        mixed = np.count_nonzero(raw, axis=1) > 1
        ids = []
        for (t, rows, depth), c, m in zip(nodes, counts, mixed.tolist()):
            ids.append(bufs[t].add_node(c))
            stacks[t].append((ids[-1], rows, depth, m))
        return ids

    add_nodes([(t, s, 0) for t, s in enumerate(samples)])
    while True:
        batch = []
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, depth, mixed = stack.pop()
                if (
                    rows.shape[0] >= spec.min_samples_split
                    and (spec.max_depth is None or depth < spec.max_depth)
                    and mixed
                ):
                    batch.append((t, node, rows, depth))
                    break
        if not batch:
            break
        if k_features < n_features:
            features = np.array([
                rngs[t].choice(n_features, size=k_features, replace=False)
                for t, _, _, _ in batch
            ])
        else:
            features = np.broadcast_to(
                np.arange(n_features), (len(batch), n_features)
            )
        splits = find_best_splits(
            X,
            [rows for _, _, rows, _ in batch],
            y,
            n_classes,
            criterion=criterion,
            features=features,
            min_samples_leaf=spec.min_samples_leaf,
            min_impurity_decrease=spec.min_impurity_decrease,
            weights=(
                None
                if weights[0] is None
                else [weights[t][y[rows]] for t, _, rows, _ in batch]
            ),
        )
        parents, children = [], []
        for (t, node, rows, depth), split in zip(batch, splits):
            if split is None:
                continue  # stays a leaf
            parents.append((t, node, split))
            children.append((t, rows[split.left_mask], depth + 1))
            children.append((t, rows[~split.left_mask], depth + 1))
        if children:
            ids = add_nodes(children)
            for (t, node, split), left, right in zip(parents, ids[::2], ids[1::2]):
                bufs[t].set_split(node, split.feature, split.threshold, left, right)

    for tree, buf in zip(trees, bufs):
        tree.classes_ = classes
        tree.n_features_in_ = n_features
        tree.tree_ = buf.freeze()
        tree.feature_importances_ = tree.tree_.feature_importances(n_features)


class DecisionTreeClassifier(BaseEstimator):
    """CART classifier with gini or entropy splits.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"`` (both appear in the paper's Table III).
    max_depth:
        Depth cap; ``None`` grows until purity or the sample limits bind.
    min_samples_split:
        Minimum node size eligible for splitting.
    min_samples_leaf:
        Minimum samples each child must retain.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction.  When a subset is used it
        is drawn independently at every node (random-forest style).
    min_impurity_decrease:
        Minimum weighted impurity decrease for a split.
    seed:
        Seed for the per-node feature subsampling.

    Attributes
    ----------
    tree_:
        The fitted :class:`~repro.ml.tree.structure.Tree`.
    classes_:
        Sorted original class labels; predictions are mapped back to them.
    feature_importances_:
        Normalised impurity-decrease importances.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: object = None,
        min_impurity_decrease: float = 0.0,
        class_weight: str | dict | None = None,
        seed: int | None = 0,
    ) -> None:
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.class_weight = class_weight
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: Sequence[int],
        *,
        class_labels: Sequence[int] | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``: :func:`grow_trees` with one tree.

        ``class_labels`` fixes the label universe (useful in ensembles
        where a bootstrap may miss a rare class entirely).
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValidationError(
                f"y must be 1-D with len(X)={X.shape[0]}, got shape {y.shape}"
            )
        classes = np.unique(y) if class_labels is None else np.asarray(class_labels)
        grow_trees(
            [self], X, encode_labels(y, classes), classes, [np.arange(X.shape[0])]
        )
        return self

    # ------------------------------------------------------------------
    def _check_X(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != self.n_features_in_:
            raise ModelError(
                f"model was fitted with {self.n_features_in_} features, "
                f"got {X.shape[1]}"
            )
        return X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class distributions, columns ordered as ``classes_``."""
        X = self._check_X(X)
        return self.tree_.predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample, in original label space."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    @property
    def depth_(self) -> int:
        """Depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.depth()

    @property
    def n_leaves_(self) -> int:
        """Leaf count of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves

    def score(self, X: np.ndarray, y: Sequence[int]) -> float:
        """Accuracy on ``(X, y)``."""
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y), self.predict(X))
