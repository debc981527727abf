"""CART regression tree (variance-reduction splits, mean-value leaves).

Built as the base learner for gradient boosting — the paper's Section IX
names gradient-boosted decision trees as the candidate for improving on
the random forest.  The tree reuses the flat :class:`Tree` layout with a
single "class" column holding each node's mean target value.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ModelError, ValidationError
from repro.ml.base import BaseEstimator, check_is_fitted
from repro.ml.tree.classifier import resolve_max_features
from repro.ml.tree.splitter import find_best_split_mse
from repro.ml.tree.structure import TreeBuffer
from repro.utils.rng import ensure_generator

__all__ = ["DecisionTreeRegressor"]


class DecisionTreeRegressor(BaseEstimator):
    """Least-squares CART regressor.

    Parameters mirror the classifier's; the split criterion is variance
    reduction and leaves predict their training mean.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: object = None,
        min_impurity_decrease: float = 0.0,
        seed: int | None = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on continuous targets ``y``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValidationError(
                f"y must be 1-D with len(X)={X.shape[0]}, got {y.shape}"
            )
        if X.shape[0] == 0:
            raise ValidationError("cannot fit on an empty dataset")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ValidationError("invalid min_samples settings")

        self.n_features_in_ = X.shape[1]
        k_features = resolve_max_features(self.max_features, self.n_features_in_)
        rng = ensure_generator(self.seed)

        # node "counts" carry (sum(y), n) so leaf means are sum/n
        buf = TreeBuffer(n_classes=2)
        root = buf.add_node(np.array([y.sum(), float(y.shape[0])]))
        stack: List[tuple[int, np.ndarray, int]] = [
            (root, np.arange(X.shape[0], dtype=np.int64), 0)
        ]
        while stack:
            node, idx, depth = stack.pop()
            if (
                idx.shape[0] < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                continue
            if k_features < self.n_features_in_:
                feats = rng.choice(self.n_features_in_, size=k_features, replace=False)
            else:
                feats = np.arange(self.n_features_in_)
            split = find_best_split_mse(
                X[idx],
                y[idx],
                feature_indices=feats,
                min_samples_leaf=self.min_samples_leaf,
                min_impurity_decrease=self.min_impurity_decrease,
            )
            if split is None:
                continue
            left_idx = idx[split.left_mask]
            right_idx = idx[~split.left_mask]
            left = buf.add_node(
                np.array([y[left_idx].sum(), float(left_idx.shape[0])])
            )
            right = buf.add_node(
                np.array([y[right_idx].sum(), float(right_idx.shape[0])])
            )
            buf.set_split(node, split.feature, split.threshold, left, right)
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))
        self.tree_ = buf.freeze()
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean target value of the reached leaf per sample."""
        check_is_fitted(self, "tree_")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != self.n_features_in_:
            raise ModelError(
                f"model was fitted with {self.n_features_in_} features, "
                f"got {X.shape[1]}"
            )
        leaves = self.tree_.apply(X)
        sums = self.tree_.counts[leaves, 0]
        counts = self.tree_.counts[leaves, 1]
        return sums / np.maximum(counts, 1.0)

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.depth()

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R^2 coefficient of determination."""
        y = np.asarray(y, dtype=np.float64)
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
