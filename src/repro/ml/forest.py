"""Random-forest classifier: bagged CART trees with majority voting.

All trees of a forest grow together in lock-step
(:func:`~repro.ml.tree.classifier.grow_trees`): each step searches the
next node of every tree with one batched split search, while each tree
keeps its own bootstrap sample, depth-first order and RNG, so every tree
is exactly the tree it would be grown alone.  The paper's Oracle deploys
its forest with a hard majority vote over the per-tree predictions
(Section VI-A); ``voting="soft"`` (probability averaging, scikit-learn's
default) is also provided for comparison and as an ablation axis.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.ml.base import BaseEstimator, check_is_fitted
from repro.ml.tree.classifier import (
    DecisionTreeClassifier,
    encode_labels,
    grow_trees,
)
from repro.ml.tree.structure import TreeStack
from repro.utils.rng import derive_seed, ensure_generator

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseEstimator):
    """Ensemble of CART trees over bootstrap samples.

    Parameters
    ----------
    n_estimators:
        Number of trees (the paper tunes 20-100).
    criterion, max_depth, min_samples_split, min_samples_leaf,
    max_features, min_impurity_decrease:
        Passed to every tree; ``max_features`` defaults to ``"sqrt"``
        as is conventional for classification forests.
    bootstrap:
        Sample the training set with replacement per tree (Table III tunes
        this on and off); without bootstrap each tree sees the full set
        and diversity comes from feature subsampling alone.
    class_weight:
        ``None``, ``"balanced"`` or a dict, forwarded to every tree —
        the paper's Section IX names dataset balancing as future work for
        improving minority-format (balanced) accuracy.
    voting:
        ``"hard"`` — majority vote over tree predictions (Oracle's
        scheme); ``"soft"`` — average leaf probabilities.
    seed:
        Master seed; per-tree seeds are derived deterministically.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: object = "sqrt",
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        class_weight: str | dict | None = None,
        voting: str = "hard",
        seed: int | None = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.voting = voting
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: Sequence[int]) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``.

        The labels are encoded once for the whole forest, and the trees
        grow together (module docstring).
        """
        if self.n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if self.voting not in ("hard", "soft"):
            raise ValidationError(
                f"voting must be 'hard' or 'soft', got {self.voting!r}"
            )
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"inconsistent shapes X{X.shape} y{y.shape}"
            )
        vars(self).pop("_stack", None)  # a refit votes with its new trees
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        n = X.shape[0]
        base_seed = self.seed if self.seed is not None else 0
        self.estimators_: List[DecisionTreeClassifier] = []
        samples = []
        for t in range(self.n_estimators):
            tree_seed = derive_seed(base_seed, "tree", t)
            if self.bootstrap:
                rng = ensure_generator(derive_seed(base_seed, "bootstrap", t))
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                min_impurity_decrease=self.min_impurity_decrease,
                class_weight=self.class_weight,
                seed=tree_seed,
            )
            self.estimators_.append(tree)
            samples.append(sample)
        y_enc = encode_labels(y, self.classes_)
        grow_trees(self.estimators_, X, y_enc, self.classes_, samples)
        self.feature_importances_ = np.mean(
            [t.feature_importances_ for t in self.estimators_], axis=0
        )
        return self

    @cached_property
    def _stack(self) -> TreeStack:
        return TreeStack([t.tree_ for t in self.estimators_])

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Ensemble class probabilities (columns follow ``classes_``).

        Hard voting returns vote fractions; soft voting returns the mean
        of the trees' leaf distributions.
        """
        check_is_fitted(self, "estimators_")
        if self.voting == "soft":
            probas = [t.predict_proba(X) for t in self.estimators_]
            return np.mean(probas, axis=0)
        X = self.estimators_[0]._check_X(X)
        # tree classes_ equal forest classes_ (fixed via class_labels),
        # so a tree's vote is the class index its reached leaf argmaxes to
        votes = self._stack.votes(X, self.classes_.shape[0])
        return votes / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote (or argmax-soft) class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    @property
    def mean_depth_(self) -> float:
        """Average depth across the fitted trees (drives prediction cost)."""
        check_is_fitted(self, "estimators_")
        return float(np.mean([t.depth_ for t in self.estimators_]))

    @property
    def total_nodes_(self) -> int:
        """Total node count across the ensemble."""
        check_is_fitted(self, "estimators_")
        return int(sum(t.tree_.n_nodes for t in self.estimators_))

    def score(self, X: np.ndarray, y: Sequence[int]) -> float:
        """Accuracy on ``(X, y)``."""
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y), self.predict(X))
