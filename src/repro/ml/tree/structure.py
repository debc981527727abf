"""Flat array representation of a fitted decision tree.

Nodes live in parallel NumPy arrays (à la scikit-learn's ``Tree``):
``feature[i] == -1`` marks a leaf; internal nodes send samples with
``x[feature] <= threshold`` left.  The flat layout gives vectorised batch
prediction (one gather per tree level) and a trivially serialisable form
for the Oracle model files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ModelError

__all__ = ["Tree", "TreeStack", "LEAF"]

#: Sentinel feature index marking leaf nodes.
LEAF = -1


@dataclass
class Tree:
    """A fitted CART tree in flat-array form.

    Attributes
    ----------
    feature:
        Split feature per node, or :data:`LEAF` for leaves.
    threshold:
        Split threshold per node (NaN on leaves).
    left, right:
        Child node indices (-1 on leaves).
    counts:
        ``(n_nodes, n_classes)`` training-class counts per node; leaf
        rows are the prediction distribution.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        n = self.feature.shape[0]
        for name in ("threshold", "left", "right"):
            if getattr(self, name).shape[0] != n:
                raise ModelError(f"tree array {name!r} length mismatch")
        if self.counts.ndim != 2 or self.counts.shape[0] != n:
            raise ModelError("counts must be (n_nodes, n_classes)")

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == LEAF))

    def depth(self) -> int:
        """Longest root-to-leaf path (0 for a stump with a single leaf)."""
        level = np.zeros(min(self.n_nodes, 1), dtype=np.int64)
        out = -1
        while level.size:  # one step per tree level, not per node
            out += 1
            split = level[self.feature[level] != LEAF]
            level = np.concatenate((self.left[split], self.right[split]))
        return max(out, 0)

    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every sample (vectorised descent)."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] != LEAF
        while active.any():
            idx = node[active]
            feat = self.feature[idx]
            go_left = X[active, feat] <= self.threshold[idx]
            node[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = self.feature[node] != LEAF
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class distribution of the reached leaf, normalised."""
        return _distribution(self.counts[self.apply(X)])

    # ------------------------------------------------------------------
    def feature_importances(self, n_features: int) -> np.ndarray:
        """Impurity-decrease importance per feature, normalised to sum 1.

        Each feature's decreases are summed in node order (``bincount``
        adds its weights in input order), as a walk over the nodes would.
        """
        from repro.ml.tree.criteria import gini_impurity

        node_imp = gini_impurity(self.counts)
        node_n = self.counts.sum(axis=1)
        total = node_n[0] if self.n_nodes else 0
        split = np.flatnonzero(self.feature != LEAF)
        li, ri = self.left[split], self.right[split]
        decrease = (
            node_n[split] * node_imp[split]
            - node_n[li] * node_imp[li]
            - node_n[ri] * node_imp[ri]
        )
        importances = np.bincount(
            self.feature[split],
            weights=np.where(decrease > 0.0, decrease, 0.0) / max(total, 1),
            minlength=n_features,
        )
        s = importances.sum()
        return importances / s if s > 0 else importances

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible serialisation."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Tree":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                feature=np.asarray(payload["feature"], dtype=np.int64),
                threshold=np.asarray(payload["threshold"], dtype=np.float64),
                left=np.asarray(payload["left"], dtype=np.int64),
                right=np.asarray(payload["right"], dtype=np.int64),
                counts=np.asarray(payload["counts"], dtype=np.float64),
            )
        except KeyError as exc:
            raise ModelError(f"tree payload missing key: {exc}") from exc


def _distribution(counts: np.ndarray) -> np.ndarray:
    """Rows of class *counts* normalised (uniform where a row is empty)."""
    counts = counts.astype(np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(totals > 0, counts / totals, 1.0 / counts.shape[1])


class TreeStack:
    """An ensemble's trees with their node arrays concatenated once.

    One descent then moves every ``(tree, sample)`` pair down a level
    per step, instead of descending each tree separately.  ``vote``
    holds, per node, the class index its normalised distribution
    argmaxes to: exactly ``argmax(tree.predict_proba(X))`` for a sample
    whose leaf it is.
    """

    def __init__(self, trees: List[Tree]) -> None:
        sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
        self.roots = np.cumsum(sizes) - sizes
        shift = np.repeat(self.roots, sizes)
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.left = np.concatenate([t.left for t in trees]) + shift
        self.right = np.concatenate([t.right for t in trees]) + shift
        self.vote = np.argmax(
            _distribution(np.concatenate([t.counts for t in trees])), axis=1
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_samples)`` stacked index of the leaf reached."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        node = np.repeat(self.roots, n)
        sample = np.tile(np.arange(n), self.roots.shape[0])
        active = np.flatnonzero(self.feature[node] != LEAF)
        while active.size:
            idx = node[active]
            go_left = X[sample[active], self.feature[idx]] <= self.threshold[idx]
            node[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = active[self.feature[node[active]] != LEAF]
        return node.reshape(self.roots.shape[0], n)

    def votes(self, X: np.ndarray, n_classes: int) -> np.ndarray:
        """``(n_samples, n_classes)`` count of trees voting each class."""
        leaves = self.apply(X)
        n = leaves.shape[1]
        return np.bincount(
            (np.arange(n) * n_classes + self.vote[leaves]).ravel(),
            minlength=n * n_classes,
        ).reshape(n, n_classes)


class TreeBuffer:
    """Append-only node buffer used while growing a tree."""

    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.counts: List[np.ndarray] = []

    def add_node(self, counts: np.ndarray) -> int:
        """Append a placeholder node, returning its index."""
        self.feature.append(LEAF)
        self.threshold.append(float("nan"))
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(np.asarray(counts, dtype=np.float64))
        return len(self.feature) - 1

    def set_split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        """Turn a placeholder node into an internal split node."""
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def freeze(self) -> Tree:
        """Materialise the immutable flat-array tree."""
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            counts=np.stack(self.counts) if self.counts else np.zeros((0, self.n_classes)),
        )
