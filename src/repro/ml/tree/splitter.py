"""Best-split search for CART nodes, many nodes per call.

:func:`find_best_splits` searches a batch of classification nodes at
once: the lock-step grower (``classifier.py``) passes one node per
growing tree.  The nodes' candidate-feature values are padded into one
``(B, k, n_max)`` block.  The padding is NaN, which a stable argsort
puts after every real value, so each node's real prefix sorts exactly
as it would alone.  Prefix sums of a weighted one-hot class block,
gathered in that order, give the left-partition class counts at every
threshold of every candidate feature of every node, so one criterion
call per side scores them all.  :func:`find_best_split` is the one-node
call.  :func:`find_best_split_mse` is the regression trees' per-node
search (gradient boosting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SplitResult", "find_best_split", "find_best_splits"]

#: Byte budget of one chunk's sorted one-hot block ``(B, k, n_max, C)``.
#: A batch is searched in as many chunks of nodes as this needs; a node
#: over the budget alone is searched a slice of its candidate features
#: at a time (at least one).  The criterion's temporaries are a few
#: times this.
BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class SplitResult:
    """The winning split of a node."""

    feature: int
    threshold: float
    gain: float  # impurity decrease, weighted by node fraction
    left_mask: np.ndarray  # boolean over the node's local samples


def find_best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    criterion: Callable[[np.ndarray], np.ndarray],
    feature_indices: np.ndarray,
    min_samples_leaf: int,
    min_impurity_decrease: float = 0.0,
    sample_weight: np.ndarray | None = None,
) -> Optional[SplitResult]:
    """Return the best split of ``(X, y)`` over *feature_indices*, or None.

    Parameters
    ----------
    X, y:
        The node's samples (rows of the full matrix already gathered).
    n_classes:
        Total number of classes in the overall problem.
    criterion:
        Impurity function over class-count arrays.
    feature_indices:
        Candidate features in evaluation order (callers pass a random
        subset/permutation for ``max_features``).
    min_samples_leaf:
        Both children must keep at least this many samples (raw counts,
        independent of sample weights — matching scikit-learn).
    min_impurity_decrease:
        Minimum weighted impurity decrease for a split to be admissible.
    sample_weight:
        Optional per-sample weights; impurities are computed on weighted
        class counts (this is how ``class_weight='balanced'`` training
        re-weights the rare-format classes).
    """
    return find_best_splits(
        X,
        [np.arange(X.shape[0])],
        y,
        n_classes,
        criterion=criterion,
        features=np.asarray(feature_indices, dtype=np.int64)[None, :],
        min_samples_leaf=min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
        weights=None if sample_weight is None else [sample_weight],
    )[0]


def find_best_splits(
    X: np.ndarray,
    rows: Sequence[np.ndarray],
    y: np.ndarray,
    n_classes: int,
    *,
    criterion: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    min_samples_leaf: int,
    min_impurity_decrease: float = 0.0,
    weights: Sequence[np.ndarray] | None = None,
) -> List[Optional[SplitResult]]:
    """Best split of each node in *rows*, or None where it has none.

    ``rows[b]`` indexes node *b*'s samples in ``X`` and ``y``, in node
    order; ``features[b]`` are its candidate features in evaluation
    order (every node has the same number); ``weights[b]``, if given,
    are its samples' weights.  Each node's result is the one it would
    get searched alone: the first feature whose best gain beats the
    best so far by more than ``1e-15`` wins, and a split must beat
    ``min_impurity_decrease`` the same way.
    """
    features = np.asarray(features, dtype=np.int64)
    n_nodes, k = features.shape
    sizes = np.fromiter((r.shape[0] for r in rows), np.int64, n_nodes)
    width = int(sizes.max(initial=0))
    step = max(1, BLOCK_BYTES // max(1, k * width * n_classes * 8))
    if step < n_nodes:  # one chunk at a time; no chunk is wider
        return [
            split
            for lo in range(0, n_nodes, step)
            for split in find_best_splits(
                X,
                rows[lo : lo + step],
                y,
                n_classes,
                criterion=criterion,
                features=features[lo : lo + step],
                min_samples_leaf=min_samples_leaf,
                min_impurity_decrease=min_impurity_decrease,
                weights=None if weights is None else weights[lo : lo + step],
            )
        ]
    if width < 2 or k == 0:
        return [None] * n_nodes
    flat = np.concatenate(rows)
    node = np.repeat(np.arange(n_nodes), sizes)
    pos = np.arange(flat.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    onehot = np.zeros((n_nodes, width, n_classes))
    onehot[node, pos, y[flat]] = 1.0 if weights is None else np.concatenate(weights)
    parent = onehot.sum(axis=1)
    parent_imp = criterion(parent)

    # a chunk still over the budget is one node: score its candidate
    # features a slice at a time (each feature's score is independent)
    k_step = max(1, BLOCK_BYTES // (n_nodes * width * n_classes * 8))
    scored = [
        _score_features(
            X[flat[:, None], features[node, lo : lo + k_step]],
            node,
            pos,
            onehot,
            parent,
            parent_imp,
            sizes,
            criterion=criterion,
            min_samples_leaf=min_samples_leaf,
        )
        for lo in range(0, k, k_step)
    ]
    feature_gain = np.concatenate([gain for gain, _ in scored], axis=1)
    feature_threshold = np.concatenate([thr for _, thr in scored], axis=1)

    best_gain = np.full(n_nodes, float(min_impurity_decrease))
    chosen = np.full(n_nodes, -1)
    for j in range(k):
        better = feature_gain[:, j] > best_gain + 1e-15
        best_gain[better] = feature_gain[better, j]
        chosen[better] = j
    chosen[parent_imp <= 0.0] = -1  # pure node

    out: List[Optional[SplitResult]] = [None] * n_nodes
    found = np.flatnonzero(chosen >= 0)
    for b, f, thr, gain in zip(
        found.tolist(),
        features[found, chosen[found]].tolist(),
        feature_threshold[found, chosen[found]].tolist(),
        best_gain[found].tolist(),
    ):
        out[b] = SplitResult(
            feature=f, threshold=thr, gain=gain, left_mask=X[rows[b], f] <= thr
        )
    return out


def _score_features(
    cols: np.ndarray,
    node: np.ndarray,
    pos: np.ndarray,
    onehot: np.ndarray,
    parent: np.ndarray,
    parent_imp: np.ndarray,
    sizes: np.ndarray,
    *,
    criterion: Callable[[np.ndarray], np.ndarray],
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best gain and threshold of each node's candidate features.

    *cols* holds the nodes' samples' values, one column per candidate
    (row ``i`` is sample ``pos[i]`` of node ``node[i]``).  Returns two
    ``(B, kc)`` arrays: each feature's best gain (``-inf`` where no
    position is valid) and the midpoint threshold that reaches it.
    """
    n_nodes, width, _ = onehot.shape
    k = cols.shape[1]
    values = np.full((n_nodes, k, width), np.nan)
    values[node[:, None], np.arange(k), pos[:, None]] = cols
    order = np.argsort(values, axis=2, kind="stable")
    v_sorted = np.take_along_axis(values, order, axis=2)
    # split position i means left = sorted samples [0..i]
    left = np.cumsum(onehot[np.arange(n_nodes)[:, None, None], order], axis=2)[
        :, :, :-1
    ]
    right = parent[:, None, None, :] - left
    n = sizes.astype(np.float64)[:, None, None]
    n_left = np.arange(1, width, dtype=np.float64)
    n_right = n - n_left
    # a position is valid only between distinct consecutive values; NaN
    # padding compares false, so no position reaches past a node's end
    valid = (
        (v_sorted[:, :, :-1] < v_sorted[:, :, 1:])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    child = (n_left * criterion(left) + n_right * criterion(right)) / n
    gains = parent_imp[:, None, None] - child
    gains[~valid] = -np.inf
    at = gains.argmax(axis=2)[:, :, None]
    # midpoint threshold, matching scikit-learn
    threshold = 0.5 * (
        np.take_along_axis(v_sorted, at, axis=2)
        + np.take_along_axis(v_sorted, at + 1, axis=2)
    )
    return np.take_along_axis(gains, at, axis=2)[:, :, 0], threshold[:, :, 0]


def find_best_split_mse(
    X: np.ndarray,
    y: np.ndarray,
    *,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
    min_impurity_decrease: float = 0.0,
) -> Optional[SplitResult]:
    """Best variance-reducing split for a regression target.

    Node impurity is the variance of *y*; child impurities are evaluated at
    every candidate threshold via prefix sums of ``y`` and ``y**2`` (the
    same one-sweep trick as the classification splitter).  Used by the
    regression trees inside gradient boosting.
    """
    n = X.shape[0]
    if n < 2 * min_samples_leaf:
        return None
    y = np.asarray(y, dtype=np.float64)
    parent_var = float(y.var())
    if parent_var <= 1e-18:
        return None

    best_gain = min_impurity_decrease
    best: Optional[tuple[int, float]] = None

    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        distinct = v_sorted[:-1] < v_sorted[1:]
        if not distinct.any():
            continue
        y_sorted = y[order]
        csum = np.cumsum(y_sorted)[:-1]
        csum2 = np.cumsum(y_sorted * y_sorted)[:-1]
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        total = float(y_sorted.sum())
        total2 = float((y_sorted * y_sorted).sum())
        valid = (
            distinct
            & (n_left >= min_samples_leaf)
            & (n_right >= min_samples_leaf)
        )
        if not valid.any():
            continue
        # child variance * child count == sum(y^2) - sum(y)^2 / count
        left_sse = csum2 - csum * csum / n_left
        right_sum = total - csum
        right_sse = (total2 - csum2) - right_sum * right_sum / n_right
        child = (left_sse + right_sse) / n
        gains = parent_var - child
        gains[~valid] = -np.inf
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > best_gain + 1e-15:
            best_gain = gain
            thr = 0.5 * (float(v_sorted[pos]) + float(v_sorted[pos + 1]))
            best = (int(f), thr)

    if best is None:
        return None
    feature, threshold = best
    return SplitResult(
        feature=feature,
        threshold=threshold,
        gain=best_gain,
        left_mask=X[:, feature] <= threshold,
    )
