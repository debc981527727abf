"""The Oracle model-file format.

Morpheus-Oracle loads tree models from plain text files at runtime
(Section III-B: "loads an ML model from a file specified at runtime").  The
format here is a line-oriented text serialisation:

.. code-block:: text

    # morpheus-oracle model v1
    kind random_forest
    system cirrus
    backend cuda
    n_features 10
    classes 0 1 2 3 4 5
    meta {"version": "v0002", "source": "<suite fingerprint>"}
    n_trees 40
    tree 0 <n_nodes>
    <feature> <threshold> <left> <right> <count_0> ... <count_k>
    ...

Feature lines use ``repr`` floats so round-trips are bit-exact.  The
``meta`` line is optional (written only when the model carries metadata,
so pre-existing files stay byte-identical) and holds a single JSON
object — the provenance the adaptive
:class:`~repro.adaptive.registry.ModelRegistry` stamps on every
published version.  The loader reconstructs an :class:`OracleModel`,
which both ML tuners consume.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, List, Union

import numpy as np

from repro.errors import ModelIOError
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree.classifier import DecisionTreeClassifier
from repro.ml.tree.structure import Tree, TreeStack

__all__ = ["OracleModel", "save_model", "load_model"]

PathLike = Union[str, os.PathLike]

_MAGIC = "# morpheus-oracle model v1"
_KINDS = ("decision_tree", "random_forest")


@dataclass
class OracleModel:
    """A deployable tree-ensemble model plus its provenance metadata.

    A single-tree model has ``kind == "decision_tree"``; ensembles vote by
    majority, mirroring Oracle's ``RandomForestTuner`` (Section VI-A).
    """

    kind: str
    trees: List[Tree]
    classes: np.ndarray
    n_features: int
    system: str = ""
    backend: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ModelIOError(f"unknown model kind {self.kind!r}")
        if not self.trees:
            raise ModelIOError("model must contain at least one tree")
        if self.kind == "decision_tree" and len(self.trees) != 1:
            raise ModelIOError(
                f"decision_tree models hold exactly one tree, got {len(self.trees)}"
            )

    # ------------------------------------------------------------------
    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    @cached_property
    def mean_depth(self) -> float:
        """Average tree depth (drives the modelled prediction cost)."""
        return float(np.mean([t.depth() for t in self.trees]))

    @cached_property
    def _stack(self) -> TreeStack:
        return TreeStack(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote prediction in the original label space."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ModelIOError(
                f"model expects {self.n_features} features, got {X.shape[1]}"
            )
        votes = self._stack.votes(X, self.classes.shape[0])
        return self.classes[np.argmax(votes, axis=1)]

    def predict_one(self, x: np.ndarray) -> int:
        """Convenience: predict a single feature vector, returning an int."""
        return int(self.predict(np.asarray(x)[None, :])[0])

    # ------------------------------------------------------------------
    @classmethod
    def from_estimator(
        cls,
        estimator: Union[DecisionTreeClassifier, RandomForestClassifier],
        *,
        system: str = "",
        backend: str = "",
        metadata: dict | None = None,
    ) -> "OracleModel":
        """Extract a deployable model from a fitted classifier."""
        if isinstance(estimator, DecisionTreeClassifier):
            kind = "decision_tree"
            trees = [estimator.tree_]
        elif isinstance(estimator, RandomForestClassifier):
            kind = "random_forest"
            trees = [t.tree_ for t in estimator.estimators_]
        else:
            raise ModelIOError(
                f"cannot extract a model from {type(estimator).__name__}"
            )
        return cls(
            kind=kind,
            trees=trees,
            classes=np.asarray(estimator.classes_, dtype=np.int64),
            n_features=estimator.n_features_in_,
            system=system,
            backend=backend,
            metadata=dict(metadata or {}),
        )


# ----------------------------------------------------------------------
# text serialisation
# ----------------------------------------------------------------------

def save_model(path_or_file: PathLike | IO[str], model: OracleModel) -> None:
    """Write *model* in the Oracle text format."""
    if hasattr(path_or_file, "write"):
        _write(path_or_file, model)  # type: ignore[arg-type]
        return
    with open(path_or_file, "w", encoding="ascii") as fh:
        _write(fh, model)


def _write(fh: IO[str], model: OracleModel) -> None:
    fh.write(_MAGIC + "\n")
    fh.write(f"kind {model.kind}\n")
    fh.write(f"system {model.system or '-'}\n")
    fh.write(f"backend {model.backend or '-'}\n")
    fh.write(f"n_features {model.n_features}\n")
    fh.write("classes " + " ".join(str(int(c)) for c in model.classes) + "\n")
    if model.metadata:
        fh.write(
            "meta "
            + json.dumps(model.metadata, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
    fh.write(f"n_trees {len(model.trees)}\n")
    for t_idx, tree in enumerate(model.trees):
        fh.write(f"tree {t_idx} {tree.n_nodes}\n")
        for i in range(tree.n_nodes):
            counts = " ".join(repr(float(c)) for c in tree.counts[i])
            fh.write(
                f"{int(tree.feature[i])} {repr(float(tree.threshold[i]))} "
                f"{int(tree.left[i])} {int(tree.right[i])} {counts}\n"
            )


def load_model(path_or_file: PathLike | IO[str]) -> OracleModel:
    """Read a model written by :func:`save_model`."""
    if hasattr(path_or_file, "read"):
        return _read(path_or_file)  # type: ignore[arg-type]
    with open(path_or_file, "r", encoding="ascii") as fh:
        return _read(fh)


def _expect(fh: IO[str], key: str) -> List[str]:
    line = fh.readline().strip()
    parts = line.split()
    if not parts or parts[0] != key:
        raise ModelIOError(f"expected {key!r} line, got {line!r}")
    return parts[1:]


def _read(fh: IO[str]) -> OracleModel:
    magic = fh.readline().rstrip("\n")
    if magic != _MAGIC:
        raise ModelIOError(f"bad magic line: {magic!r}")
    kind = _expect(fh, "kind")[0]
    system = _expect(fh, "system")[0]
    backend = _expect(fh, "backend")[0]
    n_features = int(_expect(fh, "n_features")[0])
    classes = np.asarray([int(t) for t in _expect(fh, "classes")], dtype=np.int64)
    # optional metadata line (absent in files written before it existed)
    line = fh.readline().strip()
    metadata: dict = {}
    if line.startswith("meta "):
        try:
            metadata = json.loads(line[len("meta "):])
        except json.JSONDecodeError as exc:
            raise ModelIOError(f"malformed meta line: {line!r}") from exc
        if not isinstance(metadata, dict):
            raise ModelIOError("meta line must hold a JSON object")
        line = fh.readline().strip()
    parts = line.split()
    if not parts or parts[0] != "n_trees":
        raise ModelIOError(f"expected 'n_trees' line, got {line!r}")
    n_trees = int(parts[1])
    trees: List[Tree] = []
    for t_idx in range(n_trees):
        header = _expect(fh, "tree")
        if int(header[0]) != t_idx:
            raise ModelIOError(
                f"tree index mismatch: expected {t_idx}, got {header[0]}"
            )
        n_nodes = int(header[1])
        feature = np.empty(n_nodes, dtype=np.int64)
        threshold = np.empty(n_nodes, dtype=np.float64)
        left = np.empty(n_nodes, dtype=np.int64)
        right = np.empty(n_nodes, dtype=np.int64)
        counts = np.empty((n_nodes, classes.shape[0]), dtype=np.float64)
        for i in range(n_nodes):
            parts = fh.readline().split()
            if len(parts) != 4 + classes.shape[0]:
                raise ModelIOError(
                    f"tree {t_idx} node {i}: expected "
                    f"{4 + classes.shape[0]} fields, got {len(parts)}"
                )
            feature[i] = int(parts[0])
            threshold[i] = float(parts[1])
            left[i] = int(parts[2])
            right[i] = int(parts[3])
            counts[i] = [float(v) for v in parts[4:]]
        trees.append(
            Tree(feature=feature, threshold=threshold, left=left, right=right, counts=counts)
        )
    return OracleModel(
        kind=kind,
        trees=trees,
        classes=classes,
        n_features=n_features,
        system="" if system == "-" else system,
        backend="" if backend == "-" else backend,
        metadata=metadata,
    )
