"""The offline Sparse.Tree stage (paper Section III-A, Figure 1).

Pipeline: **profiling runs** label every (matrix, system, backend) with its
optimal format → **feature extraction** turns matrices into Table-I vectors
→ **training + grid-search tuning** produces baseline and tuned classifiers
→ **model extraction** writes Oracle model files into a
:class:`ModelDatabase` for the online stage to load.

The stage implementations live in :mod:`repro.experiments.stages`
(config-driven, parallel, store-resumable):
:func:`~repro.experiments.stages.run_profile_stage` and
:func:`~repro.experiments.stages.train_model`.  This module keeps the
types they produce and consume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.features import extract_features_from_stats
from repro.core.model_io import OracleModel, load_model, save_model
from repro.datasets.collection import MatrixCollection, MatrixSpec
from repro.errors import TuningError, ValidationError
from repro.formats.base import FORMAT_IDS, FORMAT_NAMES

__all__ = [
    "ProfilingResult",
    "build_dataset",
    "TrainedModel",
    "ModelDatabase",
    "DEFAULT_RF_GRID",
    "SMALL_RF_GRID",
    "DEFAULT_DT_GRID",
]

# ----------------------------------------------------------------------
# profiling runs
# ----------------------------------------------------------------------


@dataclass
class ProfilingResult:
    """Per-space SpMV timings and optimal-format labels.

    ``times[space_name][matrix_name][fmt]`` is the modelled seconds of one
    SpMV; ``optimal[space_name][matrix_name]`` is the winning format id.
    """

    times: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    optimal: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: True when restored from an artifact store rather than computed.
    from_store: bool = False

    def labels(self, space_name: str, names: Sequence[str]) -> np.ndarray:
        """Optimal-format ids for *names* on one space, in order."""
        table = self.optimal[space_name]
        return np.asarray([table[n] for n in names], dtype=np.int64)

    def format_distribution(self, space_name: str) -> Dict[str, float]:
        """Fraction of matrices whose optimum is each format (Figure 2)."""
        table = self.optimal[space_name]
        counts = {fmt: 0 for fmt in FORMAT_IDS}
        for fid in table.values():
            counts[FORMAT_NAMES[fid]] += 1
        total = max(1, len(table))
        return {fmt: c / total for fmt, c in counts.items()}

    def speedup_vs_csr(self, space_name: str, *, omit_csr_optimal: bool = True) -> np.ndarray:
        """Per-matrix ``T_CSR / T_optimal`` (Figures 3 and 4)."""
        out = []
        for name, fmts in self.times[space_name].items():
            best_name = FORMAT_NAMES[self.optimal[space_name][name]]
            if omit_csr_optimal and best_name == "CSR":
                continue
            best_time = fmts[best_name]
            if best_time <= 0.0:
                raise TuningError(
                    f"degenerate profiling timing for {name!r} on "
                    f"{space_name}: best format {best_name} has modelled "
                    f"time {best_time!r}"
                )
            out.append(fmts["CSR"] / best_time)
        return np.asarray(out)


def build_dataset(
    collection: MatrixCollection,
    specs: Sequence[MatrixSpec],
    profiling: ProfilingResult,
    space_name: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble ``(X, y)``: Table-I features and optimal-format labels.

    Features come from the collection's cached stats, so a dataset built
    after :func:`~repro.experiments.stages.run_profile_stage` performs
    zero matrix regeneration.
    """
    X = np.stack(
        [extract_features_from_stats(collection.stats(s)) for s in specs]
    )
    y = profiling.labels(space_name, [s.name for s in specs])
    return X, y


# ----------------------------------------------------------------------
# training + tuning
# ----------------------------------------------------------------------

#: Full grid in the spirit of Table III (large: use for overnight runs).
DEFAULT_RF_GRID: Mapping[str, Sequence[object]] = {
    "n_estimators": [20, 40, 60],
    "max_depth": [10, 14, 18, 22],
    "min_samples_leaf": [1, 2],
    "min_samples_split": [2, 10],
    "criterion": ["gini", "entropy"],
    "bootstrap": [True, False],
}

#: Reduced grid keeping every tuned axis but fewer levels (CI-friendly).
SMALL_RF_GRID: Mapping[str, Sequence[object]] = {
    "n_estimators": [20, 40],
    "max_depth": [12, 20],
    "min_samples_leaf": [1, 2],
    "criterion": ["gini", "entropy"],
}

#: Decision-tree grid (Section VII-D trains and tunes both algorithms).
DEFAULT_DT_GRID: Mapping[str, Sequence[object]] = {
    "max_depth": [8, 12, 16, 20, None],
    "min_samples_leaf": [1, 2, 5],
    "min_samples_split": [2, 5, 10],
    "criterion": ["gini", "entropy"],
}


@dataclass
class TrainedModel:
    """Baseline + grid-search-tuned classifier pair for one space.

    Mirrors one row of the paper's Table III: the baseline model uses the
    library-default hyperparameters, the tuned model the grid-search
    winner; both are scored on the held-out test set with accuracy and
    balanced accuracy.
    """

    algorithm: str
    system: str
    backend: str
    baseline: object
    tuned: object
    baseline_params: Dict[str, object]
    tuned_params: Dict[str, object]
    cv_best_score: float
    test_scores: Dict[str, float]

    @property
    def oracle_model(self) -> OracleModel:
        """Deployable tuned model for the online stage."""
        return OracleModel.from_estimator(
            self.tuned, system=self.system, backend=self.backend
        )

    @property
    def baseline_oracle_model(self) -> OracleModel:
        """Deployable baseline model (for overhead comparisons)."""
        return OracleModel.from_estimator(
            self.baseline, system=self.system, backend=self.backend
        )


# ----------------------------------------------------------------------
# model database
# ----------------------------------------------------------------------


#: Separator between the system / backend / algorithm fields of a model
#: file name.  A double underscore cannot appear inside any field (enforced
#: by :meth:`ModelDatabase.path_for`), so splitting on it is unambiguous
#: even for names like ``open_mp`` or ``random_forest`` that contain ``_``.
_KEY_SEPARATOR = "__"


class ModelDatabase:
    """Directory of Oracle model files keyed by (system, backend, algorithm).

    The paper ships pre-trained models for its test systems; users point
    the online tuners at a database path and load by key.  Keys are encoded
    in the file name with a ``__`` field separator.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, system: str, backend: str, algorithm: str) -> str:
        """Model-file path for a (system, backend, algorithm) key."""
        fields = (system.lower(), backend.lower(), algorithm)
        for name, value in zip(("system", "backend", "algorithm"), fields):
            if _KEY_SEPARATOR in value:
                raise ValidationError(
                    f"{name} {value!r} must not contain {_KEY_SEPARATOR!r} "
                    "(reserved as the model-file key separator)"
                )
            if not value:
                raise ValidationError(f"{name} must be non-empty")
        return os.path.join(self.root, _KEY_SEPARATOR.join(fields) + ".model")

    def save(self, model: OracleModel, *, algorithm: str | None = None) -> str:
        """Store *model*; returns the file path."""
        algo = algorithm or model.kind
        if not model.system or not model.backend:
            raise ValidationError(
                "OracleModel must carry system and backend metadata to be "
                "stored in a ModelDatabase"
            )
        path = self.path_for(model.system, model.backend, algo)
        save_model(path, model)
        return path

    def load(self, system: str, backend: str, algorithm: str) -> OracleModel:
        """Load the model for a key; raises if absent."""
        path = self.path_for(system, backend, algorithm)
        if not os.path.exists(path):
            raise TuningError(
                f"no model for ({system}, {backend}, {algorithm}) in "
                f"{self.root}"
            )
        return load_model(path)

    def available(self) -> List[Tuple[str, str, str]]:
        """All (system, backend, algorithm) keys present on disk.

        Files written by :meth:`path_for` split unambiguously on the
        ``__`` separator; other ``.model`` names are skipped.
        """
        out = []
        for fname in sorted(os.listdir(self.root)):
            if not fname.endswith(".model"):
                continue
            stem = fname[: -len(".model")]
            parts = stem.split(_KEY_SEPARATOR)
            if len(parts) == 3 and all(parts):
                out.append((parts[0], parts[1], parts[2]))
        return out
