"""Drifting workloads: traffic whose matrix population shifts mid-trace.

The adaptive loop's acceptance case is a *population shift*: live
traffic starts out looking like the training corpus and then moves to a
structurally different family mix (the classic example: a banded /
multi-diagonal population giving way to scale-free graph matrices).
This module builds that scenario end to end:

* :func:`bootstrap` — train the initial model on a family-biased corpus
  through the offline stages, returning everything the adaptive loop
  needs (the model, the stage dataset for augmentation, the
  :class:`~repro.adaptive.drift.BaselineFingerprint`);
* :func:`drifting_trace` — a generated
  :class:`~repro.trace.format.RecordedTrace` whose request stream
  switches from a *before* corpus to an *after* corpus at
  ``shift_fraction`` (the shared :func:`~repro.trace.workloads.hot_cold_keys`
  draw within each phase);
* :func:`mispredict_rate` — offline ground truth: how often a model's
  prediction loses to the measured-optimal format over a matrix set
  (the metric the drift benchmark compares frozen vs adapted models
  on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.adaptive.drift import BaselineFingerprint
from repro.backends import make_space
from repro.core.model_io import OracleModel
from repro.datasets.collection import MatrixCollection
from repro.errors import ValidationError
from repro.formats.base import FORMAT_IDS, SparseMatrix
from repro.formats.dynamic import DynamicMatrix
from repro.machine.stats import MatrixStats
from repro.trace.format import RecordedTrace
from repro.trace.workloads import hot_cold_keys, spmv_trace

__all__ = [
    "BANDED_FAMILIES",
    "SCALE_FREE_FAMILIES",
    "Bootstrap",
    "DriftScenario",
    "bootstrap",
    "drifting_trace",
    "mispredict_rate",
]

#: Structured population: diagonal-dominated matrices (DIA/ELL country).
BANDED_FAMILIES: Dict[str, float] = {
    "banded": 0.4,
    "multi_diagonal": 0.3,
    "diagonal_dominant": 0.2,
    "noisy_banded": 0.1,
}

#: Scale-free population: skewed row-length graphs (CSR/HYB country).
SCALE_FREE_FAMILIES: Dict[str, float] = {
    "powerlaw": 0.5,
    "rmat": 0.3,
    "hypersparse": 0.2,
}


@dataclass
class Bootstrap:
    """Everything the offline stage hands the adaptive loop."""

    model: OracleModel
    dataset: Dict[str, np.ndarray]
    baseline: BaselineFingerprint
    collection: MatrixCollection
    test_scores: Dict[str, float]

    @property
    def baseline_mispredict_rate(self) -> float:
        return self.baseline.mispredict_rate


def bootstrap(
    system: str,
    backend: str,
    *,
    families: Optional[Mapping[str, float]] = None,
    n_matrices: int = 24,
    seed: int = 42,
    algorithm: str = "random_forest",
    grid: Optional[Mapping[str, Sequence[object]]] = None,
    cv: int = 3,
    source: str = "",
) -> Bootstrap:
    """Train the initial model on a family-biased corpus, offline-style.

    Runs the profile and train stages of the experiment pipeline over a
    :class:`MatrixCollection` restricted to *families* (default: the
    banded mix) and condenses the result into a :class:`Bootstrap`: the
    deployable model, the stage dataset (for retrain augmentation) and
    the corpus :class:`BaselineFingerprint` whose ``mispredict_rate`` is
    the model's held-out test error.
    """
    from repro.core.pipeline import build_dataset
    from repro.experiments.stages import run_profile_stage, train_model

    if grid is None:
        grid = {"n_estimators": [10], "max_depth": [10]}
    space = make_space(system, backend)
    collection = MatrixCollection(
        n_matrices=n_matrices,
        seed=seed,
        families=dict(families) if families is not None else BANDED_FAMILIES,
    )
    profiling = run_profile_stage(collection, [space])
    train_specs, test_specs = collection.train_test_split()
    X_train, y_train = build_dataset(
        collection, train_specs, profiling, space.name
    )
    X_test, y_test = build_dataset(collection, test_specs, profiling, space.name)
    tm = train_model(
        X_train,
        y_train,
        X_test,
        y_test,
        algorithm=algorithm,
        grid=dict(grid),
        cv=cv,
        seed=seed,
        system=system,
        backend=backend,
    )
    dataset = {
        "X_train": X_train,
        "y_train": y_train,
        "X_test": X_test,
        "y_test": y_test,
    }
    baseline = BaselineFingerprint.from_dataset(
        dataset,
        mispredict_rate=1.0 - float(tm.test_scores["tuned_accuracy"]),
        source=source or f"bootstrap:{space.name}:seed={seed}",
    )
    return Bootstrap(
        model=tm.oracle_model,
        dataset=dataset,
        baseline=baseline,
        collection=collection,
        test_scores=dict(tm.test_scores),
    )


@dataclass
class DriftScenario:
    """A drifting trace plus the bookkeeping the benchmark needs."""

    trace: RecordedTrace
    shift_index: int
    before_names: List[str] = field(default_factory=list)
    after_names: List[str] = field(default_factory=list)

    @property
    def after_matrices(self) -> Dict[str, SparseMatrix]:
        """The drifted population (name -> matrix), for offline scoring."""
        return {name: self.trace.matrix(name) for name in self.after_names}

    def phase_trace(self, phase: str, sessions: int = 1) -> RecordedTrace:
        """The ``"before"`` or ``"after"`` slice as its own generated trace.

        Adaptive drivers serve the pre-drift phase once and then replay
        the drifted phase in *waves* — sustained drifted traffic is what
        lets the loop converge (probe the whole population, retrain,
        confirm the fix) rather than adapting from one early snapshot.
        Requests round-robin across *sessions*.
        """
        if phase not in ("before", "after"):
            raise ValidationError(
                f"phase must be 'before' or 'after', got {phase!r}"
            )
        names = self.before_names if phase == "before" else self.after_names
        members = set(names)
        return spmv_trace(
            {n: self.trace.matrix(n) for n in names},
            [e["key"] for e in self.trace.events if e["key"] in members],
            seed=self.trace.seed + (0 if phase == "before" else 1),
            sessions=sessions,
            source=f"drifting:{phase}",
        )


def drifting_trace(
    n_matrices: int = 6,
    requests: int = 128,
    *,
    seed: int = 42,
    families_before: Optional[Mapping[str, float]] = None,
    families_after: Optional[Mapping[str, float]] = None,
    shift_fraction: float = 0.5,
) -> DriftScenario:
    """A request trace whose matrix population shifts mid-stream.

    The first ``shift_fraction`` of requests draw (hot/cold) from a
    corpus of *families_before* matrices, the rest from a disjoint
    corpus of *families_after* matrices — ``n_matrices`` of each.  Names
    are prefixed ``pre:`` / ``post:``, so the two populations can never
    collide in the engine cache.
    """
    if requests < 2:
        raise ValidationError(f"requests must be >= 2, got {requests}")
    if not 0.0 < shift_fraction < 1.0:
        raise ValidationError("shift_fraction must be in (0, 1)")
    before = MatrixCollection(
        n_matrices=n_matrices,
        seed=seed,
        families=dict(families_before or BANDED_FAMILIES),
    )
    after = MatrixCollection(
        n_matrices=n_matrices,
        seed=seed + 1,
        families=dict(families_after or SCALE_FREE_FAMILIES),
    )
    matrices: Dict[str, SparseMatrix] = {}
    for prefix, collection in (("pre", before), ("post", after)):
        for spec in collection.specs:
            matrices[f"{prefix}:{spec.name}"] = collection.generate(spec)
    before_names = [n for n in matrices if n.startswith("pre:")]
    after_names = [n for n in matrices if n.startswith("post:")]
    shift_index = int(round(shift_fraction * requests))
    shift_index = min(max(shift_index, 1), requests - 1)
    rng = np.random.default_rng(seed)
    keys = hot_cold_keys(before_names, shift_index, rng)
    keys += hot_cold_keys(after_names, requests - shift_index, rng)
    return DriftScenario(
        trace=spmv_trace(matrices, keys, seed=seed, source="drifting"),
        shift_index=shift_index,
        before_names=before_names,
        after_names=after_names,
    )


def mispredict_rate(
    model: OracleModel,
    matrices: Mapping[str, DynamicMatrix],
    space,
) -> float:
    """Fraction of *matrices* where *model* loses to the measured optimum.

    Ground truth comes from the space's deterministic per-format cost
    model (``time_all_formats``), keyed by matrix name — exactly what
    the service's shadow probes measure — so the frozen-vs-adapted
    comparison in the drift benchmark is apples to apples.
    """
    from repro.core.features import extract_features_from_stats

    if not matrices:
        raise ValidationError("mispredict_rate needs at least one matrix")
    wrong = 0
    for name, matrix in matrices.items():
        concrete = (
            matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        )
        stats = MatrixStats.from_matrix(concrete)
        times = space.time_all_formats(stats, matrix_key=name)
        best = min(times, key=times.get)
        predicted = model.predict_one(extract_features_from_stats(stats))
        if predicted != FORMAT_IDS[best]:
            wrong += 1
    return wrong / len(matrices)
