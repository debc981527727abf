"""Stage implementations of the offline experiment pipeline.

The orchestrator's DAG is ``profile -> dataset -> train -> export ->
evaluate``; each stage here is a plain function that (optionally) consults
an :class:`~repro.experiments.store.ArtifactStore` before computing, and
persists its output after.  The profiling stage dispatches timings through
:meth:`~repro.runtime.engine.WorkloadEngine.profile_formats` (memoised
stats / features / timings) and fans matrix generation out across a
``concurrent.futures`` process pool — generation is the CPU-bound part of
the offline pipeline and the matrices are independent.
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import ExecutionSpace
from repro.core.model_io import OracleModel, load_model, save_model
from repro.datasets.collection import MatrixCollection, MatrixSpec
from repro.errors import TuningError, ValidationError
from repro.formats.base import FORMAT_IDS
from repro.machine.stats import MatrixStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import ProfilingResult, TrainedModel
    from repro.experiments.store import ArtifactStore
    from repro.runtime.engine import WorkloadEngine

__all__ = [
    "compute_collection_stats",
    "run_profile_stage",
    "run_dataset_stage",
    "augment_dataset",
    "train_model",
    "run_train_stage",
    "run_export_stage",
    "run_evaluate_stage",
    "TrainOutcome",
]


# ----------------------------------------------------------------------
# profile stage
# ----------------------------------------------------------------------


def _stats_worker(spec: MatrixSpec) -> Tuple[str, dict]:
    """Generate one matrix and return its stats (runs in a worker process)."""
    return spec.name, MatrixStats.from_matrix(spec.generate()).to_dict()


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the imported package) when available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def compute_collection_stats(
    collection: MatrixCollection,
    specs: Sequence[MatrixSpec] | None = None,
    *,
    jobs: int = 1,
) -> int:
    """Resolve stats for *specs*, fanning generation across ``jobs`` workers.

    Already-cached stats are skipped; returns the number of matrices that
    were actually generated.  With ``jobs <= 1`` the work stays in-process
    (no pool overhead); workers count towards the collection's
    :attr:`~MatrixCollection.stats_computed` through
    :meth:`~MatrixCollection.prime_stats`.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    todo = [
        s
        for s in (collection.specs if specs is None else specs)
        if not collection.has_stats(s.name)
    ]
    if not todo:
        return 0
    if jobs == 1 or len(todo) == 1:
        for spec in todo:
            collection.stats(spec)
        return len(todo)
    chunksize = max(1, len(todo) // (4 * jobs))
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(todo)), mp_context=_pool_context()
    ) as pool:
        for name, payload in pool.map(_stats_worker, todo, chunksize=chunksize):
            collection.prime_stats(
                name, MatrixStats.from_dict(payload), computed=True
            )
    return len(todo)


def _profile_payload(
    result: "ProfilingResult",
    collection: MatrixCollection,
    specs: Sequence[MatrixSpec],
) -> dict:
    """Artifact payload: timings, labels *and* the per-matrix stats, so a
    resumed run can feed every downstream stage with zero generation."""
    return {
        "times": result.times,
        "optimal": result.optimal,
        "stats": {s.name: collection.stats(s).to_dict() for s in specs},
    }


def _adopt_profile_payload(
    collection: MatrixCollection,
    specs: Sequence[MatrixSpec],
    spaces: Sequence[ExecutionSpace],
    payload: dict,
) -> Optional["ProfilingResult"]:
    """Rebuild a ProfilingResult from a stored payload, priming the
    collection's stats cache.  Returns ``None`` if the payload does not
    cover the requested matrices/spaces (treated as a store miss)."""
    from repro.core.pipeline import ProfilingResult

    names = [s.name for s in specs]
    stats = payload.get("stats", {})
    times = payload.get("times", {})
    optimal = payload.get("optimal", {})
    for space in spaces:
        if space.name not in times or space.name not in optimal:
            return None
        if any(n not in times[space.name] for n in names):
            return None
    if any(n not in stats for n in names):
        return None
    for name in names:
        collection.prime_stats(
            name, MatrixStats.from_dict(stats[name]), computed=False
        )
    result = ProfilingResult(from_store=True)
    for space in spaces:
        result.times[space.name] = {
            n: dict(times[space.name][n]) for n in names
        }
        result.optimal[space.name] = {
            n: int(optimal[space.name][n]) for n in names
        }
    return result


def run_profile_stage(
    collection: MatrixCollection,
    spaces: Sequence[ExecutionSpace],
    *,
    specs: Sequence[MatrixSpec] | None = None,
    jobs: int = 1,
    store: Optional["ArtifactStore"] = None,
    key: Optional[str] = None,
    engines: Optional[Dict[str, "WorkloadEngine"]] = None,
) -> "ProfilingResult":
    """Profiling runs: label the optimal format for every (matrix, space).

    Matrix generation fans out across ``jobs`` worker processes; the
    per-format timings dispatch through each space's
    :class:`~repro.runtime.engine.WorkloadEngine` so stats and timings are
    memoised per matrix key.  With a *store* and *key* the stage is
    resumable: a stored artifact restores timings, labels and stats
    without generating a single matrix.
    """
    from repro.core.pipeline import ProfilingResult

    if store is not None and key is None:
        raise ValidationError("a store-backed profile stage needs a key")
    if specs is None:
        specs = collection.specs
    if store is not None:
        payload = store.get("profile", key)
        if payload is not None:
            adopted = _adopt_profile_payload(collection, specs, spaces, payload)
            if adopted is not None:
                return adopted
    compute_collection_stats(collection, specs, jobs=jobs)
    result = ProfilingResult()
    for space in spaces:
        if engines is None:
            engine = space.engine()
        else:
            engine = engines.setdefault(space.name, space.engine())
        result.times[space.name] = {}
        result.optimal[space.name] = {}
        for spec in specs:
            times = engine.profile_formats(
                key=spec.name, stats=collection.stats(spec)
            )
            result.times[space.name][spec.name] = times
            best = min(times, key=times.get)  # type: ignore[arg-type]
            result.optimal[space.name][spec.name] = FORMAT_IDS[best]
    if store is not None:
        store.put("profile", key, _profile_payload(result, collection, specs))
    return result


# ----------------------------------------------------------------------
# dataset stage
# ----------------------------------------------------------------------


def run_dataset_stage(
    collection: MatrixCollection,
    train_specs: Sequence[MatrixSpec],
    test_specs: Sequence[MatrixSpec],
    profiling: "ProfilingResult",
    space_name: str,
    *,
    store: Optional["ArtifactStore"] = None,
    key: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """Assemble the per-space ``(X, y)`` train/test arrays (Table I)."""
    if store is not None and key is not None:
        payload = store.get("dataset", key)
        if payload is not None:
            return {
                name: np.asarray(payload[name])
                for name in ("X_train", "y_train", "X_test", "y_test")
            }
    from repro.core.pipeline import build_dataset

    X_train, y_train = build_dataset(
        collection, train_specs, profiling, space_name
    )
    X_test, y_test = build_dataset(collection, test_specs, profiling, space_name)
    dataset = {
        "X_train": X_train,
        "y_train": y_train,
        "X_test": X_test,
        "y_test": y_test,
    }
    if store is not None and key is not None:
        store.put(
            "dataset",
            key,
            {name: arr.tolist() for name, arr in dataset.items()},
        )
    return dataset


def augment_dataset(
    dataset: Dict[str, np.ndarray],
    X_extra: np.ndarray,
    y_extra: np.ndarray,
    *,
    test_fraction: float = 0.2,
    seed: int = 0,
    train_replicas: int = 1,
) -> Dict[str, np.ndarray]:
    """Fold extra labelled samples into a stage dataset's train/test split.

    The adaptive retrain loop augments the offline suite's dataset with
    telemetry-derived samples (features + shadow-measured optimal
    format).  Extras are shuffled deterministically by *seed* and split
    ``test_fraction`` into the test arrays, the rest into train, so the
    retrained model is still scored on held-out samples from the new
    population.  ``train_replicas`` replicates the *train-side* extras
    after the split (recency weighting) — replication happens strictly
    post-split so no row can appear in both train and test and inflate
    the held-out scores.  Returns a new dataset dict; the input is not
    mutated.
    """
    X_extra = np.asarray(X_extra, dtype=np.float64)
    y_extra = np.asarray(y_extra)
    if X_extra.shape[0] != y_extra.shape[0]:
        raise ValidationError(
            f"X_extra has {X_extra.shape[0]} rows but y_extra has "
            f"{y_extra.shape[0]}"
        )
    if not 0.0 <= test_fraction < 1.0:
        raise ValidationError("test_fraction must be in [0, 1)")
    if train_replicas < 1:
        raise ValidationError(
            f"train_replicas must be >= 1, got {train_replicas}"
        )
    out = {name: np.asarray(dataset[name]) for name in
           ("X_train", "y_train", "X_test", "y_test")}
    if X_extra.shape[0] == 0:
        return out
    order = np.random.default_rng(seed).permutation(X_extra.shape[0])
    n_test = int(round(test_fraction * X_extra.shape[0]))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size:
        out["X_train"] = np.concatenate(
            [out["X_train"]]
            + [X_extra[train_idx]] * int(train_replicas)
        )
        out["y_train"] = np.concatenate(
            [out["y_train"]]
            + [y_extra[train_idx]] * int(train_replicas)
        )
    if test_idx.size:
        out["X_test"] = np.concatenate([out["X_test"], X_extra[test_idx]])
        out["y_test"] = np.concatenate([out["y_test"], y_extra[test_idx]])
    return out


# ----------------------------------------------------------------------
# train stage
# ----------------------------------------------------------------------


def _make_estimator(algorithm: str, seed: int) -> object:
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.tree.classifier import DecisionTreeClassifier

    if algorithm == "random_forest":
        # scikit-learn-like defaults: 100 trees, unbounded depth
        return RandomForestClassifier(n_estimators=100, seed=seed)
    if algorithm == "decision_tree":
        return DecisionTreeClassifier(seed=seed)
    raise ValidationError(
        f"unknown algorithm {algorithm!r}; expected "
        "'random_forest' or 'decision_tree'"
    )


def train_model(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    *,
    algorithm: str = "random_forest",
    grid: Mapping[str, Sequence[object]] | None = None,
    cv: int = 5,
    scoring: str = "accuracy",
    seed: int = 0,
    system: str = "",
    backend: str = "",
) -> "TrainedModel":
    """Train the baseline, grid-search the tuned model, score both.

    Follows Section VII-D: 5-fold CV grid search on the training split,
    refit on the full training set, report accuracy and balanced accuracy
    on the untouched test split.
    """
    from repro.core.pipeline import (
        DEFAULT_DT_GRID,
        DEFAULT_RF_GRID,
        TrainedModel,
    )
    from repro.ml.metrics import accuracy_score, balanced_accuracy_score
    from repro.ml.model_selection import GridSearchCV

    if np.unique(y_train).shape[0] < 2:
        raise TuningError(
            "training labels contain a single class; profiling produced a "
            "degenerate dataset"
        )
    baseline = _make_estimator(algorithm, seed)
    baseline.fit(X_train, y_train)

    search_grid = grid
    if search_grid is None:
        search_grid = (
            DEFAULT_RF_GRID if algorithm == "random_forest" else DEFAULT_DT_GRID
        )
    search = GridSearchCV(
        _make_estimator(algorithm, seed),
        search_grid,
        cv=cv,
        scoring=scoring,
        seed=seed,
    )
    search.fit(X_train, y_train)
    tuned = search.best_estimator_

    scores = {
        "baseline_accuracy": accuracy_score(y_test, baseline.predict(X_test)),
        "baseline_balanced_accuracy": balanced_accuracy_score(
            y_test, baseline.predict(X_test)
        ),
        "tuned_accuracy": accuracy_score(y_test, tuned.predict(X_test)),
        "tuned_balanced_accuracy": balanced_accuracy_score(
            y_test, tuned.predict(X_test)
        ),
    }
    return TrainedModel(
        algorithm=algorithm,
        system=system,
        backend=backend,
        baseline=baseline,
        tuned=tuned,
        baseline_params=baseline.get_params(),
        tuned_params=search.best_params_,
        cv_best_score=search.best_score_,
        test_scores=scores,
    )


@dataclass
class TrainOutcome:
    """One trained (space, algorithm) cell, restorable from the store.

    Unlike :class:`~repro.core.pipeline.TrainedModel` this carries the
    deployable :class:`OracleModel` pair rather than live estimators, so
    an artifact round-trip loses nothing the downstream stages need.
    """

    algorithm: str
    system: str
    backend: str
    baseline_params: Dict[str, object]
    tuned_params: Dict[str, object]
    cv_best_score: float
    test_scores: Dict[str, float]
    oracle_model: OracleModel
    baseline_oracle_model: OracleModel
    from_store: bool = False

    @property
    def space_name(self) -> str:
        return f"{self.system}/{self.backend}"


def _model_to_text(model: OracleModel) -> str:
    buf = io.StringIO()
    save_model(buf, model)
    return buf.getvalue()


def _model_from_text(text: str) -> OracleModel:
    return load_model(io.StringIO(text))


def run_train_stage(
    dataset: Dict[str, np.ndarray],
    *,
    algorithm: str,
    system: str,
    backend: str,
    grid: Mapping[str, Sequence[object]] | None,
    cv: int = 5,
    seed: int = 0,
    store: Optional["ArtifactStore"] = None,
    key: Optional[str] = None,
) -> TrainOutcome:
    """Train + grid-search one (space, algorithm) cell, store-resumable."""
    if store is not None and key is not None:
        payload = store.get("train", key)
        if payload is not None:
            return TrainOutcome(
                algorithm=payload["algorithm"],
                system=payload["system"],
                backend=payload["backend"],
                baseline_params=payload["baseline_params"],
                tuned_params=payload["tuned_params"],
                cv_best_score=payload["cv_best_score"],
                test_scores=payload["test_scores"],
                oracle_model=_model_from_text(payload["tuned_model"]),
                baseline_oracle_model=_model_from_text(
                    payload["baseline_model"]
                ),
                from_store=True,
            )
    tm = train_model(
        dataset["X_train"],
        dataset["y_train"],
        dataset["X_test"],
        dataset["y_test"],
        algorithm=algorithm,
        grid=grid,
        cv=cv,
        seed=seed,
        system=system,
        backend=backend,
    )
    outcome = TrainOutcome(
        algorithm=tm.algorithm,
        system=tm.system,
        backend=tm.backend,
        baseline_params=dict(tm.baseline_params),
        tuned_params=dict(tm.tuned_params),
        cv_best_score=float(tm.cv_best_score),
        test_scores=dict(tm.test_scores),
        oracle_model=tm.oracle_model,
        baseline_oracle_model=tm.baseline_oracle_model,
    )
    if store is not None and key is not None:
        store.put(
            "train",
            key,
            {
                "algorithm": outcome.algorithm,
                "system": outcome.system,
                "backend": outcome.backend,
                "baseline_params": outcome.baseline_params,
                "tuned_params": outcome.tuned_params,
                "cv_best_score": outcome.cv_best_score,
                "test_scores": outcome.test_scores,
                "tuned_model": _model_to_text(outcome.oracle_model),
                "baseline_model": _model_to_text(
                    outcome.baseline_oracle_model
                ),
            },
        )
    return outcome


# ----------------------------------------------------------------------
# export stage
# ----------------------------------------------------------------------


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def export_is_current(store: "ArtifactStore", key: str) -> Optional[List[str]]:
    """Exported model paths when the artifact matches what is on disk.

    Model files live in a shared :class:`ModelDatabase` directory where a
    later suite may legitimately overwrite a key, so the export artifact
    records a content digest per file and only counts as current while
    the files still match — otherwise the stage re-exports.
    """
    payload = store.get("export", key)
    if payload is None:
        return None
    paths = payload.get("paths", [])
    digests = payload.get("digests", {})
    for path in paths:
        if not os.path.exists(path) or digests.get(path) != _file_digest(path):
            return None
    return list(paths)


def run_export_stage(
    outcomes: Sequence[TrainOutcome],
    model_dir: str,
    *,
    store: Optional["ArtifactStore"] = None,
    key: Optional[str] = None,
    check_store: bool = True,
) -> List[str]:
    """Write every tuned model into a :class:`ModelDatabase` directory.

    ``check_store=False`` skips the :func:`export_is_current` lookup for
    callers that just performed it themselves.
    """
    from repro.core.pipeline import ModelDatabase

    if check_store and store is not None and key is not None:
        current = export_is_current(store, key)
        if current is not None:
            return current
    db = ModelDatabase(model_dir)
    paths = [
        db.save(o.oracle_model, algorithm=o.algorithm) for o in outcomes
    ]
    if store is not None and key is not None:
        store.put(
            "export",
            key,
            {"paths": paths, "digests": {p: _file_digest(p) for p in paths}},
        )
    return paths


# ----------------------------------------------------------------------
# evaluate stage
# ----------------------------------------------------------------------


def run_evaluate_stage(
    profiling: "ProfilingResult",
    outcomes: Sequence[TrainOutcome],
    space_names: Sequence[str],
    *,
    store: Optional["ArtifactStore"] = None,
    key: Optional[str] = None,
) -> dict:
    """Final report: Figure-2 distributions, speedups, model scores."""
    if store is not None and key is not None:
        payload = store.get("evaluate", key)
        if payload is not None:
            return payload
    from repro.evaluation.analysis import speedup_summary

    report = {
        "format_distribution": {
            name: profiling.format_distribution(name) for name in space_names
        },
        "speedup_vs_csr": {},
        "models": [],
    }
    for name in space_names:
        summary = speedup_summary(profiling, name)
        report["speedup_vs_csr"][name] = {
            "n": summary.n,
            "mean": summary.mean,
            "median": summary.median,
            "q3": summary.q3,
            "maximum": summary.maximum,
        }
    for outcome in outcomes:
        report["models"].append(
            {
                "algorithm": outcome.algorithm,
                "space": outcome.space_name,
                "cv_best_score": outcome.cv_best_score,
                "tuned_params": outcome.tuned_params,
                "test_scores": outcome.test_scores,
            }
        )
    if store is not None and key is not None:
        store.put("evaluate", key, report)
    return report
