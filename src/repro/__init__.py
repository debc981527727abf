"""repro — reproduction of *Optimizing Sparse Linear Algebra Through
Automatic Format Selection and Machine Learning* (Stylianou & Weiland,
IPDPS 2023, arXiv:2303.05098).

The package re-creates the paper's full stack in pure Python/NumPy:

* :mod:`repro.formats` — the six sparse storage formats (COO, CSR, DIA,
  ELL, HYB, HDC) and the runtime-switching :class:`DynamicMatrix`
  (the Morpheus substrate).
* :mod:`repro.kernels` — the NumPy reference SpMV/SpMM kernels; scipy's
  compiled kernels serve in their place when scipy is importable.
* :mod:`repro.machine` / :mod:`repro.backends` — simulated HPC systems
  (Table II) and Serial/OpenMP/CUDA/HIP execution spaces with a
  roofline-style timing model.
* :mod:`repro.datasets` — a deterministic 2200-matrix corpus standing in
  for SuiteSparse, plus Matrix Market I/O.
* :mod:`repro.ml` — from-scratch decision trees, random forests,
  stratified CV, grid search and metrics (the scikit-learn substitute).
* :mod:`repro.core` — Morpheus-Oracle itself: Table-I feature extraction,
  the three tuners, ``TuneMultiply``, model files and the Sparse.Tree
  offline pipeline.
* :mod:`repro.runtime` — the serving runtime: the kernel registry every
  dispatch resolves through, batched multi-vector execution, and the
  cached :class:`~repro.runtime.engine.WorkloadEngine`.
* :mod:`repro.experiments` — declarative scenario suites
  (:class:`ExperimentSpec`), the on-disk :class:`ArtifactStore`, and the
  resumable :class:`ExperimentOrchestrator` running the offline pipeline
  with parallel profiling (``repro run`` / ``repro resume``).
* :mod:`repro.service` — the concurrent online service
  (:class:`TuningService` / :class:`Session`): a sharded LRU of cached
  workload engines, coalescing of concurrent same-matrix requests into
  batched kernels, and a worker pool behind ``repro serve``.
* :mod:`repro.adaptive` — the adaptive tuning loop closing the offline →
  online gap: per-request telemetry with shadow timings
  (:class:`TelemetryLog`), drift detection against the training suite's
  fingerprinted baseline (:class:`DriftMonitor`), background retraining
  through the experiment stages, and a versioned :class:`ModelRegistry`
  from which the live service hot-swaps models (``repro adapt`` /
  ``repro serve --adaptive``).

Quickstart
----------
>>> import numpy as np
>>> from repro import DynamicMatrix, make_space, RunFirstTuner, tune_multiply
>>> from repro.datasets import stencil_2d
>>> A = DynamicMatrix(stencil_2d(32, points=5))
>>> space = make_space("cirrus", "cuda")
>>> result = tune_multiply(A, RunFirstTuner(), space, np.ones(A.ncols))
>>> result.report.format_name in ("COO", "CSR", "DIA", "ELL", "HYB", "HDC")
True
"""

from repro._version import __version__
from repro.formats import (
    COOMatrix,
    CSRMatrix,
    DIAMatrix,
    DynamicMatrix,
    ELLMatrix,
    FORMAT_IDS,
    FORMAT_NAMES,
    HDCMatrix,
    HYBMatrix,
    convert,
)
from repro.backends import ExecutionSpace, available_spaces, make_space
from repro.machine import CostModel, MatrixStats, get_system
from repro.core import (
    DecisionTreeTuner,
    ModelDatabase,
    OracleModel,
    RandomForestTuner,
    RunFirstTuner,
    extract_features,
    load_model,
    save_model,
    tune_multiply,
)
from repro.datasets import MatrixCollection
from repro.runtime import WorkloadEngine, batched_spmv
from repro.experiments import (
    ArtifactStore,
    CorpusSpec,
    ExperimentOrchestrator,
    ExperimentSpec,
    TargetSpec,
)
from repro.service import Session, TuningService
from repro.adaptive import (
    AdaptiveController,
    DriftMonitor,
    ModelRegistry,
    TelemetryLog,
)

__all__ = [
    "AdaptiveController",
    "DriftMonitor",
    "ModelRegistry",
    "TelemetryLog",
    "__version__",
    "COOMatrix",
    "CSRMatrix",
    "DIAMatrix",
    "ELLMatrix",
    "HYBMatrix",
    "HDCMatrix",
    "DynamicMatrix",
    "FORMAT_IDS",
    "FORMAT_NAMES",
    "convert",
    "ExecutionSpace",
    "available_spaces",
    "make_space",
    "CostModel",
    "MatrixStats",
    "get_system",
    "DecisionTreeTuner",
    "RandomForestTuner",
    "RunFirstTuner",
    "OracleModel",
    "ModelDatabase",
    "extract_features",
    "load_model",
    "save_model",
    "tune_multiply",
    "MatrixCollection",
    "WorkloadEngine",
    "batched_spmv",
    "ArtifactStore",
    "CorpusSpec",
    "ExperimentOrchestrator",
    "ExperimentSpec",
    "TargetSpec",
    "Session",
    "TuningService",
]
