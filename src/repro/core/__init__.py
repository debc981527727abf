"""Morpheus-Oracle: the auto-tuner for automatic format selection.

This is the paper's primary contribution (Sections III-VI): given a
:class:`~repro.formats.dynamic.DynamicMatrix`, an operation (SpMV) and a
target execution space, pick the storage format to switch to.

* :mod:`~repro.core.features` — the 10-feature extraction of Table I,
  computable online from any active format without conversion.
* :mod:`~repro.core.tuners` — Run-first, DecisionTree and RandomForest
  tuners (Section VI-A).
* :mod:`~repro.core.tune` — the ``TuneMultiply`` operation (Section VI-B).
* :mod:`~repro.core.model_io` — the Oracle model-file format.
* :mod:`~repro.core.pipeline` — the offline Sparse.Tree stage: profiling
  runs, training-set construction, grid-search tuning, model database.
"""

from repro.core.features import (
    FEATURE_NAMES,
    N_FEATURES,
    extract_features,
    extract_features_from_stats,
)
from repro.core.model_io import OracleModel, load_model, save_model
from repro.core.tuners import (
    ConfidenceFallbackTuner,
    DecisionTreeTuner,
    OverheadConsciousTuner,
    RandomForestTuner,
    RunFirstTuner,
    Tuner,
    TuningReport,
)
from repro.core.tune import TunedSpMVResult, tune_multiply
from repro.core.pipeline import (
    ModelDatabase,
    ProfilingResult,
    TrainedModel,
    build_dataset,
)

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "extract_features",
    "extract_features_from_stats",
    "OracleModel",
    "load_model",
    "save_model",
    "Tuner",
    "TuningReport",
    "RunFirstTuner",
    "DecisionTreeTuner",
    "RandomForestTuner",
    "ConfidenceFallbackTuner",
    "OverheadConsciousTuner",
    "TunedSpMVResult",
    "tune_multiply",
    "ModelDatabase",
    "ProfilingResult",
    "TrainedModel",
    "build_dataset",
]
