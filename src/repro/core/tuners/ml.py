"""ML tuners: decision-tree and random-forest format prediction.

Both tuners load an :class:`~repro.core.model_io.OracleModel` (from a file
path, an open model object, or a fitted estimator), extract the Table-I
features from the live matrix *in its active format*, and traverse the
tree(s).  The random-forest tuner majority-votes across the ensemble
(Section VI-A).  Reported overheads:

* ``t_feature_extraction`` — the modelled device-side cost of the online
  statistics passes (Section VI-C);
* ``t_prediction`` — the modelled host-side tree traversal, proportional
  to ``n_estimators * mean_depth``.
"""

from __future__ import annotations

import os
from typing import Union

from repro.backends.base import ExecutionSpace
from repro.core.features import extract_features, extract_features_from_stats
from repro.core.model_io import OracleModel, load_model
from repro.core.tuners.base import MatrixLike, Tuner, TuningReport
from repro.errors import TuningError
from repro.machine.stats import MatrixStats
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree.classifier import DecisionTreeClassifier

__all__ = ["MLTuner", "DecisionTreeTuner", "RandomForestTuner"]

ModelLike = Union[OracleModel, str, os.PathLike, DecisionTreeClassifier, RandomForestClassifier]


def _coerce_model(model: ModelLike) -> OracleModel:
    if isinstance(model, OracleModel):
        return model
    if isinstance(model, (DecisionTreeClassifier, RandomForestClassifier)):
        return OracleModel.from_estimator(model)
    return load_model(model)


class MLTuner(Tuner):
    """Shared machinery of the two model-driven tuners.

    Parameters
    ----------
    model:
        The oracle model (path, open model, or fitted estimator).
    """

    #: expected model kind; subclasses override ("decision_tree" / ...).
    expected_kind: str | None = None

    def __init__(self, model: ModelLike) -> None:
        self.model = _coerce_model(model)
        if (
            self.expected_kind is not None
            and self.model.kind != self.expected_kind
        ):
            raise TuningError(
                f"{type(self).__name__} needs a {self.expected_kind!r} "
                f"model, got {self.model.kind!r}"
            )

    # ------------------------------------------------------------------
    @property
    def n_estimators(self) -> int:
        """Trees traversed per prediction."""
        return self.model.n_estimators

    @property
    def model_version(self) -> str:
        """The deployed model's version stamp ("" for unversioned models).

        Models published through the adaptive
        :class:`~repro.adaptive.registry.ModelRegistry` carry their
        registry version in ``metadata["version"]``; the serving layer
        surfaces it in ``stats()["model"]``.
        """
        return str(self.model.metadata.get("version", ""))

    def describe(self) -> dict:
        """Provenance summary for metrics endpoints and audit logs."""
        return {
            "kind": self.model.kind,
            "n_estimators": self.model.n_estimators,
            "system": self.model.system,
            "backend": self.model.backend,
            "metadata": dict(self.model.metadata),
        }

    def tune(
        self,
        matrix: MatrixLike,
        space: ExecutionSpace,
        *,
        stats: MatrixStats | None = None,
        matrix_key: str = "",
    ) -> TuningReport:
        if stats is not None:
            features = extract_features_from_stats(stats)
        else:
            features = extract_features(matrix)
            stats = self._resolve_stats(matrix, None)
        fmt_id = self.model.predict_one(features)
        t_fe = space.time_feature_extraction(stats)
        t_pred = space.time_prediction(
            n_estimators=self.model.n_estimators,
            avg_depth=self.model.mean_depth,
        )
        return TuningReport(
            format_id=fmt_id,
            t_feature_extraction=t_fe,
            t_prediction=t_pred,
            details={"features": features, "n_estimators": self.model.n_estimators},
        )


class DecisionTreeTuner(MLTuner):
    """Single-tree tuner: fastest prediction, slightly lower accuracy."""

    expected_kind = "decision_tree"


class RandomForestTuner(MLTuner):
    """Ensemble tuner: majority voting over the forest's trees."""

    expected_kind = "random_forest"
