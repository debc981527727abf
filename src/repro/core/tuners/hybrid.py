"""Extension tuners beyond the paper's three (related-work variants).

* :class:`ConfidenceFallbackTuner` — SMAT-style (Li et al., PLDI'13, the
  paper's ref [13]): use the ML prediction when the ensemble's vote
  confidence clears a threshold, otherwise fall back to the accurate but
  expensive run-first tuner.
* :class:`OverheadConsciousTuner` — in the spirit of Zhao et al.
  (IPDPS'18, ref [27]): account for the format-*conversion* cost and the
  planned iteration count; only leave the current format when the
  predicted per-iteration gain amortises the switch.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionSpace
from repro.core.features import extract_features, extract_features_from_stats
from repro.core.tuners.base import MatrixLike, Tuner, TuningReport
from repro.core.tuners.ml import MLTuner, ModelLike, _coerce_model
from repro.core.tuners.run_first import RunFirstTuner
from repro.errors import TuningError
from repro.formats.base import FORMAT_IDS
from repro.formats.dynamic import DynamicMatrix
from repro.machine.stats import MatrixStats

__all__ = ["ConfidenceFallbackTuner", "OverheadConsciousTuner"]


class ConfidenceFallbackTuner(Tuner):
    """ML prediction with a run-first fallback below a confidence bar.

    Parameters
    ----------
    model:
        An ensemble model (forest) whose vote fractions act as the
        confidence signal.
    threshold:
        Minimum winning-vote fraction to accept the ML decision; below it
        the run-first tuner decides (and pays its cost).
    run_first:
        The fallback tuner (default: 10-repetition run-first).
    """

    def __init__(
        self,
        model: ModelLike,
        *,
        threshold: float = 0.6,
        run_first: RunFirstTuner | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise TuningError(f"threshold must be in (0, 1], got {threshold}")
        self.model = _coerce_model(model)
        self.threshold = threshold
        self.run_first = run_first if run_first is not None else RunFirstTuner()

    def _confidence(self, features: np.ndarray) -> tuple[int, float]:
        """(winning class id, winning vote fraction)."""
        votes = np.zeros(self.model.classes.shape[0])
        x = features[None, :]
        for tree in self.model.trees:
            proba = tree.predict_proba(x)
            votes[int(np.argmax(proba[0]))] += 1.0
        votes /= len(self.model.trees)
        best = int(np.argmax(votes))
        return int(self.model.classes[best]), float(votes[best])

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
        fmt_id, confidence = self._confidence(features)
        t_fe = space.time_feature_extraction(stats)
        t_pred = space.time_prediction(
            n_estimators=self.model.n_estimators,
            avg_depth=self.model.mean_depth,
        )
        if confidence >= self.threshold:
            return TuningReport(
                format_id=fmt_id,
                t_feature_extraction=t_fe,
                t_prediction=t_pred,
                details={"confidence": confidence, "fallback": False},
            )
        # low confidence: pay the run-first price for a measured answer
        fallback = self.run_first.tune(
            matrix, space, stats=stats, matrix_key=matrix_key
        )
        return TuningReport(
            format_id=fallback.format_id,
            t_feature_extraction=t_fe,
            t_prediction=t_pred,
            t_profiling=fallback.t_profiling,
            details={
                "confidence": confidence,
                "fallback": True,
                "ml_choice": fmt_id,
            },
        )


class OverheadConsciousTuner(Tuner):
    """Conversion-aware wrapper: switch only when it amortises.

    Wraps an ML tuner; given the number of SpMV iterations the caller
    plans to run, the predicted format is adopted only if

    ``iterations * (T_active - T_predicted) > T_conversion``

    estimated with the space's cost model.  Otherwise the matrix stays in
    its active format (``format_id`` echoes the active format).
    """

    def __init__(self, inner: MLTuner, *, planned_iterations: int = 1000) -> None:
        if planned_iterations < 1:
            raise TuningError("planned_iterations must be >= 1")
        self.inner = inner
        self.planned_iterations = int(planned_iterations)

    def tune(
        self,
        matrix: MatrixLike,
        space: ExecutionSpace,
        *,
        stats: MatrixStats | None = None,
        matrix_key: str = "",
    ) -> TuningReport:
        stats = self._resolve_stats(matrix, stats)
        report = self.inner.tune(matrix, space, stats=stats, matrix_key=matrix_key)
        active = (
            matrix.active_format
            if isinstance(matrix, DynamicMatrix)
            else matrix.format
        )
        predicted = report.format_name
        if predicted == active:
            return report
        t_active = space.time_spmv(stats, active, matrix_key=matrix_key)
        t_pred_fmt = space.time_spmv(stats, predicted, matrix_key=matrix_key)
        t_convert = space.time_conversion(stats, active, predicted)
        gain = self.planned_iterations * (t_active - t_pred_fmt)
        if gain > t_convert:
            details = dict(report.details)
            details.update({"switched": True, "conversion_seconds": t_convert})
            return TuningReport(
                format_id=report.format_id,
                t_feature_extraction=report.t_feature_extraction,
                t_prediction=report.t_prediction,
                details=details,
            )
        details = dict(report.details)
        details.update(
            {
                "switched": False,
                "ml_choice": report.format_id,
                "conversion_seconds": t_convert,
                "predicted_gain_seconds": gain,
            }
        )
        return TuningReport(
            format_id=FORMAT_IDS[active],
            t_feature_extraction=report.t_feature_extraction,
            t_prediction=report.t_prediction,
            details=details,
        )
