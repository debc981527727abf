"""Tuner interface and the tuning report."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Union

from repro.formats.base import SparseMatrix, format_name
from repro.formats.dynamic import DynamicMatrix
from repro.backends.base import ExecutionSpace
from repro.machine.stats import MatrixStats

__all__ = ["Tuner", "TuningReport"]

MatrixLike = Union[SparseMatrix, DynamicMatrix]


@dataclass(frozen=True)
class TuningReport:
    """Outcome of one tuning decision.

    Attributes
    ----------
    format_id:
        Predicted / measured optimal format id.
    t_feature_extraction:
        Modelled seconds spent extracting features on the target space
        (zero for the run-first tuner).
    t_prediction:
        Modelled seconds spent evaluating the model (zero for run-first).
    t_profiling:
        Modelled seconds spent on conversions + trial runs (run-first
        only; zero for ML tuners).
    details:
        Tuner-specific extras (per-format trial times, feature vector, ...).
    """

    format_id: int
    t_feature_extraction: float = 0.0
    t_prediction: float = 0.0
    t_profiling: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def format_name(self) -> str:
        """Canonical name of the selected format."""
        return format_name(self.format_id)

    @property
    def overhead_seconds(self) -> float:
        """Total modelled tuning overhead (T_FE + T_PRED + profiling)."""
        return self.t_feature_extraction + self.t_prediction + self.t_profiling


class Tuner(abc.ABC):
    """Base class for format-selection tuners."""

    @abc.abstractmethod
    def tune(
        self,
        matrix: MatrixLike,
        space: ExecutionSpace,
        *,
        stats: MatrixStats | None = None,
        matrix_key: str = "",
    ) -> TuningReport:
        """Select the optimal format for *matrix* on *space*.

        ``stats`` may be supplied to avoid recomputing matrix statistics;
        ``matrix_key`` keys the deterministic timing noise.
        """

    @staticmethod
    def _resolve_stats(matrix: MatrixLike, stats: MatrixStats | None) -> MatrixStats:
        if stats is not None:
            return stats
        concrete = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        return MatrixStats.from_matrix(concrete)
