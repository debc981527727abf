"""The run-first tuner: try every format, keep the fastest.

This is the paper's accuracy ceiling and cost anti-pattern (Section III):
it must convert the matrix to each candidate format and time N iterations
of the operation in each, so its overhead grows with the number of
supported formats — the expense that motivates the ML tuners.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import ExecutionSpace
from repro.core.tuners.base import MatrixLike, Tuner, TuningReport
from repro.errors import TuningError
from repro.formats.base import FORMAT_IDS, format_id
from repro.formats.dynamic import DynamicMatrix
from repro.machine.stats import MatrixStats
from repro.utils.validation import check_positive

__all__ = ["RunFirstTuner"]


class RunFirstTuner(Tuner):
    """Measure-everything tuner.

    Parameters
    ----------
    repetitions:
        SpMV iterations timed per candidate format (the paper's
        ``N-iterations``).
    formats:
        Candidate pool; defaults to all six formats.
    """

    def __init__(
        self,
        repetitions: int = 10,
        formats: Sequence[str] | None = None,
    ) -> None:
        check_positive(repetitions, name="repetitions")
        self.repetitions = int(repetitions)
        self.formats = (
            tuple(f.upper() for f in formats)
            if formats is not None
            else tuple(FORMAT_IDS)
        )
        for f in self.formats:
            format_id(f)  # validates
        if not self.formats:
            raise TuningError("run-first tuner needs at least one format")

    def tune(
        self,
        matrix: MatrixLike,
        space: ExecutionSpace,
        *,
        stats: MatrixStats | None = None,
        matrix_key: str = "",
    ) -> TuningReport:
        stats = self._resolve_stats(matrix, stats)
        active = (
            matrix.active_format
            if isinstance(matrix, DynamicMatrix)
            else matrix.format
        )
        trial_times: dict[str, float] = {}
        total_cost = 0.0
        for fmt in self.formats:
            t_convert = space.time_conversion(stats, active, fmt)
            total_cost += t_convert
            t_iter = space.time_spmv(stats, fmt, matrix_key=matrix_key)
            trial_times[fmt] = t_iter
            total_cost += self.repetitions * t_iter
        best_fmt = min(self.formats, key=trial_times.__getitem__)
        return TuningReport(
            format_id=FORMAT_IDS[best_fmt],
            t_profiling=total_cost,
            details={
                "trial_times": trial_times,
                "repetitions": self.repetitions,
            },
        )
