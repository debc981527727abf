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
from repro.kernels import check_kernel_backend
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
    backends:
        Kernel-backend candidate pool (:mod:`repro.kernels` names).
        ``None`` follows the space: a pinned space trials only its own
        backend (the historical behaviour), an ``"auto"`` space trials
        every candidate of
        :meth:`~repro.backends.base.ExecutionSpace.kernel_backend_candidates`.
        An explicit sequence trials exactly those backends, turning the
        decision into an argmin over the full format × backend grid.
    """

    def __init__(
        self,
        repetitions: int = 10,
        formats: Sequence[str] | None = None,
        backends: Sequence[str] | None = None,
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
        if backends is not None:
            self.backends = tuple(check_kernel_backend(b) for b in backends)
            if not self.backends:
                raise TuningError("run-first tuner needs at least one backend")
        else:
            self.backends = None

    def _candidate_backends(self, space: ExecutionSpace) -> Sequence[str]:
        if self.backends is not None:
            return self.backends
        if space.kernel_backend_spec == "auto":
            return space.kernel_backend_candidates()
        return (space.kernel_backend,)

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
        backends = self._candidate_backends(space)
        trial_grid: dict[str, dict[str, float]] = {kb: {} for kb in backends}
        total_cost = 0.0
        for fmt in self.formats:
            t_convert = space.time_conversion(stats, active, fmt)
            total_cost += t_convert
            for kb in backends:
                t_iter = space.time_spmv(
                    stats, fmt, matrix_key=matrix_key, kernel_backend=kb
                )
                trial_grid[kb][fmt] = t_iter
                total_cost += self.repetitions * t_iter
        best_fmt, best_kb = min(
            ((fmt, kb) for fmt in self.formats for kb in backends),
            key=lambda pair: trial_grid[pair[1]][pair[0]],
        )
        details: dict[str, object] = {
            "trial_times": trial_grid[backends[0]],
            "repetitions": self.repetitions,
        }
        if len(backends) > 1:
            details["trial_grid"] = trial_grid
            details["backends"] = tuple(backends)
        return TuningReport(
            format_id=FORMAT_IDS[best_fmt],
            t_profiling=total_cost,
            details=details,
            backend=best_kb,
        )
