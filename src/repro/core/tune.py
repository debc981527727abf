"""``TuneMultiply``: tune the format, switch, run SpMV (Section VI-B).

The operation couples a tuner with a :class:`DynamicMatrix` and an
execution space: the tuner proposes a format id, the matrix switches to it,
and the SpMV runs.  The returned breakdown carries the quantities of the
paper's evaluation —

* Table IV's tuning cost ``T_tuning = (T_FE + T_PRED) / T_CSR``;
* Figure 5's end-to-end speedup
  ``T_CSR_total / (T_FE + T_PRED + T_OPT_total)`` (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import ExecutionSpace
from repro.core.tuners.base import Tuner, TuningReport
from repro.formats.dynamic import DynamicMatrix
from repro.machine.stats import MatrixStats

__all__ = ["TunedSpMVResult", "tune_multiply"]


@dataclass(frozen=True)
class TunedSpMVResult:
    """Outcome of a tuned multiply.

    Attributes
    ----------
    y:
        Numerical SpMV result (``None`` when ``x`` was not supplied).
    report:
        The tuner's decision and overhead breakdown.
    t_tuned_spmv:
        Modelled seconds for *repetitions* SpMVs in the selected format.
    t_csr_spmv:
        Modelled seconds for the same repetitions using baseline CSR.
    repetitions:
        Number of SpMV iterations the totals account for.
    """

    y: np.ndarray | None
    report: TuningReport
    t_tuned_spmv: float
    t_csr_spmv: float
    repetitions: int

    @property
    def tuning_cost_csr_equivalents(self) -> float:
        """Tuning overhead expressed in single CSR-SpMV units (Table IV)."""
        single_csr = self.t_csr_spmv / self.repetitions
        return self.report.overhead_seconds / single_csr if single_csr > 0 else 0.0

    @property
    def speedup_vs_csr(self) -> float:
        """Eq. 2: ``T_CSR / (T_FE + T_PRED + T_OPT)`` over all repetitions."""
        denom = self.report.overhead_seconds + self.t_tuned_spmv
        return self.t_csr_spmv / denom if denom > 0 else 0.0


def tune_multiply(
    matrix: DynamicMatrix,
    tuner: Tuner,
    space: ExecutionSpace,
    x: np.ndarray | None = None,
    *,
    repetitions: int = 1000,
    n_vectors: int = 1,
    stats: MatrixStats | None = None,
    matrix_key: str = "",
    switch: bool = True,
) -> TunedSpMVResult:
    """Tune *matrix* for SpMV/SpMM on *space*, optionally switch and run.

    Parameters
    ----------
    matrix:
        The dynamic matrix to tune (switched in place when ``switch``).
    tuner:
        Any :class:`~repro.core.tuners.base.Tuner`.
    x:
        Input vector — or an ``(ncols, n_vectors)`` block when tuning the
        SpMM operation; when given, the kernel actually executes and the
        numerical result is returned.
    repetitions:
        Operation iterations the timing totals account for (the paper
        uses 1000-repetition workloads).
    n_vectors:
        Right-hand sides per operation; ``> 1`` prices the SpMM operation
        (matrix traffic amortised per
        :func:`repro.machine.cost_model.spmm_time_factor`); the tuning
        decision itself is operation-agnostic (Section VI-B).
    stats, matrix_key:
        Optional precomputed statistics / deterministic-noise key.
    switch:
        When ``False`` the matrix is left in its current format (the
        timings still reflect the tuned format).
    """
    from repro.machine.cost_model import spmm_time_factor
    from repro.runtime.batch import validate_operand
    from repro.runtime.registry import REGISTRY

    if stats is None:
        stats = MatrixStats.from_matrix(matrix.concrete)
    report = tuner.tune(matrix, space, stats=stats, matrix_key=matrix_key)
    factor = spmm_time_factor(n_vectors)
    t_tuned = repetitions * factor * space.time_spmv(
        stats, report.format_name, matrix_key=matrix_key
    )
    t_csr = repetitions * factor * space.time_spmv(
        stats, "CSR", matrix_key=matrix_key
    )
    y = None
    if switch:
        matrix.switch(report.format_name)
    if x is not None:
        operand = np.asarray(x, dtype=np.float64)
        if operand.ndim == 2:
            m = matrix.concrete
            y = REGISTRY.get("spmm", m.format)(m, validate_operand(m, operand))
        else:
            y = matrix.spmv(operand)
    return TunedSpMVResult(
        y=y,
        report=report,
        t_tuned_spmv=t_tuned,
        t_csr_spmv=t_csr,
        repetitions=repetitions,
    )
