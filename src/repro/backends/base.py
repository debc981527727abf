"""Modelled execution spaces: real arithmetic under a simulated clock.

The **modelled backend** of an :class:`ExecutionSpace` (``serial`` /
``openmp`` / ``cuda`` / ``hip``) selects which device archetype of a
simulated :class:`~repro.machine.systems.System` the roofline cost model
prices.  It decides what the *clock* says, never which code runs; this
is how the paper's hardware zoo is reproduced on any host.  The code
that runs is the one kernel tier of :mod:`repro.kernels`.
"""

from __future__ import annotations

from repro.machine.arch import ArchSpec
from repro.machine.cost_model import CostModel
from repro.machine.stats import MatrixStats
from repro.machine.systems import System

__all__ = ["ExecutionSpace"]


class ExecutionSpace:
    """A modelled (system, backend) pair that can run sparse kernels.

    The central "where does this run" object: kernels execute for real
    while *time* comes from the space's roofline-style cost model, so
    performance questions have deterministic answers on any host.
    Spaces are cheap, stateless handles — build them with
    :func:`repro.backends.make_space` and share them freely.

    A space runs no kernel itself.  Its ``time_*`` methods
    (:meth:`time_spmv`, :meth:`time_all_formats`,
    :meth:`time_feature_extraction`,
    :meth:`time_prediction`, :meth:`time_conversion`) price an operation
    from :class:`~repro.machine.stats.MatrixStats` alone, without
    touching a matrix — the tuners and the profiling stage live on
    these.  Kernels run in the serving layers on top: :meth:`engine`
    binds a cached :class:`~repro.runtime.engine.WorkloadEngine` to this
    space (its requests reach a kernel through
    :mod:`repro.runtime.batch`, and their modelled seconds come from
    :meth:`time_spmv`), and a :class:`~repro.service.TuningService`
    serves concurrent traffic against it.

    Parameters
    ----------
    system:
        The simulated system hosting the device.
    backend:
        The *modelled* backend: one of ``"serial"``, ``"openmp"``,
        ``"cuda"``, ``"hip"``; must be available on *system*.
    cost_model:
        The timing model; defaults to a fresh :class:`CostModel` with the
        standard noise settings.

    Examples
    --------
    >>> from repro.backends import make_space
    >>> space = make_space("cirrus", "cuda")
    >>> space.name
    'cirrus/cuda'
    """

    def __init__(
        self,
        system: System,
        backend: str,
        cost_model: CostModel | None = None,
    ) -> None:
        self.system = system
        self.backend = backend.lower()
        self.device: ArchSpec = system.device_for(self.backend)
        self.cost_model = cost_model if cost_model is not None else CostModel()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Identifier like ``"cirrus/cuda"``."""
        return f"{self.system.name}/{self.backend}"

    def engine(self, tuner=None, **kwargs) -> "object":
        """A :class:`~repro.runtime.engine.WorkloadEngine` bound to this space."""
        from repro.runtime.engine import WorkloadEngine

        return WorkloadEngine(self, tuner=tuner, **kwargs)

    def time_spmv(
        self,
        stats: MatrixStats,
        fmt: str,
        *,
        matrix_key: str = "",
    ) -> float:
        """Modelled seconds for one SpMV without executing the kernel."""
        return self.cost_model.spmv_time(
            stats, fmt, self.device, self.backend, matrix_key=matrix_key
        )

    def time_all_formats(
        self,
        stats: MatrixStats,
        *,
        matrix_key: str = "",
    ) -> dict[str, float]:
        """Modelled single-SpMV seconds for each of the six formats."""
        return self.cost_model.spmv_times(
            stats, self.device, self.backend, matrix_key=matrix_key
        )

    def time_feature_extraction(self, stats: MatrixStats) -> float:
        """Modelled seconds for the Oracle's online feature extraction."""
        return self.cost_model.feature_extraction_time(
            stats, self.device, self.backend
        )

    def time_prediction(self, *, n_estimators: int, avg_depth: float) -> float:
        """Modelled seconds for an ensemble prediction on this space's host."""
        return self.cost_model.prediction_time(
            self.device, self.backend, n_estimators=n_estimators, avg_depth=avg_depth
        )

    def time_conversion(
        self, stats: MatrixStats, source: str, target: str
    ) -> float:
        """Modelled seconds for a format conversion on this space."""
        return self.cost_model.conversion_time(
            stats, source, target, self.device, self.backend
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ExecutionSpace {self.name} device={self.device.name!r}>"
        )
