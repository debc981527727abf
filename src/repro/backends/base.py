"""Modelled execution spaces: real arithmetic under a simulated clock.

Naming note — two distinct "backend" axes meet here, and they must not be
confused:

* The **modelled backend** of an :class:`ExecutionSpace` (``serial`` /
  ``openmp`` / ``cuda`` / ``hip``) selects which device archetype of a
  simulated :class:`~repro.machine.systems.System` the roofline cost
  model prices.  It decides what the *clock* says, never which code runs;
  this is how the paper's hardware zoo is reproduced on any host.
* The **kernel backend** (``numpy`` / ``native``, see
  :mod:`repro.kernels`) selects which real implementation generation
  produces the numbers on *this* host.  It decides which code runs, and
  on CPU archetypes it also feeds back into the modelled time through the
  cost model's per-format speedup factors — making (format × kernel
  backend) the tuner's full decision space.

``ExecutionSpace.backend`` is always the modelled axis;
``ExecutionSpace.kernel_backend`` is always the real axis.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernels import (
    available_backends,
    check_kernel_backend,
    default_backend,
)
from repro.machine.arch import ArchSpec, GPUSpec
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
    :meth:`time_format_backends`, :meth:`time_feature_extraction`,
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
    kernel_backend:
        The *real* kernel generation executing on this host (see module
        docstring): a :mod:`repro.kernels` backend name, or ``"auto"``
        to resolve the best available tier at use time.  Defaults to
        ``"numpy"``, the reference tier — compiled tiers are opt-in so
        modelled numbers stay reproducible run to run.

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
        *,
        kernel_backend: str = "numpy",
    ) -> None:
        self.system = system
        self.backend = backend.lower()
        self.device: ArchSpec = system.device_for(self.backend)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        requested = str(kernel_backend).strip().lower()
        if requested != "auto":
            requested = check_kernel_backend(requested)
        self._kernel_backend = requested

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Identifier like ``"cirrus/cuda"``."""
        return f"{self.system.name}/{self.backend}"

    @property
    def kernel_backend(self) -> str:
        """The resolved kernel backend (``"auto"`` → best available now)."""
        if self._kernel_backend == "auto":
            return default_backend()
        return self._kernel_backend

    @property
    def kernel_backend_spec(self) -> str:
        """The configured kernel backend: a name, or literal ``"auto"``."""
        return self._kernel_backend

    def kernel_backend_candidates(self) -> Tuple[str, ...]:
        """Kernel backends worth trialling on this space, best first.

        GPU archetypes model device kernels no host generation touches,
        so their only candidate is the reference tier; CPU archetypes
        trial every available backend.
        """
        if isinstance(self.device, GPUSpec):
            return ("numpy",)
        return available_backends()

    # ------------------------------------------------------------------
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
        kernel_backend: Optional[str] = None,
    ) -> float:
        """Modelled seconds for one SpMV without executing the kernel."""
        return self.cost_model.spmv_time(
            stats, fmt, self.device, self.backend, matrix_key=matrix_key,
            kernel_backend=self._resolve_kb(kernel_backend),
        )

    def time_all_formats(
        self,
        stats: MatrixStats,
        *,
        matrix_key: str = "",
        kernel_backend: Optional[str] = None,
    ) -> dict[str, float]:
        """Modelled single-SpMV seconds for each of the six formats."""
        return self.cost_model.spmv_times(
            stats, self.device, self.backend, matrix_key=matrix_key,
            kernel_backend=self._resolve_kb(kernel_backend),
        )

    def time_format_backends(
        self, stats: MatrixStats, *, matrix_key: str = ""
    ) -> dict[str, dict[str, float]]:
        """Modelled ``{kernel_backend: {format: seconds}}`` over candidates.

        The full (format × kernel backend) decision surface the
        backend-aware tuners argmin over; candidates come from
        :meth:`kernel_backend_candidates`.
        """
        return self.cost_model.spmv_times_by_backend(
            stats,
            self.device,
            self.backend,
            self.kernel_backend_candidates(),
            matrix_key=matrix_key,
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

    # ------------------------------------------------------------------
    def _resolve_kb(self, kernel_backend: Optional[str]) -> str:
        if kernel_backend is None:
            return self.kernel_backend
        normalised = str(kernel_backend).strip().lower()
        if normalised == "auto":
            return default_backend()
        return check_kernel_backend(normalised)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ExecutionSpace {self.name} device={self.device.name!r} "
            f"kernels={self._kernel_backend!r}>"
        )
