"""Unified kernel-dispatch runtime: registry → batch → engine.

The serving layers that turn the per-call reproduction into a workload
system, bottom-up:

* :mod:`~repro.runtime.registry` — the single ``(operation, format) →
  kernel`` table every SpMV/SpMM dispatch resolves through; format
  containers delegate here, composite formats compose registered
  sub-kernels.
* :mod:`~repro.runtime.batch` — the one SpMV/SpMM dispatch: scipy's own
  CSR, DIA and COO kernels (the NumPy kernels without scipy), and
  :data:`~repro.runtime.batch.SERVING`, which serves ELL, HYB and HDC
  decisions from CSR and names each result's kernel; batched
  multi-vector ``Y = A @ X`` in one pass, and the solvers' hot loops
  route through :func:`~repro.runtime.batch.matvec`.
* :mod:`~repro.runtime.engine` — the request-queue
  :class:`~repro.runtime.engine.WorkloadEngine` that serves many
  ``(matrix, x)`` requests against an execution space, memoising stats,
  features, tuner decisions and format conversions per matrix
  fingerprint, with cache counters and per-space time accounting.
* :mod:`~repro.runtime.epoch` — epoch-versioned identity for mutable
  matrices: :class:`~repro.runtime.epoch.MatrixEpoch` ``(stable_id,
  epoch)`` cache keys, :class:`~repro.runtime.epoch.IncrementalStats`
  maintained from deltas, and the
  :class:`~repro.runtime.epoch.RedecisionPolicy` that decides when an
  evolving matrix deserves a fresh tuner decision.
"""

from repro.runtime.registry import (
    REGISTRY,
    KernelRegistry,
    dispatch,
    register_kernel,
)
from repro.runtime.batch import batched_spmv, have_accelerator, matvec
from repro.runtime.engine import (
    CacheCounters,
    EngineResult,
    InvalidationCounters,
    WorkloadEngine,
    matrix_fingerprint,
)
from repro.runtime.epoch import (
    IncrementalStats,
    MatrixEpoch,
    RedecisionPolicy,
    StreamUpdate,
    matrix_epoch,
)

__all__ = [
    "REGISTRY",
    "KernelRegistry",
    "dispatch",
    "register_kernel",
    "batched_spmv",
    "have_accelerator",
    "matvec",
    "CacheCounters",
    "EngineResult",
    "IncrementalStats",
    "InvalidationCounters",
    "MatrixEpoch",
    "RedecisionPolicy",
    "StreamUpdate",
    "WorkloadEngine",
    "matrix_fingerprint",
    "matrix_epoch",
]
