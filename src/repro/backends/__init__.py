"""Execution spaces: the Morpheus backend abstraction.

An :class:`ExecutionSpace` pairs a simulated device (from
:mod:`repro.machine`) with a Morpheus backend name (``serial`` / ``openmp``
/ ``cuda`` / ``hip``).  A space *times* SpMV with the analytic cost
model, while the workload engine bound to it (``space.engine()``)
computes the numerical result with a real kernel — the host/device
substitution described in ``docs/architecture.md``; the kernels that
produce the numbers are in ``docs/backends.md``.
"""

from repro.backends.base import ExecutionSpace
from repro.backends.registry import available_spaces, make_space

__all__ = ["ExecutionSpace", "make_space", "available_spaces"]
