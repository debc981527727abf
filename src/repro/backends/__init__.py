"""Execution spaces: the Morpheus backend abstraction.

An :class:`ExecutionSpace` pairs a simulated device (from
:mod:`repro.machine`) with a Morpheus backend name (``serial`` / ``openmp``
/ ``cuda`` / ``hip``).  Running SpMV through a space computes the numerical
result with the format's real NumPy kernel and *times* it with the
analytic cost model — the host/device substitution described in
``docs/architecture.md``; the kernel tiers that run the numbers are in
``docs/backends.md``.
"""

from repro.backends.base import ExecutionSpace, SpMVResult
from repro.backends.registry import available_spaces, make_space

__all__ = ["ExecutionSpace", "SpMVResult", "make_space", "available_spaces"]
