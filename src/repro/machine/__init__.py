"""Architecture specifications and analytic SpMV performance models.

This subpackage is the reproduction's substitute for the paper's hardware
testbed (ARCHER2, Cirrus, Isambard — Table II).  Each
:class:`~repro.machine.arch.ArchSpec` carries published hardware parameters
(bandwidth, core counts, cache, warp width, launch latency) and the
:class:`~repro.machine.cost_model.CostModel` maps
``(matrix statistics, storage format, architecture, backend)`` to a
simulated SpMV runtime via a roofline-style model with format-specific
efficiency terms.  See ``docs/architecture.md`` (``repro.machine`` +
``repro.backends``) for why this substitution preserves the paper's
evaluation shape.
"""

from repro.machine.arch import ArchSpec, CPUSpec, GPUSpec
from repro.machine.stats import MatrixStats
from repro.machine.cost_model import CostModel
from repro.machine.systems import (
    SYSTEMS,
    SYSTEM_BACKENDS,
    System,
    get_system,
    iter_system_backends,
)

__all__ = [
    "ArchSpec",
    "CPUSpec",
    "GPUSpec",
    "MatrixStats",
    "CostModel",
    "System",
    "SYSTEMS",
    "SYSTEM_BACKENDS",
    "get_system",
    "iter_system_backends",
]
