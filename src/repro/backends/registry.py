"""Convenience constructors for execution spaces."""

from __future__ import annotations

from typing import List

from repro.backends.base import ExecutionSpace
from repro.machine.cost_model import CostModel
from repro.machine.systems import SYSTEM_BACKENDS, get_system

__all__ = ["make_space", "available_spaces"]


def make_space(
    system: str,
    backend: str,
    *,
    cost_model: CostModel | None = None,
) -> ExecutionSpace:
    """Build the execution space for ``system/backend`` by name.

    Examples
    --------
    >>> make_space("cirrus", "cuda").name
    'cirrus/cuda'
    """
    return ExecutionSpace(get_system(system), backend, cost_model=cost_model)


def available_spaces(
    *, cost_model: CostModel | None = None
) -> List[ExecutionSpace]:
    """All eleven evaluation (system, backend) spaces, paper order."""
    shared = cost_model if cost_model is not None else CostModel()
    return [
        make_space(sys_name, backend, cost_model=shared)
        for sys_name, backend in SYSTEM_BACKENDS
    ]
