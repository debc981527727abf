"""Kernel registry: the ``(operation, format) → kernel`` table.

Runtime layer 1.  Every sparse kernel of the NumPy reference tier
(:mod:`repro.kernels.numpy`) is registered in :data:`REGISTRY`; the
format containers' ``spmv`` methods dispatch through it, and the batched
executor (:mod:`repro.runtime.batch`) falls back to it when scipy is
absent.

Registered kernels take ``(matrix, operand)`` where *matrix* is a concrete
format container and *operand* is a pre-validated dense vector (``spmv``)
or ``(ncols, k)`` block (``spmm``).  Composite formats (HYB, HDC) do not
carry standalone traversal logic: their entries compose their sub-block
kernels.

Third-party formats can join the dispatch path with::

    @register_kernel("spmv", "MYFMT")
    def my_spmv(matrix, x):
        ...
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import FORMAT_IDS
from repro.kernels import numpy as numpy_kernels

__all__ = [
    "KernelRegistry",
    "REGISTRY",
    "register_kernel",
    "dispatch",
]

#: A kernel takes (concrete container, pre-validated operand) -> ndarray.
Kernel = Callable[[object, np.ndarray], np.ndarray]


class KernelRegistry:
    """Mutable ``(operation, format) → kernel`` lookup table."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], Kernel] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(operation: str, fmt: str) -> Tuple[str, str]:
        return operation.lower(), fmt.upper()

    def register(self, operation: str, fmt: str) -> Callable[[Kernel], Kernel]:
        """Decorator registering *kernel* under ``(operation, fmt)``.

        Re-registering a pair overwrites the previous kernel, so callers
        can swap in tuned implementations.
        """
        key = self._key(operation, fmt)

        def _decorator(kernel: Kernel) -> Kernel:
            self._table[key] = kernel
            return kernel

        return _decorator

    def get(self, operation: str, fmt: str) -> Kernel:
        """The kernel for ``(operation, fmt)``; raises
        :class:`FormatError` when the pair has none."""
        key = self._key(operation, fmt)
        try:
            return self._table[key]
        except KeyError:
            raise FormatError(
                f"no kernel registered for operation {key[0]!r} on format "
                f"{key[1]!r}"
            ) from None

    def has(self, operation: str, fmt: str) -> bool:
        """Whether a kernel is registered for the pair."""
        return self._key(operation, fmt) in self._table

    def operations(self) -> Tuple[str, ...]:
        """Sorted distinct operation names with at least one kernel."""
        return tuple(sorted({op for op, _ in self._table}))

    def formats(self, operation: str) -> Tuple[str, ...]:
        """Sorted distinct format names registered for *operation*."""
        op = operation.lower()
        return tuple(sorted({f for o, f in self._table if o == op}))


#: The process-wide registry all dispatch goes through.
REGISTRY = KernelRegistry()


def register_kernel(operation: str, fmt: str) -> Callable[[Kernel], Kernel]:
    """Register a kernel on the global :data:`REGISTRY` (decorator)."""
    return REGISTRY.register(operation, fmt)


def dispatch(operation: str, matrix: object, operand: np.ndarray) -> np.ndarray:
    """Run *matrix*'s reference-tier kernel on a pre-validated *operand*.

    The container entry points (``SparseMatrix.spmv``) validate dtype
    and shape before dispatching here.
    """
    return REGISTRY.get(operation, matrix.format)(matrix, operand)


numpy_kernels.register(REGISTRY)

# every paper format must be servable for both operations
assert all(REGISTRY.has("spmv", f) for f in FORMAT_IDS)
assert all(REGISTRY.has("spmm", f) for f in FORMAT_IDS)
