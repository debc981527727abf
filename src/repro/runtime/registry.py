"""Kernel registry: the ``(operation, format, backend) → kernel`` table.

Runtime layer 1.  Every sparse kernel the package executes is dispatched
through :data:`REGISTRY`; the format containers' ``spmv`` methods and
the batched executor (:mod:`repro.runtime.batch`) resolve their kernel
here.  The table is three-dimensional: each ``(operation, format)`` pair
can carry one kernel per *kernel backend* — the implementation
generations of :mod:`repro.kernels` (``numpy`` reference, ``native`` C).

Resolution and fallback
-----------------------
``backend`` defaults to ``"numpy"``, the always-registered reference
tier.  ``get(op, fmt, backend)`` is an exact lookup.
``resolve(op, fmt, backend)`` returns both the kernel and the backend it
actually came from: a requested backend that is masked, unavailable, or
missing that particular ``(op, fmt)`` entry falls down the preference
chain instead of raising — compiled tiers degrade cleanly to NumPy rather
than taking the serving path down.

Warm-up
-------
``warmup(op, fmt, backend)`` runs the kernel once on a tiny container
and reports the measured wall seconds of that first touch, tracked
per-process so each key only ever pays once; the engine folds those
seconds into its stats.

Registered kernels take ``(matrix, operand)`` where *matrix* is a concrete
format container and *operand* is a pre-validated dense vector (``spmv``)
or ``(ncols, k)`` block (``spmm``).  Composite formats (HYB, HDC) do not
carry standalone traversal logic: their entries compose their sub-block
kernels within the same backend.

Third-party formats can join the dispatch path with::

    @register_kernel("spmv", "MYFMT")            # numpy tier
    def my_spmv(matrix, x):
        ...

    @register_kernel("spmv", "MYFMT", "native")  # compiled tier
    def my_spmv_jit(matrix, x):
        ...
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Set, Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import FORMAT_IDS
from repro.kernels import (
    PREFERENCE,
    available_backends,
    check_kernel_backend,
    register_default_backends,
)

__all__ = [
    "KernelRegistry",
    "REGISTRY",
    "register_kernel",
    "dispatch",
]

#: A kernel takes (concrete container, pre-validated operand) -> ndarray.
Kernel = Callable[[object, np.ndarray], np.ndarray]

#: The backend every lookup defaults to: the reference tier.
DEFAULT_BACKEND = "numpy"


class KernelRegistry:
    """Mutable ``(operation, format, backend) → kernel`` lookup table."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str, str], Kernel] = {}
        self._warmed: Set[Tuple[str, str, str]] = set()

    # ------------------------------------------------------------------
    @staticmethod
    def _key(operation: str, fmt: str, backend: str) -> Tuple[str, str, str]:
        return (
            operation.lower(),
            fmt.upper(),
            check_kernel_backend(backend),
        )

    def register(
        self, operation: str, fmt: str, backend: str = DEFAULT_BACKEND
    ) -> Callable[[Kernel], Kernel]:
        """Decorator registering *kernel* under ``(operation, fmt, backend)``.

        Re-registering a triple overwrites the previous kernel, so callers
        can swap in tuned implementations.
        """
        key = self._key(operation, fmt, backend)

        def _decorator(kernel: Kernel) -> Kernel:
            self._table[key] = kernel
            return kernel

        return _decorator

    def get(
        self, operation: str, fmt: str, backend: str = DEFAULT_BACKEND
    ) -> Kernel:
        """The kernel for ``(operation, fmt)`` on *backend*.

        Raises :class:`FormatError` when *backend* does not carry the
        pair; explicit lookups never fall back — use :meth:`resolve` for
        fallback semantics.
        """
        key = self._key(operation, fmt, backend)
        try:
            return self._table[key]
        except KeyError:
            raise FormatError(
                f"no kernel registered for operation {key[0]!r} on format "
                f"{key[1]!r} under backend {key[2]!r}; registered "
                f"backends for the pair: {self.backends(key[0], key[1])}"
            ) from None

    def resolve(
        self, operation: str, fmt: str, backend: str = DEFAULT_BACKEND
    ) -> Tuple[Kernel, str]:
        """``(kernel, actual_backend)`` with clean fallback.

        The requested backend is tried first; if it is masked,
        unavailable, or has no entry for the pair, resolution falls down
        the preference order over the *available* backends (ending on
        the reference tier).  The second element reports which backend
        actually serves the call — callers stamp it into results so
        degradation is observable, not silent.
        """
        op = operation.lower()
        name = fmt.upper()
        candidates = list(available_backends())
        # promote the requested backend to the front when usable;
        # masked/unavailable requests fall straight to the others
        requested = check_kernel_backend(backend)
        if requested in candidates:
            candidates.remove(requested)
            candidates.insert(0, requested)
        for candidate in candidates:
            kernel = self._table.get((op, name, candidate))
            if kernel is not None:
                return kernel, candidate
        raise FormatError(
            f"no kernel registered for operation {op!r} on format {name!r} "
            f"under any available backend {tuple(candidates)}"
        )

    def has(
        self, operation: str, fmt: str, backend: str = DEFAULT_BACKEND
    ) -> bool:
        """Whether *backend* carries a kernel for the pair."""
        return self._key(operation, fmt, backend) in self._table

    def backends(self, operation: str, fmt: str) -> Tuple[str, ...]:
        """Backends registered for the pair, in preference order."""
        op = operation.lower()
        name = fmt.upper()
        return tuple(
            b for b in PREFERENCE if (op, name, b) in self._table
        )

    def operations(self) -> Tuple[str, ...]:
        """Sorted distinct operation names with at least one kernel."""
        return tuple(sorted({op for op, _, _ in self._table}))

    def formats(self, operation: str) -> Tuple[str, ...]:
        """Sorted distinct format names registered for *operation*."""
        op = operation.lower()
        return tuple(sorted({f for o, f, _ in self._table if o == op}))

    # ------------------------------------------------------------------
    def is_warm(self, operation: str, fmt: str, backend: str) -> bool:
        """Whether ``warmup`` already ran for the triple in this process."""
        return self._key(operation, fmt, backend) in self._warmed

    def warmup(self, operation: str, fmt: str, backend: str) -> float:
        """First-touch compile of one kernel; returns the wall seconds.

        Runs the registered kernel once on a tiny container so any
        first-touch cost is paid here rather than inside a timed
        request.  Idempotent per process: later calls return ``0.0``.
        Triples without a registered kernel also return ``0.0`` — the
        caller is about to fall back anyway.
        """
        key = self._key(operation, fmt, backend)
        if key in self._warmed:
            return 0.0
        kernel = self._table.get(key)
        self._warmed.add(key)
        if kernel is None:
            return 0.0
        matrix = _tiny_matrix(key[1])
        operand = (
            np.ones(matrix.ncols, dtype=np.float64)
            if key[0] != "spmm"
            else np.ones((matrix.ncols, 2), dtype=np.float64)
        )
        start = time.perf_counter()
        kernel(matrix, operand)
        return time.perf_counter() - start


def _tiny_matrix(fmt: str):
    """A minimal container of *fmt* for warm-up calls (has an empty row)."""
    from repro.formats import COOMatrix, convert

    coo = COOMatrix(
        4,
        4,
        np.array([0, 0, 2, 3], dtype=np.int64),
        np.array([0, 2, 1, 3], dtype=np.int64),
        np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float64),
    )
    return convert(coo, fmt)


#: The process-wide registry all dispatch goes through.
REGISTRY = KernelRegistry()


def register_kernel(
    operation: str, fmt: str, backend: str = DEFAULT_BACKEND
) -> Callable[[Kernel], Kernel]:
    """Register a kernel on the global :data:`REGISTRY` (decorator)."""
    return REGISTRY.register(operation, fmt, backend)


def dispatch(operation: str, matrix: object, operand: np.ndarray) -> np.ndarray:
    """Run *matrix*'s reference-tier kernel on a pre-validated *operand*.

    The container entry points (``SparseMatrix.spmv``) validate dtype
    and shape before dispatching here.
    """
    return REGISTRY.get(operation, matrix.format)(matrix, operand)


# ----------------------------------------------------------------------
# default registrations: every probe-available generation of
# repro.kernels, container-adapted
# ----------------------------------------------------------------------

register_default_backends(REGISTRY)

# every paper format must be servable for both operations on the
# always-available reference tier
assert all(REGISTRY.has("spmv", f, "numpy") for f in FORMAT_IDS)
assert all(REGISTRY.has("spmm", f, "numpy") for f in FORMAT_IDS)
