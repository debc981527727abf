"""Batched SpMV execution: the one dispatch every SpMV and SpMM runs through.

Runtime layer 2.  The paper's workloads apply the *same* matrix thousands
of times (iterative solvers, Section VII-E); this module amortises the
per-call cost the way a serving system would.  Two entry points:

* :func:`matvec` — ``y = A @ x`` for a 1-D vector or an ``(ncols, k)``
  block, the hook the iterative solvers and the workload engine route
  their hot loop through;
* :func:`batched_spmv` — ``Y = A @ X`` for an ``(ncols, k)`` block in one
  vectorised pass (no per-vector Python dispatch).

:func:`matvec` is the one dispatch (:func:`batched_spmv` adds only its
2-D check): it checks the operand with :func:`validate_operand`, then
:func:`dispatch` picks the kernel:

1. with scipy importable (it is an existing dependency — the
   containers' ``to_scipy`` uses it as a test oracle):
   * CSR, DIA and COO run scipy's own compiled kernel for their format
     directly on the container's validated arrays (a CSR container
     stores int32 indices whenever they fit, the width that kernel runs
     fastest at); nothing is converted or cached;
   * ELL, HYB and HDC have no kernel of their own on this host: a
     direct call runs that same CSR kernel on a private CSR image of
     the concrete container (``convert(m, "CSR")``), memoised per
     container object in a weak map, so an iterative solver on such a
     container pays the conversion once (containers are immutable, and
     a :class:`~repro.formats.dynamic.DynamicMatrix` that switches
     format maps to a new container);
2. without scipy, the registry's vectorised NumPy kernel — same results,
   slower.

Every path gives the same bits for finite operands: DIA offsets ascend
and canonical COO is row-major, so each output element sums its terms
in ascending column order, as the CSR kernel does on a CSR image.  DIA
also multiplies the zeros it stores, so an ``inf`` or ``NaN`` in the
operand can give ``NaN`` where a CSR image skips the entry
(``0 * inf``).

The serving path never reaches the image memo: :data:`SERVING` maps
each decided format to the container that serves it — the format
itself for CSR, DIA and COO (:data:`OWN_KERNELS`), a CSR container for
ELL, HYB and HDC — and to the name of the kernel that runs it, which
every served result carries.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple, Union

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.formats.base import FORMAT_IDS, SparseMatrix
from repro.formats.convert import convert
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.dynamic import DynamicMatrix
from repro.kernels import BACKEND
from repro.runtime.registry import REGISTRY

try:  # gated optional accelerator: compiled sparse kernels
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - environment without scipy
    _scipy_sparse = None
else:  # CSR, DIA and COO kernels: scipy >= 1.17 (docs/backends.md)
    from scipy.sparse._sparsetools import (
        coo_matmat_dense,
        coo_matvec,
        csr_matvec,
        csr_matvecs,
        dia_matvec,
        dia_matvecs,
    )

__all__ = [
    "OWN_KERNELS",
    "SERVING",
    "batched_spmv",
    "check_operand",
    "dispatch",
    "have_accelerator",
    "matvec",
    "validate_operand",
]

MatrixLike = Union[SparseMatrix, DynamicMatrix]


def validate_operand(matrix: MatrixLike, x: np.ndarray) -> np.ndarray:
    """Validate and coerce a request operand against *matrix*.

    Accepts a length-``ncols`` vector or an ``(ncols, k)`` block and
    returns it as a contiguous float64 array; a wrong length or row
    count raises :class:`ShapeError`, any other rank
    :class:`ValidationError`.  :func:`matvec` and the tuning service's
    front end validate with it, and ``WorkloadEngine.execute`` makes
    the same :func:`check_operand` against the container it serves, so
    the checks cannot diverge between them.
    """
    operand = np.ascontiguousarray(x, dtype=np.float64)
    if isinstance(matrix, DynamicMatrix):
        matrix = matrix.concrete
    check_operand(operand, matrix.ncols)
    return operand


def check_operand(operand: np.ndarray, ncols: int) -> None:
    """The O(1) shape checks of :func:`validate_operand` on an *operand*
    that is already an array, against a container's *ncols*."""
    if operand.ndim == 1:
        if operand.shape[0] != ncols:
            raise ShapeError(
                f"'x' has length {operand.shape[0]}, expected {ncols}"
            )
    elif operand.ndim == 2:
        if operand.shape[0] != ncols:
            raise ShapeError(
                f"operand has {operand.shape[0]} rows, expected ncols={ncols}"
            )
    else:
        raise ValidationError(
            f"operand must be 1-D or 2-D, got ndim={operand.ndim}"
        )


def have_accelerator() -> bool:
    """Whether the compiled (scipy) batch path is available."""
    return _scipy_sparse is not None


def _dia_kernel(m: DIAMatrix, operand: np.ndarray) -> np.ndarray:
    """scipy's compiled DIA kernel on *m*'s own ``offsets`` and ``data``."""
    nrows, ncols = m.shape
    if operand.ndim == 1:
        y = np.zeros(nrows)
        dia_matvec(
            nrows, ncols, *m.data.shape, m.offsets, m.data, operand, y
        )
    else:
        y = np.zeros((nrows, operand.shape[1]))
        dia_matvecs(
            nrows, ncols, *m.data.shape, m.offsets, m.data,
            operand.shape[1], operand, y,
        )
    return y


def _coo_kernel(m: COOMatrix, operand: np.ndarray) -> np.ndarray:
    """scipy's compiled COO kernel on *m*'s own ``row``, ``col``, ``data``."""
    if operand.ndim == 1:
        y = np.zeros(m.nrows)
        coo_matvec(m.nnz, m.row, m.col, m.data, operand, y)
    else:
        y = np.zeros((m.nrows, operand.shape[1]))
        coo_matmat_dense(
            m.nnz, operand.shape[1], m.row, m.col, m.data, operand, y
        )
    return y


def _csr_kernel(m: CSRMatrix, operand: np.ndarray) -> np.ndarray:
    """scipy's compiled CSR kernel on *m*'s own ``row_ptr``, ``col_idx``
    and ``data``."""
    nrows, ncols = m.shape
    if operand.ndim == 1:
        y = np.zeros(nrows)
        csr_matvec(nrows, ncols, m.row_ptr, m.col_idx, m.data, operand, y)
    else:
        y = np.zeros((nrows, operand.shape[1]))
        csr_matvecs(
            nrows, ncols, operand.shape[1], m.row_ptr, m.col_idx, m.data,
            operand, y,
        )
    return y


#: Formats that run through scipy's kernel for that very format.  These
#: kernels do not bounds-check: the containers' validating constructors
#: (row structure and column indices; offsets in range; row and col
#: indices in bounds) are what stands between a corrupt array and them.
OWN_KERNELS = {"CSR": _csr_kernel, "DIA": _dia_kernel, "COO": _coo_kernel}


#: Each decided format's ``(served format, kernel name)`` on this host:
#: a decision outside :data:`OWN_KERNELS` is served by a CSR container,
#: and the kernel is scipy's for the served format, or the NumPy
#: reference (``"numpy"``) without scipy.
SERVING: Dict[str, Tuple[str, str]] = {
    fmt: (
        served,
        BACKEND if _scipy_sparse is None else f"scipy.{served.lower()}",
    )
    for fmt in FORMAT_IDS
    for served in (fmt if fmt in OWN_KERNELS else "CSR",)
}


#: The CSR image of each concrete ELL, HYB or HDC container a direct
#: :func:`matvec` call has run (never a served one: :data:`SERVING`).
_IMAGES: "weakref.WeakKeyDictionary[SparseMatrix, CSRMatrix]" = (
    weakref.WeakKeyDictionary()
)


def _csr_image(m: SparseMatrix) -> CSRMatrix:
    """The memoised CSR image of the concrete container *m*."""
    image = _IMAGES.get(m)
    if image is None:
        image = _IMAGES[m] = convert(m, "CSR")
    return image


def matvec(matrix: MatrixLike, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for a 1-D vector or ``(ncols, k)`` block operand.

    The one dispatch (module docstring) and the entry point the
    iterative solvers route their hot loop through: repeated calls on
    the same container reuse its compiled kernel, so a
    thousand-iteration solve pays any setup once.
    """
    m = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
    return dispatch(m, validate_operand(m, x))


def dispatch(matrix: MatrixLike, operand: np.ndarray) -> np.ndarray:
    """:func:`matvec` on an *operand* :func:`validate_operand` returned.

    Checks nothing: ``WorkloadEngine.execute`` calls it once it has
    checked the operand against the container it serves (the
    compiled kernels do not bounds-check).
    """
    m = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
    if _scipy_sparse is not None:
        own = OWN_KERNELS.get(m.format)
        if own is not None:
            return own(m, operand)
        return _csr_kernel(_csr_image(m), operand)
    op = "spmm" if operand.ndim == 2 else "spmv"
    return REGISTRY.get(op, m.format)(m, operand)


def batched_spmv(matrix: MatrixLike, X: np.ndarray) -> np.ndarray:
    """``Y = A @ X`` for a dense block ``X`` of shape ``(ncols, k)``.

    One call serves all ``k`` right-hand sides; it is :func:`matvec`
    restricted to 2-D operands.
    """
    if np.ndim(X) != 2:
        raise ShapeError(f"SpMM operand must be 2-D, got ndim={np.ndim(X)}")
    return matvec(matrix, X)
