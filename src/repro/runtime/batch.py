"""Batched multi-vector / multi-matrix SpMV execution.

Runtime layer 2.  The paper's workloads apply the *same* matrix thousands
of times (iterative solvers, Section VII-E); this module amortises the
per-call cost the way a serving system would:

* :func:`batched_spmv` — ``Y = A @ X`` for an ``(ncols, k)`` block in one
  vectorised pass (no per-vector Python dispatch);
* :func:`matvec` — single entry point for 1-D vectors and 2-D blocks, the
  hook the iterative solvers route their hot loop through;
* :func:`batched_spmv_many` — a multi-matrix batch API serving a sequence
  of independent ``(matrix, operand)`` requests;
* :func:`spmv_iterations` — repeated application ``Y = A^n X``.

When scipy is importable (it is an existing dependency — the containers'
``to_scipy`` uses it as a test oracle) the hot path runs through a cached
compiled CSR operator per concrete container (:class:`BlockOperator`):
the conversion cost is paid once per matrix and every subsequent call runs
at compiled-kernel speed, which is the whole amortisation argument of the
paper applied to the serving layer.  Without scipy everything falls back
to the registry's vectorised NumPy block kernels — same results, slower.

Containers are immutable, so caching operators per container object (a
:class:`weakref.WeakKeyDictionary`, entries die with the container) is
safe; a :class:`~repro.formats.dynamic.DynamicMatrix` that switches format
simply maps to a new concrete container and therefore a new operator.
An operator persisted by the disk tier is re-attached to its promoted
container with :func:`attach_operator`, so a promote rebuilds nothing.
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dynamic import DynamicMatrix
from repro.runtime.registry import REGISTRY
from repro.utils.validation import check_vector_length

try:  # gated optional accelerator: compiled sparse kernels
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - environment without scipy
    _scipy_sparse = None

__all__ = [
    "BlockOperator",
    "attach_operator",
    "batched_spmv",
    "batched_spmv_many",
    "block_operator",
    "cached_operator",
    "check_block",
    "have_accelerator",
    "matvec",
    "spmv_iterations",
]

MatrixLike = Union[SparseMatrix, DynamicMatrix]


def _concrete(matrix: MatrixLike) -> SparseMatrix:
    return matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix


def check_block(matrix: SparseMatrix, X: np.ndarray) -> np.ndarray:
    """Validate and coerce an ``(ncols, k)`` dense right-hand-side block."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"SpMM operand must be 2-D, got ndim={X.ndim}")
    if X.shape[0] != matrix.ncols:
        raise ShapeError(
            f"operand has {X.shape[0]} rows, expected ncols={matrix.ncols}"
        )
    return X


def have_accelerator() -> bool:
    """Whether the compiled (scipy) batch path is available."""
    return _scipy_sparse is not None


class BlockOperator:
    """Compiled SpMV/SpMM operator for one immutable concrete container.

    Wraps a ``scipy.sparse.csr_matrix`` built once from the container:
    CSR containers share their arrays directly (no conversion); every
    other format goes through its canonical COO view once.  *arrays*,
    an ``(indptr, indices, data)`` triple from an earlier build of the
    same container, replaces that build; scipy does not bounds-check
    them, so they must already be checked as a CSR triple.  ``apply``
    then serves 1-D vectors and 2-D blocks at compiled speed.
    """

    __slots__ = ("shape", "format", "_op")

    def __init__(
        self,
        matrix: SparseMatrix,
        arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        if _scipy_sparse is None:  # pragma: no cover - scipy always in CI
            raise ValidationError(
                "BlockOperator needs scipy; use batched_spmv(..., "
                "accelerate=False) for the pure-NumPy path"
            )
        self.shape = matrix.shape
        self.format = matrix.format
        if arrays is not None:
            indptr, indices, data = arrays
            self._op = _scipy_sparse.csr_matrix(
                (data, indices, indptr), shape=matrix.shape
            )
        elif isinstance(matrix, CSRMatrix):
            self._op = _scipy_sparse.csr_matrix(
                (matrix.data, matrix.col_idx, matrix.row_ptr), shape=matrix.shape
            )
        else:
            coo = matrix.to_coo()
            self._op = _scipy_sparse.csr_matrix(
                _scipy_sparse.coo_matrix(
                    (coo.data, (coo.row, coo.col)), shape=coo.shape
                )
            )

    def apply(self, operand: np.ndarray) -> np.ndarray:
        """``A @ operand`` for a 1-D vector or ``(ncols, k)`` block."""
        out = self._op @ operand
        return np.asarray(out, dtype=np.float64)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator's ``(indptr, indices, data)``, as it multiplies."""
        return self._op.indptr, self._op.indices, self._op.data


_OPERATORS: "weakref.WeakKeyDictionary[SparseMatrix, BlockOperator]" = (
    weakref.WeakKeyDictionary()
)


def block_operator(matrix: MatrixLike) -> BlockOperator:
    """The cached :class:`BlockOperator` for *matrix*'s concrete container."""
    m = _concrete(matrix)
    op = _OPERATORS.get(m)
    if op is None:
        op = BlockOperator(m)
        _OPERATORS[m] = op
    return op


def cached_operator(matrix: MatrixLike) -> Optional[BlockOperator]:
    """The operator already built for *matrix*'s container, if any."""
    return _OPERATORS.get(_concrete(matrix))


def attach_operator(
    matrix: MatrixLike, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> None:
    """Serve *matrix* through the checked ``(indptr, indices, data)``
    of its own earlier operator instead of building one (no-op without
    scipy)."""
    if _scipy_sparse is not None:
        m = _concrete(matrix)
        _OPERATORS[m] = BlockOperator(m, arrays)


def batched_spmv(
    matrix: MatrixLike,
    X: np.ndarray,
    *,
    accelerate: bool = True,
    backend: Optional[str] = None,
) -> np.ndarray:
    """``Y = A @ X`` for a dense block ``X`` of shape ``(ncols, k)``.

    One call serves all ``k`` right-hand sides.  On the default
    (``numpy``) tier with ``accelerate`` and scipy present, it runs
    through the cached compiled operator, otherwise through the
    registry's vectorised NumPy block kernel.  A compiled *backend*
    (:mod:`repro.kernels`) routes through that backend's registered
    ``spmm`` kernel instead — with clean fallback down the preference
    order when the backend cannot serve the format.
    """
    m = _concrete(matrix)
    X = check_block(m, X)
    if backend is None or backend == "numpy":
        if accelerate and _scipy_sparse is not None:
            return block_operator(m).apply(X)
        return REGISTRY.get("spmm", m.format)(m, X)
    kernel, _ = REGISTRY.resolve("spmm", m.format, backend)
    return kernel(m, X)


def matvec(
    matrix: MatrixLike,
    x: np.ndarray,
    *,
    accelerate: bool = True,
    backend: Optional[str] = None,
) -> np.ndarray:
    """``y = A @ x`` for a 1-D vector or ``(ncols, k)`` block operand.

    The single entry point the iterative solvers route their hot loop
    through: repeated calls on the same container reuse its cached
    compiled operator, so a thousand-iteration solve pays the setup once.
    A compiled *backend* routes through the kernel registry's ``spmv``
    entry for that backend (fallback semantics as in
    :func:`batched_spmv`).
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim == 2:
        return batched_spmv(matrix, arr, accelerate=accelerate, backend=backend)
    m = _concrete(matrix)
    if backend is not None and backend != "numpy":
        if arr.ndim != 1:
            raise ValidationError(f"operand must be 1-D or 2-D, got ndim={arr.ndim}")
        check_vector_length(arr, m.ncols, name="x")
        kernel, _ = REGISTRY.resolve("spmv", m.format, backend)
        return kernel(m, arr)
    if accelerate and _scipy_sparse is not None:
        if arr.ndim != 1:
            raise ValidationError(f"operand must be 1-D or 2-D, got ndim={arr.ndim}")
        check_vector_length(arr, m.ncols, name="x")
        return block_operator(m).apply(arr)
    return m.spmv(arr)


def batched_spmv_many(
    items: Iterable[Tuple[MatrixLike, np.ndarray]], *, accelerate: bool = True
) -> List[np.ndarray]:
    """Serve a batch of independent ``(matrix, operand)`` requests.

    Each operand may be a 1-D vector or an ``(ncols, k)`` block; results
    come back in request order.  Requests that reuse a matrix hit its
    cached operator, so grouping a workload by matrix before calling is
    unnecessary.
    """
    return [matvec(m, x, accelerate=accelerate) for m, x in items]


def spmv_iterations(
    matrix: MatrixLike,
    x: np.ndarray,
    *,
    iterations: int,
    accelerate: bool = True,
) -> np.ndarray:
    """Repeated application ``y = A^iterations x`` (power-iteration style).

    Requires a square matrix; this is the access pattern of the iterative
    solvers that motivate amortising the tuner cost over thousands of
    SpMV calls (Section VII-E).  ``x`` may also be an ``(ncols, k)`` block,
    in which case all ``k`` vectors are iterated together.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    nrows, ncols = matrix.shape
    if nrows != ncols:
        raise ValidationError(
            f"spmv_iterations needs a square matrix, got {nrows}x{ncols}"
        )
    y = np.ascontiguousarray(x, dtype=np.float64)
    for _ in range(iterations):
        y = matvec(matrix, y, accelerate=accelerate)
    return y
