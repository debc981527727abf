"""Compressed Sparse Row (CSR) storage format.

CSR compresses the row indices of COO into a length ``nrows + 1`` pointer
array whose consecutive differences delimit each row's slice of the column
index and value arrays.  It is the paper's general-purpose default and the
baseline every speedup in the evaluation is measured against.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix, register_format
from repro.formats.coo import COOMatrix
from repro.utils.validation import (
    as_value_array,
    check_array_1d,
    check_csr_structure,
    check_dtype_int,
    csr_index_dtype,
)

__all__ = ["CSRMatrix"]


@register_format
class CSRMatrix(SparseMatrix):
    """CSR sparse matrix with ``row_ptr`` / ``col_idx`` / ``data`` arrays.

    Invariants enforced at construction: ``row_ptr`` is non-decreasing,
    starts at 0, ends at ``nnz``; every column index is in range.  Column
    indices within a row are stored in ascending order when built through
    :meth:`from_coo` (canonical COO is row-major sorted), but ascending
    order is *not* a class invariant — kernels never rely on it.  Both
    index arrays are stored as int32 whenever the shape and ``nnz`` fit
    (:func:`~repro.utils.validation.csr_index_dtype`), as int64
    otherwise: scipy's compiled CSR kernel runs them as they are.
    """

    format = "CSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        data: np.ndarray,
    ) -> None:
        super().__init__(nrows, ncols)
        row_ptr = _index_array(row_ptr, "row_ptr")
        col_idx = _index_array(col_idx, "col_idx")
        data = as_value_array(data, name="data")
        # checked at the width given, so narrowing cannot wrap a bad
        # index into range
        check_csr_structure(nrows, ncols, row_ptr, col_idx, data)
        width = csr_index_dtype(nrows, ncols, data.shape[0])
        self.row_ptr = row_ptr.astype(width, copy=False)
        self.col_idx = col_idx.astype(width, copy=False)
        self.data = data
        for arr in (self.row_ptr, self.col_idx, self.data):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def nbytes(self) -> int:
        return int(self.row_ptr.nbytes + self.col_idx.nbytes + self.data.nbytes)

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
        )
        return COOMatrix(
            self.nrows, self.ncols, rows, self.col_idx.copy(), self.data.copy()
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, **params: object) -> "CSRMatrix":
        counts = np.bincount(coo.row, minlength=coo.nrows)
        width = csr_index_dtype(coo.nrows, coo.ncols, coo.nnz)
        row_ptr = np.zeros(coo.nrows + 1, dtype=width)
        np.cumsum(counts, out=row_ptr[1:])
        # canonical COO is already row-major sorted, so col/data copy across
        return cls(
            coo.nrows, coo.ncols, row_ptr, coo.col.astype(width), coo.data.copy()
        )

    # ------------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_ptr).astype(np.int64)

    def diagonal_nnz(self) -> np.ndarray:
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
        )
        shifted = self.col_idx - rows + (self.nrows - 1)
        counts = np.bincount(shifted, minlength=self.nrows + self.ncols - 1)
        return counts[counts > 0].astype(np.int64)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(col_idx, data)`` views of row *i* (no copies)."""
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return self.col_idx[lo:hi], self.data[lo:hi]


def _index_array(arr: object, name: str) -> np.ndarray:
    """1-D contiguous index array: int32 kept as given, any other integer
    dtype as int64 (the constructor then applies the width rule)."""
    out = check_array_1d(arr, name=name)
    return out if out.dtype == np.int32 else check_dtype_int(out, name=name)
