"""Diagonal (DIA) storage format.

DIA stores every occupied diagonal as one row of a dense 2-D array plus an
integer offset per diagonal (paper Section II-B: suited to banded / regular
patterns on vector hardware, but suffers excessive padding when many sparse
diagonals are occupied).

Layout convention (matches ``scipy.sparse.dia_matrix``): the element at
``(i, j)`` with ``j - i == offsets[k]`` is stored at ``data[k, j]`` — i.e.
diagonals are *column aligned*, so ``data`` has shape
``(ndiags, ncols)`` and the leading ``max(0, offsets[k])`` /
trailing entries of each row are padding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, register_format
from repro.formats.coo import COOMatrix
from repro.utils.validation import as_index_array, check_array_2d

__all__ = ["DIAMatrix"]


@register_format
class DIAMatrix(SparseMatrix):
    """DIA sparse matrix with ``offsets`` and column-aligned ``data``.

    Parameters
    ----------
    nrows, ncols:
        Matrix shape.
    offsets:
        Strictly increasing diagonal offsets ``j - i`` in
        ``[-(nrows-1), ncols-1]``.
    data:
        Array of shape ``(len(offsets), ncols)``; entry ``data[k, j]`` holds
        ``A[j - offsets[k], j]`` where that index is in range, else padding.
    """

    format = "DIA"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        offsets: np.ndarray,
        data: np.ndarray,
    ) -> None:
        super().__init__(nrows, ncols)
        offsets = as_index_array(offsets, name="offsets")
        data = check_array_2d(data, name="data", dtype=np.float64)
        if data.shape[0] != offsets.shape[0]:
            raise ValidationError(
                f"data has {data.shape[0]} diagonals but offsets has "
                f"{offsets.shape[0]} entries"
            )
        if data.shape[0] and data.shape[1] != ncols:
            raise ValidationError(
                f"data must have ncols={ncols} columns, got {data.shape[1]}"
            )
        if offsets.size:
            if np.any(np.diff(offsets) <= 0):
                raise ValidationError("offsets must be strictly increasing")
            if offsets[0] < -(nrows - 1) or offsets[-1] > ncols - 1:
                raise ValidationError(
                    f"offsets must lie in [{-(nrows - 1)}, {ncols - 1}], got "
                    f"[{offsets[0]}, {offsets[-1]}]"
                )
        self.offsets = offsets
        self.data = data
        # zero out any value written into out-of-range (padding) positions so
        # nnz and kernels agree on what is stored
        self._mask_padding()
        self.offsets.setflags(write=False)
        self.data.setflags(write=False)

    def _mask_padding(self) -> None:
        # write only where a padding slot actually holds a non-zero, so
        # an already-masked read-only buffer (an mmap view re-attached
        # from the disk tier) passes through without a write.  Diagonal
        # k holds columns [max(0, off), min(ncols, nrows + off)); its
        # head and tail padding slots are gathered in one pass, which
        # reads only padding, never the stored diagonals' pages
        j_lo = np.maximum(self.offsets, 0)
        j_hi = np.maximum(np.minimum(self.nrows + self.offsets, self.ncols), j_lo)
        counts = np.concatenate([j_lo, self.ncols - j_hi])
        total = int(counts.sum())
        if not total:
            return
        # segments: every diagonal's head [0, j_lo), then its tail
        # [j_hi, ncols); a slot's column is its segment's start plus its
        # position within the segment
        starts = np.concatenate([np.zeros_like(j_lo), j_hi])
        rows = np.repeat(np.tile(np.arange(self.offsets.size), 2), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        cols = np.arange(total) - first + np.repeat(starts, counts)
        junk = self.data[rows, cols] != 0.0
        if junk.any():
            self.data[rows[junk], cols[junk]] = 0.0

    # ------------------------------------------------------------------
    @property
    def ndiags(self) -> int:
        """Number of stored diagonals."""
        return int(self.offsets.shape[0])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def padded_size(self) -> int:
        """Total stored scalar slots, ``ndiags * ncols`` (incl. padding)."""
        return int(self.data.size)

    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.data.nbytes)

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows_list = []
        cols_list = []
        vals_list = []
        for k, off in enumerate(self.offsets):
            j_lo = max(0, int(off))
            j_hi = min(self.ncols, self.nrows + int(off))
            if j_hi <= j_lo:
                continue
            cols = np.arange(j_lo, j_hi, dtype=np.int64)
            vals = self.data[k, j_lo:j_hi]
            keep = vals != 0.0
            rows_list.append(cols[keep] - int(off))
            cols_list.append(cols[keep])
            vals_list.append(vals[keep])
        if not rows_list:
            empty = np.zeros(0, dtype=np.int64)
            return COOMatrix(
                self.nrows, self.ncols, empty, empty, np.zeros(0), canonical=True
            )
        return COOMatrix(
            self.nrows,
            self.ncols,
            np.concatenate(rows_list),
            np.concatenate(cols_list),
            np.concatenate(vals_list),
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, **params: object) -> "DIAMatrix":
        offsets = coo.diagonal_offsets()
        data = np.zeros((offsets.shape[0], coo.ncols), dtype=np.float64)
        if coo.nnz:
            diag_of_entry = np.searchsorted(offsets, coo.col - coo.row)
            data[diag_of_entry, coo.col] = coo.data
        return cls(coo.nrows, coo.ncols, offsets, data)

    # ------------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        counts = np.zeros(self.nrows, dtype=np.int64)
        for k, off in enumerate(self.offsets):
            j_lo = max(0, int(off))
            j_hi = min(self.ncols, self.nrows + int(off))
            if j_hi <= j_lo:
                continue
            seg = self.data[k, j_lo:j_hi] != 0.0
            counts[j_lo - int(off): j_hi - int(off)] += seg
        return counts

    def diagonal_nnz(self) -> np.ndarray:
        counts = np.count_nonzero(self.data, axis=1).astype(np.int64)
        return counts[counts > 0]
