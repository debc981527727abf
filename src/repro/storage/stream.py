"""Row-block streaming SpMV/SpMM over mmapped CSR arrays.

A matrix larger than RAM cannot be handed to a kernel whole — but CSR
is row-separable, so the iterator here partitions ``row_ptr`` into
cache-sized row panels.  Panels slice the (typically mmap-backed)
``col_idx`` / ``data`` arrays without copying, so resident memory is
bounded by one panel regardless of matrix size; the OS pages panel data
in as the kernel touches it and drops it under pressure.

Bitwise identity with the in-RAM NumPy reference kernel is a hard
contract.  That kernel is a *global* prefix sum
(``y[i] = prefix[row_ptr[i+1]] - prefix[row_ptr[i]]``), whose float
values depend on everything summed before row ``i``.  The streaming
path replays that arithmetic exactly by seeding each panel's
``np.add.accumulate`` with the previous panel's final prefix value —
sequential accumulation from an identical seed is bit-for-bit the tail
of the full accumulation.  (The engine's scipy path streams through
:func:`iter_row_blocks` itself: scipy's CSR kernel is row-local, so its
per-panel calls reproduce the whole-matrix call.)

``tests/storage/`` locks the property down.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.utils.validation import check_vector_length

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "iter_row_blocks",
    "mmap_backed",
    "plan_block_rows",
    "streaming_spmm",
    "streaming_spmv",
]

#: Default row-panel budget: big enough to amortise per-panel dispatch,
#: small enough that a panel's working set fits comfortably in cache
#: hierarchy + a few pages (8 MiB).
DEFAULT_BLOCK_BYTES = 8 << 20


def mmap_backed(matrix) -> bool:
    """Whether any defining array of *matrix* is a memory-mapped view."""
    from repro.storage.persist import container_arrays

    try:
        arrays = container_arrays(matrix)
    except FormatError:
        return False
    for arr in arrays.values():
        base = arr
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
    return False


def plan_block_rows(
    csr: CSRMatrix, block_bytes: Optional[int] = None
) -> int:
    """Rows per streaming panel for a target panel byte budget.

    The heuristic sizes panels by the matrix's own mean row weight
    (``nnz/nrows`` entries of ``col_idx`` plus ``data`` bytes, at the
    widths *csr* stores, plus the ``row_ptr`` slot), so short-row
    matrices stream many rows per panel and heavy rows stream few —
    panel bytes stay near the budget either way.
    """
    budget = int(block_bytes or DEFAULT_BLOCK_BYTES)
    if budget <= 0:
        raise ShapeError(f"block_bytes must be positive, got {budget}")
    nrows = csr.nrows
    if nrows == 0:
        return 1
    entry_bytes = csr.col_idx.itemsize + csr.data.itemsize
    mean_row_bytes = csr.row_ptr.itemsize + entry_bytes * (csr.nnz / nrows)
    return int(max(1, min(nrows, budget // max(1.0, mean_row_bytes))))


def iter_row_blocks(
    csr: CSRMatrix, block_rows: Optional[int] = None
) -> Iterator[Tuple[int, int, CSRMatrix]]:
    """Yield ``(row_start, row_end, panel)`` CSR panels of *csr*.

    Each panel is a fully valid :class:`CSRMatrix` over zero-copy
    slices of ``col_idx`` / ``data`` (only the rebased ``row_ptr``
    segment — one index per row — is copied), so panels of an mmapped
    container stay disk-backed until a kernel touches them.
    """
    if not isinstance(csr, CSRMatrix):
        raise FormatError(
            f"row-block streaming requires a CSR container, got "
            f"{type(csr).__name__}"
        )
    step = int(block_rows) if block_rows else plan_block_rows(csr)
    if step < 1:
        raise ShapeError(f"block_rows must be >= 1, got {step}")
    for i0 in range(0, csr.nrows, step):
        i1 = min(csr.nrows, i0 + step)
        ptr = np.asarray(csr.row_ptr[i0:i1 + 1])
        yield i0, i1, CSRMatrix(
            i1 - i0,
            csr.ncols,
            ptr - ptr[0],
            csr.col_idx[int(ptr[0]):int(ptr[-1])],
            csr.data[int(ptr[0]):int(ptr[-1])],
        )


def _numpy_stream(
    csr: CSRMatrix,
    operand: np.ndarray,
    out: np.ndarray,
    step: int,
) -> np.ndarray:
    """Bitwise replay of the numpy prefix-sum CSR kernels, panel-wise.

    Seeds each panel's sequential accumulation with the previous
    panel's closing prefix value, reproducing the full-matrix
    ``cumsum`` bit-for-bit (see module docstring).
    """
    stacked = operand.ndim == 2
    carry = (
        np.zeros(operand.shape[1], dtype=np.float64) if stacked else 0.0
    )
    for i0 in range(0, csr.nrows, step):
        i1 = min(csr.nrows, i0 + step)
        ptr = np.asarray(csr.row_ptr[i0:i1 + 1])
        lo, hi = int(ptr[0]), int(ptr[-1])
        cols = np.asarray(csr.col_idx[lo:hi])
        if stacked:
            products = np.asarray(csr.data[lo:hi])[:, None] * operand[cols]
            buf = np.empty((hi - lo + 1, operand.shape[1]), dtype=np.float64)
            buf[0] = carry
            buf[1:] = products
            np.add.accumulate(buf, axis=0, out=buf)
            carry = buf[-1].copy()
        else:
            products = np.asarray(csr.data[lo:hi]) * operand[cols]
            buf = np.empty(hi - lo + 1, dtype=np.float64)
            buf[0] = carry
            buf[1:] = products
            np.add.accumulate(buf, out=buf)
            carry = float(buf[-1])
        local = ptr - lo
        out[i0:i1] = buf[local[1:]] - buf[local[:-1]]
    return out


def _stream(
    csr: CSRMatrix,
    operand: np.ndarray,
    *,
    block_rows: Optional[int],
    block_bytes: Optional[int],
    out: Optional[np.ndarray],
) -> np.ndarray:
    step = (
        int(block_rows)
        if block_rows
        else plan_block_rows(csr, block_bytes)
    )
    if step < 1:
        raise ShapeError(f"block_rows must be >= 1, got {step}")
    shape = (
        (csr.nrows,)
        if operand.ndim == 1
        else (csr.nrows, operand.shape[1])
    )
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape:
        raise ShapeError(
            f"streaming output has shape {out.shape}, expected {shape}"
        )
    if csr.nnz == 0:
        out[...] = 0.0
        return out
    return _numpy_stream(csr, operand, out, step)


def streaming_spmv(
    csr: CSRMatrix,
    x: np.ndarray,
    *,
    block_rows: Optional[int] = None,
    block_bytes: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``y = A @ x`` over row panels, bitwise-identical to the NumPy
    reference kernel on the whole matrix.

    Resident memory is bounded by one panel plus the dense operand and
    result; *csr*'s arrays may be mmap views far larger than RAM.
    """
    vec = np.ascontiguousarray(x, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError(f"SpMV operand must be 1-D, got ndim={vec.ndim}")
    check_vector_length(vec, csr.ncols, name="x")
    return _stream(
        csr, vec, block_rows=block_rows, block_bytes=block_bytes, out=out
    )


def streaming_spmm(
    csr: CSRMatrix,
    X: np.ndarray,
    *,
    block_rows: Optional[int] = None,
    block_bytes: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``Y = A @ X`` for an ``(ncols, k)`` block, streamed by row panels."""
    block = np.ascontiguousarray(X, dtype=np.float64)
    if block.ndim != 2:
        raise ShapeError(f"SpMM operand must be 2-D, got ndim={block.ndim}")
    check_vector_length(block, csr.ncols, name="X")
    return _stream(
        csr, block, block_rows=block_rows, block_bytes=block_bytes, out=out
    )
