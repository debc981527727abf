"""Raw-array SpMV / SpMM kernels — the NumPy reference.

One vectorised kernel per (operation, simple format), operating on the
format's bare arrays the way a C kernel library would.  These functions
are the reference semantics scipy's compiled kernels are checked
against: the kernel registry (:mod:`repro.runtime.registry`) maps
``(operation, format)`` to thin container adapters that wrap these
functions.  Composite formats (HYB, HDC) have no dedicated kernels — the
registry composes their block kernels.

Correctness is cross-checked against scipy and dense references in the test
suite; the kernels must never rely on column order within a row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coo_spmv",
    "csr_spmv",
    "dia_spmv",
    "ell_spmv",
    "hyb_spmv",
    "hdc_spmv",
    "coo_spmm",
    "csr_spmm",
    "dia_spmm",
    "ell_spmm",
]


# ----------------------------------------------------------------------
# single-vector kernels: y = A @ x
# ----------------------------------------------------------------------


def coo_spmv(
    nrows: int,
    row: np.ndarray,
    col: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """COO kernel: scatter-add of per-entry products."""
    return np.bincount(row, weights=data * x[col], minlength=nrows)


def csr_spmv(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """CSR kernel via prefix sums of the per-entry products.

    The cumulative-sum formulation handles empty rows uniformly (unlike
    ``np.add.reduceat``) and keeps the kernel fully vectorised.
    """
    nrows = row_ptr.shape[0] - 1
    nnz = data.shape[0]
    if nnz == 0:
        return np.zeros(nrows, dtype=np.float64)
    products = data * x[col_idx]
    prefix = np.empty(nnz + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(products, out=prefix[1:])
    return prefix[row_ptr[1:]] - prefix[row_ptr[:-1]]


def dia_spmv(
    nrows: int,
    ncols: int,
    offsets: np.ndarray,
    dia_data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """DIA kernel: one vectorised pass per diagonal.

    The per-diagonal loop mirrors production DIA kernels; ``ndiags`` is
    small exactly when DIA is the right format.
    """
    y = np.zeros(nrows, dtype=np.float64)
    for k, off in enumerate(offsets):
        j_lo = max(0, int(off))
        j_hi = min(ncols, nrows + int(off))
        if j_hi <= j_lo:
            continue
        y[j_lo - int(off): j_hi - int(off)] += dia_data[k, j_lo:j_hi] * x[j_lo:j_hi]
    return y


def ell_spmv(
    col_idx: np.ndarray,
    ell_data: np.ndarray,
    x: np.ndarray,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """ELL kernel: masked gather over the fixed-width slots.

    ``valid`` is the padding mask (``col_idx >= 0``); callers that cache it
    (the ELL container) pass it in to skip recomputation.
    """
    if ell_data.shape[1] == 0:
        return np.zeros(ell_data.shape[0], dtype=np.float64)
    if valid is None:
        valid = col_idx >= 0
    gathered = x[np.where(valid, col_idx, 0)]
    return (ell_data * np.where(valid, gathered, 0.0)).sum(axis=1)


def hyb_spmv(
    nrows: int,
    ell_col_idx: np.ndarray,
    ell_data: np.ndarray,
    coo_row: np.ndarray,
    coo_col: np.ndarray,
    coo_data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """HYB kernel: ELL block plus COO overflow block."""
    y = ell_spmv(ell_col_idx, ell_data, x)
    if coo_row.shape[0]:
        y += coo_spmv(nrows, coo_row, coo_col, coo_data, x)
    return y


def hdc_spmv(
    nrows: int,
    ncols: int,
    offsets: np.ndarray,
    dia_data: np.ndarray,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    csr_data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """HDC kernel: true-diagonal DIA block plus CSR remainder."""
    y = dia_spmv(nrows, ncols, offsets, dia_data, x)
    y += csr_spmv(row_ptr, col_idx, csr_data, x)
    return y


# ----------------------------------------------------------------------
# block kernels: Y = A @ X for an (ncols, k) dense block
# ----------------------------------------------------------------------


def coo_spmm(
    nrows: int,
    row: np.ndarray,
    col: np.ndarray,
    data: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """COO block kernel: one scatter-add pass per right-hand side."""
    out = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    if row.shape[0] == 0:
        return out
    contrib = data[:, None] * X[col]
    # one bincount per column keeps everything vectorised without add.at
    for j in range(X.shape[1]):
        out[:, j] = np.bincount(row, weights=contrib[:, j], minlength=nrows)
    return out


def csr_spmm(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    data: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """CSR block kernel: the prefix-sum trick applied column-block wide."""
    nrows = row_ptr.shape[0] - 1
    nnz = data.shape[0]
    if nnz == 0:
        return np.zeros((nrows, X.shape[1]), dtype=np.float64)
    products = data[:, None] * X[col_idx]
    prefix = np.zeros((nnz + 1, X.shape[1]), dtype=np.float64)
    np.cumsum(products, axis=0, out=prefix[1:])
    return prefix[row_ptr[1:]] - prefix[row_ptr[:-1]]


def dia_spmm(
    nrows: int,
    ncols: int,
    offsets: np.ndarray,
    dia_data: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """DIA block kernel: one vectorised pass per diagonal, all columns."""
    out = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    for k, off in enumerate(offsets):
        j_lo = max(0, int(off))
        j_hi = min(ncols, nrows + int(off))
        if j_hi <= j_lo:
            continue
        out[j_lo - int(off): j_hi - int(off)] += (
            dia_data[k, j_lo:j_hi, None] * X[j_lo:j_hi]
        )
    return out


def ell_spmm(
    col_idx: np.ndarray,
    ell_data: np.ndarray,
    X: np.ndarray,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """ELL block kernel: masked gather over slots, all columns at once."""
    if ell_data.shape[1] == 0:
        return np.zeros((ell_data.shape[0], X.shape[1]), dtype=np.float64)
    if valid is None:
        valid = col_idx >= 0
    gathered = X[np.where(valid, col_idx, 0)]            # (m, w, k)
    gathered *= np.where(valid, ell_data, 0.0)[:, :, None]
    return gathered.sum(axis=1)
