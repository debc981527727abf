"""Raw-array wrappers over the native C kernel library.

Same signatures as the NumPy reference kernels
(:mod:`repro.kernels.numpy.kernels`): callers hand in the format's bare
arrays, the wrapper allocates the output and invokes the ctypes-bound C
function.  Row sums are sequential left-to-right —
bitwise-identical to the reference on integer-valued float64 data,
``allclose`` on general floats.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.native import builder

__all__ = [
    "coo_spmv",
    "csr_spmv",
    "dia_spmv",
    "ell_spmv",
    "coo_spmm",
    "csr_spmm",
    "dia_spmm",
    "ell_spmm",
]


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def csr_spmv(row_ptr, col_idx, data, x) -> np.ndarray:
    nrows = row_ptr.shape[0] - 1
    y = np.empty(nrows, dtype=np.float64)
    builder.load().csr_spmv(
        nrows, _i64(row_ptr), _i64(col_idx), _f64(data), _f64(x), y
    )
    return y


def coo_spmv(nrows, row, col, data, x) -> np.ndarray:
    y = np.zeros(nrows, dtype=np.float64)
    builder.load().coo_spmv(
        row.shape[0], _i64(row), _i64(col), _f64(data), _f64(x), y
    )
    return y


def ell_spmv(col_idx, ell_data, x, valid=None) -> np.ndarray:
    nrows, width = ell_data.shape
    y = np.empty(nrows, dtype=np.float64)
    builder.load().ell_spmv(
        nrows, width, _i64(col_idx), _f64(ell_data), _f64(x), y
    )
    return y


def dia_spmv(nrows, ncols, offsets, dia_data, x) -> np.ndarray:
    y = np.zeros(nrows, dtype=np.float64)
    builder.load().dia_spmv(
        nrows, ncols, offsets.shape[0], _i64(offsets), _f64(dia_data),
        _f64(x), y,
    )
    return y


def csr_spmm(row_ptr, col_idx, data, X) -> np.ndarray:
    nrows = row_ptr.shape[0] - 1
    X = _f64(X)
    Y = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    builder.load().csr_spmm(
        nrows, X.shape[1], _i64(row_ptr), _i64(col_idx), _f64(data), X, Y
    )
    return Y


def coo_spmm(nrows, row, col, data, X) -> np.ndarray:
    X = _f64(X)
    Y = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    builder.load().coo_spmm(
        row.shape[0], X.shape[1], _i64(row), _i64(col), _f64(data), X, Y
    )
    return Y


def ell_spmm(col_idx, ell_data, X, valid=None) -> np.ndarray:
    nrows, width = ell_data.shape
    X = _f64(X)
    Y = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    builder.load().ell_spmm(
        nrows, width, X.shape[1], _i64(col_idx), _f64(ell_data), X, Y
    )
    return Y


def dia_spmm(nrows, ncols, offsets, dia_data, X) -> np.ndarray:
    X = _f64(X)
    Y = np.zeros((nrows, X.shape[1]), dtype=np.float64)
    builder.load().dia_spmm(
        nrows, ncols, offsets.shape[0], X.shape[1], _i64(offsets),
        _f64(dia_data), X, Y,
    )
    return Y
