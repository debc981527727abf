"""Argument-validation helpers used across the package.

These functions normalise user input into contiguous NumPy arrays with
well-defined dtypes and raise :class:`repro.errors.ValidationError` (or the
more specific :class:`repro.errors.ShapeError`) with actionable messages.
Keeping validation centralised means the sparse-format containers and the ML
estimators share identical error behaviour.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShapeError, ValidationError

__all__ = [
    "check_array_1d",
    "check_array_2d",
    "check_csr_structure",
    "csr_index_dtype",
    "check_dtype_float",
    "check_dtype_int",
    "check_index_bounds",
    "check_nonnegative",
    "check_positive",
    "check_square",
    "check_vector_length",
]

#: dtype used for all index arrays in the sparse containers.
INDEX_DTYPE = np.int64
#: dtype used for all value arrays in the sparse containers.
VALUE_DTYPE = np.float64
#: Largest value an int32 index array holds.
_INT32_MAX = int(np.iinfo(np.int32).max)


def check_array_1d(
    arr: Any,
    *,
    name: str,
    dtype: np.dtype | type | None = None,
    allow_empty: bool = True,
) -> np.ndarray:
    """Coerce *arr* to a contiguous 1-D ndarray, optionally casting dtype.

    Parameters
    ----------
    arr:
        Anything :func:`numpy.asarray` accepts.
    name:
        Argument name used in error messages.
    dtype:
        If given, the returned array is cast to this dtype.
    allow_empty:
        When ``False`` an empty array raises :class:`ValidationError`.
    """
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise ShapeError(f"{name!r} must be 1-D, got ndim={out.ndim}")
    if not allow_empty and out.size == 0:
        raise ValidationError(f"{name!r} must not be empty")
    return out


def check_array_2d(
    arr: Any,
    *,
    name: str,
    dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """Coerce *arr* to a contiguous 2-D ndarray."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 2:
        raise ShapeError(f"{name!r} must be 2-D, got ndim={out.ndim}")
    return out


def check_dtype_float(arr: np.ndarray, *, name: str) -> np.ndarray:
    """Ensure *arr* has a floating dtype, casting integers to float64."""
    if not np.issubdtype(arr.dtype, np.floating):
        if np.issubdtype(arr.dtype, np.integer) or np.issubdtype(arr.dtype, np.bool_):
            return arr.astype(VALUE_DTYPE)
        raise ValidationError(
            f"{name!r} must have a floating dtype, got {arr.dtype}"
        )
    return arr


def check_dtype_int(arr: np.ndarray, *, name: str) -> np.ndarray:
    """Ensure *arr* has an integer dtype, casting to the index dtype."""
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            return arr.astype(INDEX_DTYPE)
        raise ValidationError(
            f"{name!r} must have an integer dtype, got {arr.dtype}"
        )
    return arr.astype(INDEX_DTYPE, copy=False)


def check_nonnegative(value: int | float, *, name: str) -> None:
    """Raise unless ``value >= 0``."""
    if value < 0:
        raise ValidationError(f"{name!r} must be non-negative, got {value}")


def check_positive(value: int | float, *, name: str) -> None:
    """Raise unless ``value > 0``."""
    if value <= 0:
        raise ValidationError(f"{name!r} must be positive, got {value}")


def check_square(nrows: int, ncols: int, *, context: str = "matrix") -> None:
    """Raise unless the matrix is square."""
    if nrows != ncols:
        raise ShapeError(f"{context} must be square, got {nrows}x{ncols}")


def check_index_bounds(
    indices: np.ndarray, upper: int, *, name: str
) -> None:
    """Raise unless every index lies in ``[0, upper)``.

    An integer array is read once: its max is taken through an unsigned
    view, where a negative index reads as a huge value and fails the
    same ``< upper`` test.  The range the error reports is computed only
    on failure.
    """
    if indices.size == 0:
        return
    if indices.dtype.kind in ("i", "u"):
        unsigned = indices.view(indices.dtype.str.replace("i", "u"))
        ok = int(unsigned.max()) < upper
    else:
        ok = indices.min() >= 0 and indices.max() < upper
    if not ok:
        lo = int(indices.min())
        hi = int(indices.max())
        raise ValidationError(
            f"{name!r} entries must lie in [0, {upper}), got range [{lo}, {hi}]"
        )


def check_csr_structure(
    nrows: int,
    ncols: int,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    data: np.ndarray,
) -> None:
    """Raise unless ``(row_ptr, col_idx, data)`` is a well-formed CSR triple.

    ``row_ptr`` has length ``nrows+1``, starts at 0, never decreases and
    ends at ``len(col_idx) == len(data)``; every ``col_idx`` lies in
    ``[0, ncols)``.  Compiled CSR kernels index with these arrays
    unchecked, so they must pass here before one sees them.
    """
    if row_ptr.shape[0] != nrows + 1:
        raise ValidationError(
            f"row_ptr must have length nrows+1={nrows + 1}, "
            f"got {row_ptr.shape[0]}"
        )
    if col_idx.shape != data.shape:
        raise ValidationError(
            "col_idx and data must have equal length, got "
            f"{col_idx.shape[0]} vs {data.shape[0]}"
        )
    if row_ptr[0] != 0 or row_ptr[-1] != data.shape[0]:
        raise ValidationError(
            "row_ptr must start at 0 and end at nnz="
            f"{data.shape[0]}, got [{row_ptr[0]}, {row_ptr[-1]}]"
        )
    if (row_ptr[1:] < row_ptr[:-1]).any():
        raise ValidationError("row_ptr must be non-decreasing")
    check_index_bounds(col_idx, ncols, name="col_idx")


def csr_index_dtype(nrows: int, ncols: int, nnz: int) -> type:
    """The dtype of a CSR container's ``row_ptr`` and ``col_idx``.

    int32 when every value they hold (row pointers up to *nnz*, column
    indices below *ncols*) and the row count, which scipy's compiled
    CSR kernel takes at the same width, fit in it; int64 otherwise.
    Derived from the shape alone, so it is not an option.
    """
    return np.int32 if max(nrows, ncols, nnz) <= _INT32_MAX else np.int64


def check_vector_length(
    vec: np.ndarray, expected: int, *, name: str
) -> None:
    """Raise unless ``len(vec) == expected``."""
    if vec.shape[0] != expected:
        raise ShapeError(
            f"{name!r} has length {vec.shape[0]}, expected {expected}"
        )


def as_index_array(arr: Any, *, name: str) -> np.ndarray:
    """Shorthand: 1-D contiguous int64 array."""
    out = check_array_1d(arr, name=name)
    return check_dtype_int(out, name=name)


def as_value_array(arr: Any, *, name: str) -> np.ndarray:
    """Shorthand: 1-D contiguous float64 array."""
    out = check_array_1d(arr, name=name)
    return check_dtype_float(out, name=name).astype(VALUE_DTYPE, copy=False)
