"""Tests for the validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.utils.validation import (
    as_index_array,
    as_value_array,
    check_array_1d,
    check_array_2d,
    check_dtype_float,
    check_dtype_int,
    check_index_bounds,
    check_nonnegative,
    check_positive,
    check_square,
    check_vector_length,
)


class TestArrayCoercion:
    def test_check_array_1d_from_list(self):
        out = check_array_1d([1, 2, 3], name="x")
        assert out.shape == (3,)
        assert out.flags["C_CONTIGUOUS"]

    def test_check_array_1d_rejects_2d(self):
        with pytest.raises(ShapeError):
            check_array_1d(np.ones((2, 2)), name="x")

    def test_check_array_1d_empty_flag(self):
        with pytest.raises(ValidationError):
            check_array_1d([], name="x", allow_empty=False)

    def test_check_array_2d(self):
        out = check_array_2d([[1.0, 2.0]], name="m")
        assert out.shape == (1, 2)

    def test_check_array_2d_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_array_2d([1.0], name="m")


class TestDtypes:
    def test_float_passthrough(self):
        arr = np.ones(3, dtype=np.float32)
        assert check_dtype_float(arr, name="x").dtype == np.float32

    def test_int_to_float_cast(self):
        out = check_dtype_float(np.ones(3, dtype=np.int32), name="x")
        assert np.issubdtype(out.dtype, np.floating)

    def test_string_rejected_float(self):
        with pytest.raises(ValidationError):
            check_dtype_float(np.array(["a"]), name="x")

    def test_int_passthrough(self):
        out = check_dtype_int(np.arange(3, dtype=np.int32), name="i")
        assert out.dtype == np.int64

    def test_integral_floats_accepted(self):
        out = check_dtype_int(np.array([1.0, 2.0]), name="i")
        assert out.dtype == np.int64

    def test_fractional_floats_rejected(self):
        with pytest.raises(ValidationError):
            check_dtype_int(np.array([1.5]), name="i")

    def test_as_index_array(self):
        out = as_index_array([3, 1], name="i")
        assert out.dtype == np.int64

    def test_as_value_array(self):
        out = as_value_array([1, 2], name="v")
        assert out.dtype == np.float64


class TestScalars:
    def test_nonnegative_ok(self):
        check_nonnegative(0, name="n")

    def test_nonnegative_raises(self):
        with pytest.raises(ValidationError):
            check_nonnegative(-1, name="n")

    def test_positive_ok(self):
        check_positive(1, name="n")

    def test_positive_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0, name="n")

    def test_square_ok(self):
        check_square(4, 4)

    def test_square_raises(self):
        with pytest.raises(ShapeError):
            check_square(4, 5)


class TestBounds:
    def test_in_bounds_ok(self):
        check_index_bounds(np.array([0, 4]), 5, name="i")

    def test_empty_ok(self):
        check_index_bounds(np.array([], dtype=np.int64), 5, name="i")

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            check_index_bounds(np.array([-1]), 5, name="i")

    def test_too_large_raises(self):
        with pytest.raises(ValidationError):
            check_index_bounds(np.array([5]), 5, name="i")

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_error_reports_the_range(self, dtype):
        arr = np.array([3, 1, 7], dtype=dtype)
        check_index_bounds(arr, 8, name="i")
        with pytest.raises(
            ValidationError,
            match=r"'i' entries must lie in \[0, 7\), got range \[1, 7\]",
        ):
            check_index_bounds(arr, 7, name="i")

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_in_a_narrow_dtype_raises(self, dtype):
        # through the unsigned view -1 reads as the dtype's largest value
        arr = np.array([0, -1, 2], dtype=dtype)[::2]  # strided: [0, 2]
        check_index_bounds(arr, 3, name="i")
        with pytest.raises(ValidationError, match=r"got range \[-1, 2\]"):
            check_index_bounds(np.array([0, -1, 2], dtype=dtype), 3, name="i")

    def test_vector_length_ok(self):
        check_vector_length(np.ones(3), 3, name="x")

    def test_vector_length_raises(self):
        with pytest.raises(ShapeError):
            check_vector_length(np.ones(3), 4, name="x")
