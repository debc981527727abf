"""Unit tests for the CSR container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import COOMatrix, CSRMatrix


def build(dense: np.ndarray) -> CSRMatrix:
    return CSRMatrix.from_coo(COOMatrix.from_dense(dense))


class TestConstruction:
    def test_roundtrip(self, dense_small):
        np.testing.assert_allclose(build(dense_small).to_dense(), dense_small)

    def test_row_ptr_shape_and_ends(self, dense_small):
        csr = build(dense_small)
        assert csr.row_ptr.shape[0] == 13
        assert csr.row_ptr[0] == 0
        assert csr.row_ptr[-1] == csr.nnz

    def test_matches_scipy_structure(self, dense_medium):
        csr = build(dense_medium)
        ref = csr.to_scipy().tocsr()
        np.testing.assert_array_equal(csr.row_ptr, ref.indptr)
        np.testing.assert_array_equal(csr.col_idx, ref.indices)
        np.testing.assert_allclose(csr.data, ref.data)

    def test_bad_row_ptr_length(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, [0, 1], [0], [1.0])

    def test_row_ptr_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, [1, 1, 1], [0], [1.0])

    def test_row_ptr_must_end_at_nnz(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, [0, 1, 5], [0], [1.0])

    def test_decreasing_row_ptr_raises(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_col_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, [0, 1, 2], [0, 7], [1.0, 2.0])

    def test_empty_rows_supported(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = 3.0
        csr = build(dense)
        assert csr.row_nnz().tolist() == [0, 1, 0, 0]
        np.testing.assert_allclose(csr.to_dense(), dense)


class TestSpMV:
    def test_matches_dense(self, dense_small, rng):
        x = rng.standard_normal(12)
        np.testing.assert_allclose(build(dense_small).spmv(x), dense_small @ x)

    def test_matches_scipy(self, dense_medium, rng):
        csr = build(dense_medium)
        x = rng.standard_normal(60)
        np.testing.assert_allclose(csr.spmv(x), csr.to_scipy() @ x)

    def test_empty_rows_give_zero(self):
        dense = np.zeros((3, 3))
        dense[0, 0] = 2.0
        y = build(dense).spmv(np.ones(3))
        np.testing.assert_allclose(y, [2.0, 0.0, 0.0])

    def test_all_empty_matrix(self):
        csr = CSRMatrix(3, 3, [0, 0, 0, 0], [], [])
        np.testing.assert_allclose(csr.spmv(np.ones(3)), np.zeros(3))

    def test_rectangular(self, dense_rect, rng):
        x = rng.standard_normal(35)
        np.testing.assert_allclose(build(dense_rect).spmv(x), dense_rect @ x)


class TestStatistics:
    def test_row_nnz(self, dense_small):
        expected = (dense_small != 0).sum(axis=1)
        np.testing.assert_array_equal(build(dense_small).row_nnz(), expected)

    def test_diagonal_nnz_matches_coo(self, dense_medium):
        csr = build(dense_medium)
        coo = COOMatrix.from_dense(dense_medium)
        np.testing.assert_array_equal(
            np.sort(csr.diagonal_nnz()), np.sort(coo.diagonal_nnz())
        )

    def test_row_slice_views(self, dense_small):
        csr = build(dense_small)
        cols, vals = csr.row_slice(0)
        expected_cols = np.flatnonzero(dense_small[0])
        np.testing.assert_array_equal(cols, expected_cols)
        np.testing.assert_allclose(vals, dense_small[0, expected_cols])

    def test_nbytes(self, dense_small):
        csr = build(dense_small)
        # both index arrays are int32: the shape and nnz fit in it
        assert csr.nbytes() == csr.nnz * 12 + (csr.nrows + 1) * 4

    def test_to_coo_roundtrip_preserves_order(self, dense_medium):
        csr = build(dense_medium)
        coo = csr.to_coo()
        csr2 = CSRMatrix.from_coo(coo)
        np.testing.assert_array_equal(csr.row_ptr, csr2.row_ptr)
        np.testing.assert_array_equal(csr.col_idx, csr2.col_idx)
        np.testing.assert_allclose(csr.data, csr2.data)
