"""Tests for MatrixStats: the structural summary feeding the models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix, convert
from repro.machine.stats import MatrixStats

from tests.conftest import ALL_FORMATS


def tridiag_dense(n: int) -> np.ndarray:
    return (
        np.diag(2.0 * np.ones(n))
        + np.diag(-np.ones(n - 1), 1)
        + np.diag(-np.ones(n - 1), -1)
    )


class TestBasics:
    def test_counts_match_dense(self, dense_small):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_small))
        assert stats.nrows == 12
        assert stats.ncols == 12
        assert stats.nnz == np.count_nonzero(dense_small)

    def test_row_distribution(self, dense_small):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_small))
        row_nnz = (dense_small != 0).sum(axis=1)
        assert stats.row_nnz_mean == pytest.approx(row_nnz.mean())
        assert stats.row_nnz_max == row_nnz.max()
        assert stats.row_nnz_min == row_nnz.min()
        assert stats.row_nnz_std == pytest.approx(row_nnz.std())

    def test_density(self, dense_small):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_small))
        assert stats.density == pytest.approx(
            np.count_nonzero(dense_small) / dense_small.size
        )

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_format_independence(self, fmt, dense_small):
        coo = COOMatrix.from_dense(dense_small)
        ref = MatrixStats.from_matrix(coo)
        other = MatrixStats.from_matrix(convert(coo, fmt))
        assert other == ref


class TestTridiagonal:
    def test_diagonal_census(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(tridiag_dense(10)))
        assert stats.ndiags == 3
        assert stats.ntrue_diags == 3  # all three exceed the 50% threshold
        assert stats.true_diag_nnz == 10 + 9 + 9

    def test_ell_width(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(tridiag_dense(10)))
        assert stats.ell_width == 3
        assert stats.ell_padded == 30
        assert stats.ell_padding_ratio == pytest.approx(30 / 28)

    def test_dia_padding(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(tridiag_dense(10)))
        assert stats.dia_padded == 3 * 10
        assert stats.dia_padding_ratio == pytest.approx(30 / 28)

    def test_hdc_split_fully_diagonal(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(tridiag_dense(10)))
        assert stats.hdc_dia_nnz == 28
        assert stats.hdc_csr_nnz == 0


class TestFormatBytes:
    def test_coo_bytes(self, dense_small):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_small))
        assert stats.format_bytes("COO") == stats.nnz * 24

    def test_csr_bytes(self, dense_small):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_small))
        assert stats.format_bytes("CSR") == stats.nnz * 16 + 13 * 8

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_format_bytes_match_real_containers(self, fmt, dense_small):
        """Predicted storage must equal the bytes of the real container.

        The model prices every index at int64; a CSR block stores its
        indices as int32 where they fit, counted here at the model's
        width."""
        coo = COOMatrix.from_dense(dense_small)
        stats = MatrixStats.from_matrix(coo)
        m = convert(coo, fmt)
        csr = {"CSR": m, "HDC": getattr(m, "csr", None)}.get(fmt)
        narrowed = 0
        if csr is not None:
            narrowed = (8 - csr.row_ptr.itemsize) * (
                csr.row_ptr.size + csr.col_idx.size
            )
        assert stats.format_bytes(fmt) == m.nbytes() + narrowed

    def test_unknown_format_raises(self, coo_small):
        stats = MatrixStats.from_matrix(coo_small)
        with pytest.raises(ValueError):
            stats.format_bytes("BSR")


class TestDerived:
    def test_row_imbalance_uniform_is_one(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(np.eye(8)))
        assert stats.row_imbalance == 1.0
        assert stats.row_cv == 0.0

    def test_row_imbalance_skewed(self, rng):
        dense = np.zeros((10, 10))
        dense[0] = 1.0  # one full row
        dense[1:, 0] = 1.0  # other rows one entry
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense))
        assert stats.row_imbalance > 3.0
        assert stats.row_cv > 0.5

    def test_empty_rows_counted(self):
        dense = np.zeros((5, 5))
        dense[0, 0] = 1.0
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense))
        assert stats.n_empty_rows == 4

    def test_hyb_split_partition(self, dense_medium):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(dense_medium))
        assert stats.hyb_ell_nnz + stats.hyb_coo_nnz == stats.nnz
        assert 0 <= stats.hyb_k <= stats.row_nnz_max
