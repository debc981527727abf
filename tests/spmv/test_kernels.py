"""Raw-array kernels must agree with containers, dense and scipy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import (
    COOMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    HDCMatrix,
    HYBMatrix,
)
from repro.kernels.numpy import kernels


@pytest.fixture
def case(dense_medium, rng):
    x = rng.standard_normal(dense_medium.shape[1])
    return dense_medium, COOMatrix.from_dense(dense_medium), x


def test_coo_kernel(case):
    dense, coo, x = case
    y = kernels.coo_spmv(coo.nrows, coo.row, coo.col, coo.data, x)
    np.testing.assert_allclose(y, dense @ x)


def test_csr_kernel(case):
    dense, coo, x = case
    csr = CSRMatrix.from_coo(coo)
    y = kernels.csr_spmv(csr.row_ptr, csr.col_idx, csr.data, x)
    np.testing.assert_allclose(y, dense @ x)
    np.testing.assert_allclose(y, csr.spmv(x))


def test_dia_kernel(case):
    dense, coo, x = case
    dia = DIAMatrix.from_coo(coo)
    y = kernels.dia_spmv(dia.nrows, dia.ncols, dia.offsets, dia.data, x)
    np.testing.assert_allclose(y, dense @ x)
    np.testing.assert_allclose(y, dia.spmv(x))


def test_ell_kernel(case):
    dense, coo, x = case
    ell = ELLMatrix.from_coo(coo)
    y = kernels.ell_spmv(ell.col_idx, ell.data, x)
    np.testing.assert_allclose(y, dense @ x)
    np.testing.assert_allclose(y, ell.spmv(x))


def test_hyb_kernel(case):
    dense, coo, x = case
    hyb = HYBMatrix.from_coo(coo)
    y = kernels.hyb_spmv(
        hyb.nrows,
        hyb.ell.col_idx,
        hyb.ell.data,
        hyb.coo.row,
        hyb.coo.col,
        hyb.coo.data,
        x,
    )
    np.testing.assert_allclose(y, dense @ x)
    np.testing.assert_allclose(y, hyb.spmv(x))


def test_hdc_kernel(case):
    dense, coo, x = case
    hdc = HDCMatrix.from_coo(coo)
    y = kernels.hdc_spmv(
        hdc.nrows,
        hdc.ncols,
        hdc.dia.offsets,
        hdc.dia.data,
        hdc.csr.row_ptr,
        hdc.csr.col_idx,
        hdc.csr.data,
        x,
    )
    np.testing.assert_allclose(y, dense @ x)
    np.testing.assert_allclose(y, hdc.spmv(x))


def test_csr_kernel_empty_rows():
    row_ptr = np.array([0, 0, 1, 1], dtype=np.int64)
    col_idx = np.array([2], dtype=np.int64)
    data = np.array([4.0])
    y = kernels.csr_spmv(row_ptr, col_idx, data, np.array([1.0, 1.0, 2.0]))
    np.testing.assert_allclose(y, [0.0, 8.0, 0.0])


def test_scipy_cross_check(case):
    dense, coo, x = case
    ref = coo.to_scipy() @ x
    y = kernels.coo_spmv(coo.nrows, coo.row, coo.col, coo.data, x)
    np.testing.assert_allclose(y, ref)
