"""Tests for format-agnostic SpMV: container dispatch and iteration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import COOMatrix, DynamicMatrix, convert
from repro.runtime.batch import spmv_iterations

from tests.conftest import ALL_FORMATS


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmv_dispatch_all_formats(fmt, dense_small, rng):
    m = convert(COOMatrix.from_dense(dense_small), fmt)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(m.spmv(x), dense_small @ x)


def test_spmv_dynamic_matrix(dense_small, rng):
    dyn = DynamicMatrix(COOMatrix.from_dense(dense_small))
    dyn.switch("ELL")
    x = rng.standard_normal(12)
    np.testing.assert_allclose(dyn.spmv(x), dense_small @ x)


def test_iterations_match_matrix_power(dense_small, rng):
    m = COOMatrix.from_dense(dense_small * 0.1)  # scale to avoid blow-up
    x = rng.standard_normal(12)
    y = spmv_iterations(m, x, iterations=3)
    dense = dense_small * 0.1
    np.testing.assert_allclose(y, dense @ (dense @ (dense @ x)), atol=1e-9)


def test_iterations_one_equals_spmv(coo_small, rng):
    x = rng.standard_normal(12)
    np.testing.assert_allclose(
        spmv_iterations(coo_small, x, iterations=1), coo_small.spmv(x)
    )


def test_iterations_require_square(dense_rect):
    m = COOMatrix.from_dense(dense_rect)
    with pytest.raises(ValidationError):
        spmv_iterations(m, np.ones(35), iterations=2)


def test_iterations_require_positive_count(coo_small):
    with pytest.raises(ValidationError):
        spmv_iterations(coo_small, np.ones(12), iterations=0)
