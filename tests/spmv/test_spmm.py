"""Tests for the SpMM (block SpMV) operation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.formats import COOMatrix, DynamicMatrix, convert
from repro.machine.cost_model import spmm_time_factor
from repro.runtime.batch import batched_spmv, validate_operand
from repro.runtime.registry import REGISTRY

from tests.conftest import ALL_FORMATS


def spmm(matrix, X):
    """The registry's NumPy block kernel (no scipy operator)."""
    m = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
    return REGISTRY.get("spmm", m.format)(m, validate_operand(m, X))


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("k", [1, 3, 7])
def test_spmm_matches_dense(fmt, k, dense_medium, rng):
    m = convert(COOMatrix.from_dense(dense_medium), fmt)
    X = rng.standard_normal((60, k))
    np.testing.assert_allclose(spmm(m, X), dense_medium @ X, atol=1e-10)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmm_columns_match_spmv(fmt, dense_small, rng):
    m = convert(COOMatrix.from_dense(dense_small), fmt)
    X = rng.standard_normal((12, 4))
    Y = spmm(m, X)
    for j in range(4):
        np.testing.assert_allclose(Y[:, j], m.spmv(X[:, j]), atol=1e-10)


def test_spmm_dynamic_matrix(dense_small, rng):
    dyn = DynamicMatrix(COOMatrix.from_dense(dense_small)).switch("HYB")
    X = rng.standard_normal((12, 3))
    np.testing.assert_allclose(spmm(dyn, X), dense_small @ X, atol=1e-10)


def test_spmm_rectangular(dense_rect, rng):
    m = COOMatrix.from_dense(dense_rect)
    X = rng.standard_normal((35, 5))
    np.testing.assert_allclose(spmm(m, X), dense_rect @ X, atol=1e-10)


def test_spmm_empty_matrix():
    m = COOMatrix(4, 6, [], [], [])
    Y = spmm(m, np.ones((6, 2)))
    np.testing.assert_allclose(Y, np.zeros((4, 2)))


def test_spmm_rejects_1d(coo_small):
    with pytest.raises(ShapeError):
        batched_spmv(coo_small, np.ones(12))


def test_spmm_rejects_wrong_rows(coo_small):
    with pytest.raises(ShapeError):
        spmm(coo_small, np.ones((13, 2)))


class TestTimeFactor:
    def test_single_vector_below_one_plus(self):
        assert spmm_time_factor(1) == pytest.approx(1.0)

    def test_monotone_in_k(self):
        factors = [spmm_time_factor(k) for k in (1, 2, 4, 8, 16)]
        assert factors == sorted(factors)

    def test_sublinear_in_k(self):
        """Amortised matrix traffic => k vectors cost less than k SpMVs."""
        assert spmm_time_factor(8) < 8.0

    def test_invalid_k_raises(self):
        with pytest.raises(ShapeError):
            spmm_time_factor(0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=1, max_value=6),
    fmt=st.sampled_from(ALL_FORMATS),
)
def test_spmm_property_random(seed, k, fmt):
    rng = np.random.default_rng(seed)
    nrows = int(rng.integers(1, 20))
    ncols = int(rng.integers(1, 20))
    dense = (rng.random((nrows, ncols)) < 0.3) * rng.standard_normal(
        (nrows, ncols)
    )
    m = convert(COOMatrix.from_dense(dense), fmt)
    X = rng.standard_normal((ncols, k))
    np.testing.assert_allclose(spmm(m, X), dense @ X, atol=1e-9)
