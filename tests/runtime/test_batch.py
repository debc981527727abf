"""Batched multi-vector SpMV: agreement, edge shapes, solver routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.formats import COOMatrix, DynamicMatrix, convert
from repro.runtime.batch import (
    batched_spmv,
    block_operator,
    have_accelerator,
    matvec,
)
from repro.runtime.registry import REGISTRY

from tests.conftest import ALL_FORMATS, random_sparse_dense

#: ``True`` runs the batch dispatch (the cached compiled operator when
#: scipy is present); ``False`` the registry's NumPy block kernel that
#: the dispatch falls back to without scipy.
DISPATCHED = [True, False]


def spmm(matrix, X, dispatched):
    if dispatched:
        return batched_spmv(matrix, X)
    return REGISTRY.get("spmm", matrix.format)(matrix, X)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("dispatched", DISPATCHED)
class TestAgreement:
    def test_matches_scipy(self, fmt, dispatched, dense_medium, rng):
        m = convert(COOMatrix.from_dense(dense_medium), fmt)
        X = rng.standard_normal((m.ncols, 7))
        ref = m.to_scipy() @ X
        np.testing.assert_allclose(
            spmm(m, X, dispatched), ref, atol=1e-12
        )

    def test_matches_per_vector_spmv(self, fmt, dispatched, dense_medium, rng):
        m = convert(COOMatrix.from_dense(dense_medium), fmt)
        X = rng.standard_normal((m.ncols, 5))
        ref = np.column_stack([m.spmv(X[:, j]) for j in range(5)])
        np.testing.assert_allclose(
            spmm(m, X, dispatched), ref, atol=1e-12
        )

    def test_rectangular(self, fmt, dispatched, dense_rect, rng):
        m = convert(COOMatrix.from_dense(dense_rect), fmt)
        X = rng.standard_normal((m.ncols, 3))
        np.testing.assert_allclose(
            spmm(m, X, dispatched),
            dense_rect @ X,
            atol=1e-12,
        )


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("dispatched", DISPATCHED)
class TestEdgeShapes:
    def test_empty_rows(self, fmt, dispatched, rng):
        dense = random_sparse_dense(rng, 16, 16, 0.15)
        dense[3] = 0.0
        dense[9] = 0.0
        m = convert(COOMatrix.from_dense(dense), fmt)
        X = rng.standard_normal((16, 4))
        np.testing.assert_allclose(
            spmm(m, X, dispatched), dense @ X, atol=1e-12
        )

    def test_empty_matrix(self, fmt, dispatched):
        m = convert(COOMatrix.from_dense(np.zeros((5, 4))), fmt)
        X = np.ones((4, 3))
        Y = spmm(m, X, dispatched)
        np.testing.assert_array_equal(Y, np.zeros((5, 3)))

    def test_single_column_block(self, fmt, dispatched, dense_small, rng):
        m = convert(COOMatrix.from_dense(dense_small), fmt)
        x = rng.standard_normal(m.ncols)
        Y = spmm(m, x[:, None], dispatched)
        np.testing.assert_allclose(Y[:, 0], m.spmv(x), atol=1e-12)


class TestValidation:
    def test_rejects_wrong_row_count(self, coo_small):
        with pytest.raises(ShapeError):
            batched_spmv(coo_small, np.ones((coo_small.ncols + 1, 2)))

    def test_rejects_1d_block(self, coo_small):
        with pytest.raises(ShapeError):
            batched_spmv(coo_small, np.ones(coo_small.ncols))

    def test_matvec_accepts_both_shapes(self, coo_small, dense_small, rng):
        x = rng.standard_normal(12)
        np.testing.assert_allclose(matvec(coo_small, x), dense_small @ x)
        X = rng.standard_normal((12, 3))
        np.testing.assert_allclose(
            matvec(coo_small, X), dense_small @ X, atol=1e-12
        )

    def test_matvec_rejects_wrong_length(self, coo_small):
        with pytest.raises(ValidationError):
            matvec(coo_small, np.ones(13))


class TestOperatorCache:
    def test_operator_cached_per_container(self, coo_small):
        if not have_accelerator():
            pytest.skip("scipy not available")
        assert block_operator(coo_small) is block_operator(coo_small)

    def test_dynamic_switch_changes_operator(self, coo_small):
        if not have_accelerator():
            pytest.skip("scipy not available")
        dyn = DynamicMatrix(coo_small)
        op_coo = block_operator(dyn)
        dyn.switch("CSR")
        assert block_operator(dyn) is not op_coo


class TestSolverRouting:
    """Solvers route their hot loops through the runtime executor."""

    def _spd(self, rng, n=24):
        q = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        dense = q @ q.T + n * np.eye(n)
        return dense, COOMatrix.from_dense(dense)

    def test_block_cg_matches_columnwise(self, rng):
        from repro.solvers import conjugate_gradient

        dense, m = self._spd(rng)
        B = rng.standard_normal((24, 3))
        block = conjugate_gradient(m, B, tol=1e-10)
        assert block.converged
        assert block.x.shape == (24, 3)
        np.testing.assert_allclose(block.x, np.linalg.solve(dense, B), atol=1e-6)
        single = conjugate_gradient(m, B[:, 0], tol=1e-10)
        np.testing.assert_allclose(block.x[:, 0], single.x, atol=1e-6)

    def test_block_jacobi_matches_columnwise(self, rng):
        from repro.solvers import jacobi

        n = 20
        dense = np.diag(np.full(n, 4.0))
        idx = np.arange(n - 1)
        dense[idx, idx + 1] = -1.0
        dense[idx + 1, idx] = -1.0
        m = COOMatrix.from_dense(dense)
        B = rng.standard_normal((n, 2))
        block = jacobi(m, B, tol=1e-10)
        assert block.converged
        np.testing.assert_allclose(block.x, np.linalg.solve(dense, B), atol=1e-7)

    def test_power_iteration_still_converges(self, rng):
        from repro.solvers import power_iteration

        dense, m = self._spd(rng)
        res = power_iteration(m, tol=1e-10)
        assert res.converged
        lam = np.linalg.eigvalsh(dense).max()
        assert res.eigenvalue == pytest.approx(lam, rel=1e-6)
