"""Batched multi-vector SpMV: agreement, edge shapes, solver routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generators import block_diagonal
from repro.errors import ShapeError, ValidationError
from repro.formats import COOMatrix, DIAMatrix, DynamicMatrix, convert
from repro.runtime.batch import (
    BlockOperator,
    batched_spmv,
    block_operator,
    cached_operator,
    have_accelerator,
    matvec,
)
from repro.storage.stream import mmap_backed
from repro.storage.tier import StorageTier
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


def _own_kernel_case(name, fmt, tmp_path):
    """A container in *fmt* for the own-kernel identity checks."""
    rng = np.random.default_rng(41)

    def sparse(shape):
        return (rng.random(shape) < 0.2) * rng.standard_normal(shape)

    if name == "in-band-zeros":  # stored zeros inside DIA's band
        n = 24
        data = rng.standard_normal((3, n))
        data[:, ::5] = 0.0
        dia = DIAMatrix(n, n, np.array([-1, 0, 1]), data)
        return dia if fmt == "DIA" else convert(dia, fmt)
    if name == "padded":  # many padded DIA slots per stored entry
        return convert(block_diagonal(64, block=8, fill=0.6, seed=3), fmt)
    if name == "empty-rows":
        dense = sparse((30, 30))
        dense[[0, 7, 8, 29]] = 0.0
    else:
        dense = sparse({"square": (40, 40), "wide": (17, 45),
                        "tall": (45, 17), "mmap": (37, 33)}[name])
    m = convert(COOMatrix.from_dense(dense), fmt)
    if name == "mmap":
        tier = StorageTier(str(tmp_path / "tier"))
        tier.demote("k", m)
        m = tier.promote("k")
        assert mmap_backed(m)
    return m


@pytest.mark.skipif(not have_accelerator(), reason="needs scipy")
@pytest.mark.parametrize("k", [None, 1, 4, 8], ids=["spmv", "k1", "k4", "k8"])
@pytest.mark.parametrize(
    "case",
    ["square", "wide", "tall", "empty-rows", "padded", "in-band-zeros", "mmap"],
)
@pytest.mark.parametrize("fmt", ["DIA", "COO"])
def test_own_kernel_equals_the_csr_image(fmt, case, k, tmp_path):
    """DIA and COO run scipy's kernel for their own format, on their own
    arrays, bit for bit what the CSR image computes; nothing is built
    or cached for them, and a stacked block equals its columns."""
    m = _own_kernel_case(case, fmt, tmp_path)
    assert m.format == fmt
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m.ncols if k is None else (m.ncols, k))
    got = matvec(m, x)
    assert np.array_equal(got, BlockOperator(m).apply(x))
    assert cached_operator(m) is None
    if k is not None:
        for j in range(k):
            assert np.array_equal(got[:, j], matvec(m, x[:, j]))


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
