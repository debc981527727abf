"""Batched multi-vector SpMV: agreement, edge shapes, solver routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.datasets.generators import block_diagonal
from repro.errors import ShapeError, ValidationError
from repro.formats import COOMatrix, CSRMatrix, DIAMatrix, DynamicMatrix, convert
from repro.machine.cost_model import spmm_time_factor
from repro.runtime.batch import (
    _IMAGES,
    OWN_KERNELS,
    batched_spmv,
    have_accelerator,
    matvec,
)
from repro.runtime.engine import WorkloadEngine, matrix_fingerprint
from repro.storage.stream import mmap_backed, plan_block_rows
from repro.storage.tier import StorageTier
from repro.runtime.registry import REGISTRY

from tests.conftest import ALL_FORMATS, random_sparse_dense

#: ``True`` runs the batch dispatch (scipy's compiled kernels when scipy
#: is present); ``False`` the registry's NumPy block kernel that the
#: dispatch falls back to without scipy.
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
    """A direct call on an ELL, HYB or HDC container runs through a CSR
    image built once per container (the private ``_IMAGES`` memo)."""

    def test_operator_cached_per_container(self, coo_small):
        if not have_accelerator():
            pytest.skip("scipy not available")
        ell = convert(coo_small, "ELL")
        assert _IMAGES.get(ell) is None
        matvec(ell, np.ones(ell.ncols))
        image = _IMAGES.get(ell)
        assert isinstance(image, CSRMatrix)
        matvec(ell, np.ones(ell.ncols))
        assert _IMAGES.get(ell) is image

    def test_dynamic_switch_changes_operator(self, coo_small):
        if not have_accelerator():
            pytest.skip("scipy not available")
        dyn = DynamicMatrix(coo_small)
        dyn.switch("ELL")
        matvec(dyn, np.ones(dyn.ncols))
        op_ell = _IMAGES.get(dyn.concrete)
        dyn.switch("HYB")
        matvec(dyn, np.ones(dyn.ncols))
        assert _IMAGES.get(dyn.concrete) is not op_ell
        dyn.switch("CSR")  # runs its own arrays: no image
        matvec(dyn, np.ones(dyn.ncols))
        assert _IMAGES.get(dyn.concrete) is None


def _image_reference(m):
    """What the dispatch served before CSR ran its own arrays: scipy's
    CSR product on the container's own triple for CSR, and on a CSR
    matrix built from the canonical COO view for every other format."""
    import scipy.sparse as sp

    if m.format == "CSR":
        return sp.csr_matrix((m.data, m.col_idx, m.row_ptr), shape=m.shape)
    coo = m.to_coo()
    return sp.csr_matrix(
        sp.coo_matrix((coo.data, (coo.row, coo.col)), shape=coo.shape)
    )


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
    if name == "unsorted":  # columns out of order within each row
        csr = convert(COOMatrix.from_dense(sparse((36, 28))), "CSR")
        col_idx = csr.col_idx.copy()
        for i in range(csr.nrows):
            lo, hi = csr.row_ptr[i], csr.row_ptr[i + 1]
            col_idx[lo:hi] = col_idx[lo:hi][::-1]
        m = CSRMatrix(csr.nrows, csr.ncols, csr.row_ptr, col_idx, csr.data)
        return m if fmt == "CSR" else convert(m, fmt)
    if name == "empty-rows":
        dense = sparse((30, 30))
        dense[[0, 7, 8, 29]] = 0.0
    else:
        dense = sparse({"square": (40, 40), "wide": (17, 45),
                        "tall": (45, 17), "mmap": (37, 33)}[name])
    m = convert(COOMatrix.from_dense(dense), fmt)
    if name == "mmap":  # promoted from a storage tier as mmap views
        tier = StorageTier(str(tmp_path / "tier"))
        tier.demote("k", m)
        m = tier.promote("k")
        assert mmap_backed(m)
    return m


@pytest.mark.skipif(not have_accelerator(), reason="needs scipy")
@pytest.mark.parametrize("k", [None, 1, 4, 8], ids=["spmv", "k1", "k4", "k8"])
@pytest.mark.parametrize(
    "case",
    ["square", "wide", "tall", "empty-rows", "padded", "in-band-zeros", "mmap",
     "unsorted"],
)
@pytest.mark.parametrize("fmt", ["DIA", "COO", "CSR", "ELL", "HYB", "HDC"])
def test_own_kernel_equals_the_csr_image(fmt, case, k, tmp_path):
    """CSR, DIA and COO run scipy's kernel for their own format, on their
    own arrays, and ELL, HYB and HDC run the CSR kernel on their cached
    CSR image: bit for bit what scipy's CSR product computes.  Nothing
    is built or cached for an own-kernel format, and a stacked block
    equals its columns."""
    m = _own_kernel_case(case, fmt, tmp_path)
    assert m.format == fmt
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m.ncols if k is None else (m.ncols, k))
    got = matvec(m, x)
    assert np.array_equal(got, _image_reference(m) @ x)
    image = _IMAGES.get(m)
    if fmt in OWN_KERNELS:
        assert image is None
    else:
        assert image.format == "CSR"
        want = convert(m, "CSR")
        assert np.array_equal(image.row_ptr, want.row_ptr)
        assert np.array_equal(image.col_idx, want.col_idx)
        assert np.array_equal(image.data, want.data)
    if k is not None:
        for j in range(k):
            assert np.array_equal(got[:, j], matvec(m, x[:, j]))


@pytest.mark.skipif(not have_accelerator(), reason="needs scipy")
@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "k4"])
@pytest.mark.parametrize(
    "case",
    ["square", "wide", "tall", "empty-rows", "padded", "in-band-zeros", "mmap",
     "unsorted"],
)
@pytest.mark.parametrize("source", ["DIA", "COO", "CSR", "ELL", "HYB", "HDC"])
@pytest.mark.parametrize("decided", ["ELL", "HYB", "HDC"])
def test_decision_without_own_kernel_serves_the_image_bits(
    decided, source, case, k, tmp_path
):
    """An ELL, HYB or HDC decision is served by a CSR container through
    scipy's CSR kernel, labelled and priced as decided: the ``y`` the CSR
    image of the decided container gave, bit for bit.  A column-unsorted
    CSR request is served as it is, so it gives what a CSR decision on
    it gives."""
    m = _own_kernel_case(case, source, tmp_path)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m.ncols if k is None else (m.ncols, k))
    engine = WorkloadEngine(
        make_space("cirrus", "serial"), RunFirstTuner(formats=(decided,))
    )
    got = engine.execute(m, x, key="k")
    assert (got.format, got.backend) == (decided, "scipy.csr")
    assert engine.serving_container("k").format == "CSR"
    price = engine.space.time_spmv(
        engine.stats_for(m, key="k"), decided, matrix_key="k"
    )
    assert got.seconds == spmm_time_factor(1 if k is None else k) * price
    if case == "unsorted" and source == "CSR":
        want = matvec(m, x)
    else:
        want = matvec(convert(convert(m, decided), "CSR"), x)
    assert np.array_equal(got.y, want)


@pytest.mark.skipif(not have_accelerator(), reason="needs scipy")
@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "k4"])
def test_streamed_request_over_many_panels_is_bitwise(k, tmp_path):
    """A promoted mmap-backed CSR container served by row panels gives
    the bits of the whole-matrix call on its own arrays."""
    rng = np.random.default_rng(13)
    dense = (rng.random((150, 90)) < 0.1) * rng.standard_normal((150, 90))
    tier = StorageTier(str(tmp_path / "tier"))
    tier.demote("k", convert(COOMatrix.from_dense(dense), "CSR"))
    m = tier.promote("k")
    block_bytes = 1 << 10
    assert -(-m.nrows // plan_block_rows(m, block_bytes)) > 1
    engine = WorkloadEngine(
        make_space("cirrus", "serial"),
        RunFirstTuner(formats=("CSR",)),
        stream_threshold_bytes=0,
        stream_block_bytes=block_bytes,
    )
    engine.adopt_prepared("k", m)
    x = rng.standard_normal(m.ncols if k is None else (m.ncols, k))
    got = engine.execute(m, x, key="k").y
    assert engine.streaming["blocks"] > engine.streaming["requests"] == 1
    assert np.array_equal(got, matvec(m, x))
    assert np.array_equal(got, _image_reference(m) @ x)


class TestCSRIndexWidth:
    def test_int32_when_shape_and_nnz_fit(self, coo_small):
        csr = convert(coo_small, "CSR")
        assert csr.row_ptr.dtype == csr.col_idx.dtype == np.int32
        wide = CSRMatrix(
            csr.nrows, csr.ncols, csr.row_ptr.astype(np.int64),
            csr.col_idx.astype(np.int64), csr.data,
        )
        assert wide.row_ptr.dtype == wide.col_idx.dtype == np.int32

    def test_ncols_past_int32_keeps_int64(self):
        ncols = 2**31  # one past int32's largest value
        csr = CSRMatrix(
            3, ncols, np.array([0, 1, 1, 2]), np.array([5, ncols - 1]),
            np.array([1.0, 2.0]),
        )
        assert csr.row_ptr.dtype == csr.col_idx.dtype == np.int64
        assert csr.col_idx[-1] == ncols - 1

    def test_checked_before_narrowing(self):
        # an int64 column index that would wrap into range as int32
        with pytest.raises(ValidationError):
            CSRMatrix(2, 4, np.array([0, 1, 1]), np.array([2**32 + 1]),
                      np.array([1.0]))

    def test_fingerprint_unchanged_by_width(self):
        """Index arrays hash as int64: the digest is the one the int64
        layout gave (pinned from the layout before CSR narrowed)."""
        rng = np.random.default_rng(0)
        dense = (rng.random((40, 33)) < 0.2) * rng.standard_normal((40, 33))
        dense[5] = 0.0
        csr = convert(COOMatrix.from_dense(dense), "CSR")
        assert csr.col_idx.dtype == np.int32
        assert matrix_fingerprint(csr) == "bf0468e2687683809500d94452b6f65c"


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
