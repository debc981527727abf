"""Unit tests for the DIA container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import COOMatrix, DIAMatrix


def build(dense: np.ndarray) -> DIAMatrix:
    return DIAMatrix.from_coo(COOMatrix.from_dense(dense))


def tridiag(n: int) -> np.ndarray:
    return (
        np.diag(2.0 * np.ones(n))
        + np.diag(-np.ones(n - 1), 1)
        + np.diag(-np.ones(n - 1), -1)
    )


class TestConstruction:
    def test_roundtrip_tridiagonal(self):
        d = tridiag(8)
        np.testing.assert_allclose(build(d).to_dense(), d)

    def test_roundtrip_random(self, dense_small):
        np.testing.assert_allclose(build(dense_small).to_dense(), dense_small)

    def test_ndiags_tridiagonal(self):
        assert build(tridiag(8)).ndiags == 3

    def test_offsets_sorted(self, dense_medium):
        dia = build(dense_medium)
        assert (np.diff(dia.offsets) > 0).all()

    def test_scipy_equivalence(self, dense_small):
        dia = build(dense_small)
        import scipy.sparse as sp

        ref = sp.coo_matrix(dense_small).todia()
        ref_offsets = np.sort(ref.offsets)
        np.testing.assert_array_equal(dia.offsets, ref_offsets)

    def test_unsorted_offsets_raise(self):
        with pytest.raises(ValidationError):
            DIAMatrix(3, 3, [1, 0], np.zeros((2, 3)))

    def test_offsets_out_of_range_raise(self):
        with pytest.raises(ValidationError):
            DIAMatrix(3, 3, [5], np.zeros((1, 3)))

    def test_data_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            DIAMatrix(3, 3, [0], np.zeros((2, 3)))

    def test_data_ncols_mismatch_raises(self):
        with pytest.raises(ValidationError):
            DIAMatrix(3, 3, [0], np.zeros((1, 5)))

    def test_padding_slots_are_zeroed(self):
        # write garbage into padding position (0) of the +1 diagonal
        data = np.full((1, 3), 7.0)
        dia = DIAMatrix(3, 3, [1], data)
        assert dia.data[0, 0] == 0.0  # column 0 cannot host offset +1
        assert dia.nnz == 2

    @pytest.mark.parametrize("shape", [(4, 7), (7, 4)], ids=["wide", "tall"])
    def test_padding_mask_matches_per_diagonal_loop(self, shape, rng):
        nrows, ncols = shape
        # extreme in-range offsets hold a single slot each
        offsets = np.array([-(nrows - 1), -2, 0, 1, ncols - 1])
        junk = rng.standard_normal((offsets.size, ncols))  # padding too
        want = junk.copy()
        dense = np.zeros(shape)
        for k, off in enumerate(offsets):
            j_lo, j_hi = max(0, off), min(ncols, nrows + off)
            want[k, :j_lo] = 0.0
            want[k, max(j_lo, j_hi):] = 0.0
            for j in range(j_lo, j_hi):
                dense[j - off, j] = want[k, j]
        dia = DIAMatrix(nrows, ncols, offsets, junk)
        np.testing.assert_array_equal(dia.data, want)
        assert dia.nnz == np.count_nonzero(want) == np.count_nonzero(dense)
        coo = dia.to_coo()
        assert coo.nnz == dia.nnz
        np.testing.assert_array_equal(coo.to_dense(), dense)
        # a clean read-only buffer (an mmap view) needs no write
        want.setflags(write=False)
        clean = DIAMatrix(nrows, ncols, offsets, want)
        np.testing.assert_array_equal(clean.data, want)
        # out-of-range offsets never reach the mask
        for bad in (-nrows, ncols):
            with pytest.raises(ValidationError):
                DIAMatrix(nrows, ncols, [bad], np.ones((1, ncols)))

    def test_rectangular_wide(self):
        d = np.zeros((3, 6))
        d[0, 3] = 1.0
        d[1, 4] = 2.0
        d[2, 5] = 3.0
        np.testing.assert_allclose(build(d).to_dense(), d)

    def test_rectangular_tall(self):
        d = np.zeros((6, 3))
        d[3, 0] = 1.0
        d[4, 1] = 2.0
        np.testing.assert_allclose(build(d).to_dense(), d)


class TestSpMV:
    def test_matches_dense_tridiag(self, rng):
        d = tridiag(16)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(build(d).spmv(x), d @ x)

    def test_matches_dense_random(self, dense_small, rng):
        x = rng.standard_normal(12)
        np.testing.assert_allclose(build(dense_small).spmv(x), dense_small @ x)

    def test_matches_scipy(self, dense_medium, rng):
        dia = build(dense_medium)
        x = rng.standard_normal(60)
        np.testing.assert_allclose(dia.spmv(x), dia.to_scipy() @ x)

    def test_rectangular(self, dense_rect, rng):
        x = rng.standard_normal(35)
        np.testing.assert_allclose(build(dense_rect).spmv(x), dense_rect @ x)

    def test_empty(self):
        dia = DIAMatrix(4, 4, np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
        np.testing.assert_allclose(dia.spmv(np.ones(4)), np.zeros(4))


class TestStatistics:
    def test_row_nnz(self, dense_small):
        expected = (dense_small != 0).sum(axis=1)
        np.testing.assert_array_equal(build(dense_small).row_nnz(), expected)

    def test_diagonal_nnz_tridiag(self):
        diag = build(tridiag(8)).diagonal_nnz()
        assert sorted(diag.tolist()) == [7, 7, 8]

    def test_padded_size(self):
        dia = build(tridiag(8))
        assert dia.padded_size() == 3 * 8

    def test_nnz_excludes_padding(self):
        dia = build(tridiag(8))
        assert dia.nnz == 8 + 7 + 7

    def test_nbytes_includes_padding(self):
        dia = build(tridiag(8))
        assert dia.nbytes() == 3 * 8 * 8 + 3 * 8
