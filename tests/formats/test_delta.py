"""Delta overlays: MatrixDelta folding, sorted merge, mutation API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import COOMatrix, convert
from repro.formats.delta import (
    OP_ADD,
    OP_DEL,
    OP_SET,
    DeltaOverlay,
    MatrixDelta,
    apply_delta,
    merge_keyed,
)


@pytest.fixture
def base():
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [4.0, 0.0, 5.0, 6.0],
            [0.0, 0.0, 0.0, 7.0],
        ]
    )
    return COOMatrix.from_dense(dense)


def _dense_of(coo: COOMatrix) -> np.ndarray:
    out = np.zeros(coo.shape)
    out[coo.row, coo.col] = coo.data
    return out


class TestMatrixDelta:
    def test_parallel_length_validation(self):
        with pytest.raises(ValidationError):
            MatrixDelta.from_ops([0, 1], [0], [1.0], [OP_SET])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError):
            MatrixDelta.from_ops([0], [0], [1.0], [7])

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            MatrixDelta.sets([-1], [0], [1.0])

    def test_bounds_check(self, base):
        delta = MatrixDelta.sets([9], [0], [1.0])
        with pytest.raises(ValidationError):
            delta.check_bounds(base.nrows, base.ncols)

    def test_canonical_sorts_row_major(self):
        d = MatrixDelta.sets([2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0]).canonical()
        assert d.is_canonical
        assert list(d.row) == [0, 1, 2]
        assert list(d.col) == [1, 2, 0]

    def test_canonical_folds_duplicates_sequentially(self):
        # set 1 -> add 2 -> folds to set 3; del -> add 4 -> folds to set 4
        d = MatrixDelta.from_ops(
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [1.0, 2.0, 0.0, 4.0],
            [OP_SET, OP_ADD, OP_DEL, OP_ADD],
        ).canonical()
        assert len(d) == 2
        assert list(d.op) == [OP_SET, OP_SET]
        assert list(d.value) == [3.0, 4.0]

    def test_canonical_last_set_wins(self):
        d = MatrixDelta.from_ops(
            [0, 0, 0],
            [0, 0, 0],
            [1.0, 9.0, 0.0],
            [OP_SET, OP_SET, OP_DEL],
        ).canonical()
        assert len(d) == 1
        assert d.op[0] == OP_DEL

    def test_add_runs_accumulate(self):
        d = MatrixDelta.adds([0, 0, 0], [0, 0, 0], [1.0, 2.0, 3.0]).canonical()
        assert len(d) == 1
        assert d.op[0] == OP_ADD
        assert d.value[0] == 6.0


class TestApplyDelta:
    def test_set_add_delete(self, base):
        overlay = DeltaOverlay()
        overlay.set(0, 0, 10.0)  # overwrite existing
        overlay.add(1, 1, 1.0)  # accumulate onto existing
        overlay.set(3, 0, 8.0)  # insert
        overlay.delete(2, 3)  # remove existing
        merged, effect = apply_delta(base, overlay.to_delta())
        expected = _dense_of(base).copy()
        expected[0, 0] = 10.0
        expected[1, 1] += 1.0
        expected[3, 0] = 8.0
        expected[2, 3] = 0.0
        np.testing.assert_array_equal(_dense_of(merged), expected)
        assert merged.nnz == base.nnz  # one insert, one delete
        assert effect.nnz_change == 0
        assert effect.values_changed == 2
        assert effect.structural

    def test_delete_missing_is_noop(self, base):
        merged, effect = apply_delta(base, MatrixDelta.deletes([0], [1]))
        assert merged.nnz == base.nnz
        assert effect.noop_deletes == 1
        assert not effect.structural

    def test_add_inserts_when_absent(self, base):
        merged, _ = apply_delta(base, MatrixDelta.adds([0], [3], [2.5]))
        assert _dense_of(merged)[0, 3] == 2.5

    def test_empty_delta_returns_base(self, base):
        merged, effect = apply_delta(base, DeltaOverlay().to_delta())
        assert merged is base
        assert effect.nnz_change == 0

    def test_result_is_canonical(self, base):
        rng = np.random.default_rng(5)
        overlay = DeltaOverlay()
        overlay.set_many(
            rng.integers(0, 4, 10), rng.integers(0, 4, 10),
            rng.standard_normal(10),
        )
        merged, _ = apply_delta(base, overlay.to_delta())
        key = merged.row * merged.ncols + merged.col
        assert np.all(np.diff(key) > 0)

    def test_out_of_bounds_rejected(self, base):
        with pytest.raises(ValidationError):
            apply_delta(base, MatrixDelta.sets([4], [0], [1.0]))

    def test_empty_base(self):
        empty = COOMatrix.from_dense(np.zeros((3, 3)))
        merged, effect = apply_delta(empty, MatrixDelta.sets([1], [2], [4.0]))
        assert merged.nnz == 1
        assert _dense_of(merged)[1, 2] == 4.0
        assert effect.nnz_change == 1

    def test_set_zero_stores_explicit_zero(self, base):
        merged, _ = apply_delta(base, MatrixDelta.sets([0], [0], [0.0]))
        assert merged.nnz == base.nnz  # entry kept, value zero
        assert _dense_of(merged)[0, 0] == 0.0


class TestMergeKeyed:
    def test_value_only_shares_structure(self, base):
        span = np.int64(base.ncols)
        key = base.row * span + base.col
        d = MatrixDelta.sets([0], [0], [9.0])
        k2, c2, d2, effect = merge_keyed(
            base.nrows, base.ncols, key, base.col, base.data, d
        )
        assert k2 is key and c2 is base.col
        assert d2[0] == 9.0
        assert not effect.structural

    def test_matches_apply_delta(self, base):
        rng = np.random.default_rng(11)
        d = MatrixDelta.from_ops(
            rng.integers(0, 4, 12), rng.integers(0, 4, 12),
            rng.standard_normal(12), rng.integers(0, 3, 12),
        )
        merged, _ = apply_delta(base, d)
        span = np.int64(base.ncols)
        k2, c2, d2, _ = merge_keyed(
            base.nrows, base.ncols,
            base.row * span + base.col, base.col, base.data, d,
        )
        np.testing.assert_array_equal(k2, merged.row * span + merged.col)
        np.testing.assert_array_equal(c2, merged.col)
        np.testing.assert_array_equal(d2, merged.data)

    def test_structural_merge_keeps_column_width_and_inputs(self, base):
        """A set, an add, a delete and an insert in one delta: the merged
        column array keeps an int32 input's width, matched values land at
        their merged slots, and no input array is written."""
        span = np.int64(base.ncols)
        key = base.row * span + base.col
        col = base.col.astype(np.int32)
        data = base.data.copy()
        d = MatrixDelta.from_ops(
            [0, 2, 1, 3], [0, 2, 1, 0], [9.0, 0.5, 0.0, 8.0],
            [OP_SET, OP_ADD, OP_DEL, OP_SET],
        )
        k2, c2, d2, effect = merge_keyed(
            base.nrows, base.ncols, key, col, data, d
        )
        merged, _ = apply_delta(base, d)
        assert c2.dtype == np.int32
        np.testing.assert_array_equal(k2, merged.row * span + merged.col)
        np.testing.assert_array_equal(c2, merged.col)
        assert d2.tobytes() == merged.data.tobytes()
        assert _dense_of(merged)[2, 2] == 5.5
        assert data.tobytes() == base.data.tobytes()
        assert effect.nnz_change == 0 and effect.values_changed == 2


class TestDeltaOverlay:
    def test_len_counts_ops(self):
        overlay = DeltaOverlay().set(0, 0, 1.0).add(1, 1, 2.0)
        overlay.delete_many([2, 3], [2, 3])
        assert len(overlay) == 4
        overlay.clear()
        assert len(overlay) == 0

    def test_vector_length_mismatch(self):
        with pytest.raises(ValidationError):
            DeltaOverlay().set_many([0, 1], [0], [1.0, 2.0])

    def test_extend_preserves_order(self, base):
        first = MatrixDelta.sets([0], [0], [5.0])
        overlay = DeltaOverlay().extend(first)
        overlay.delete(0, 0)
        merged, _ = apply_delta(base, overlay.to_delta())
        assert _dense_of(merged)[0, 0] == 0.0
        assert merged.nnz == base.nnz - 1

    def test_compact_returns_epoch_successor(self, base):
        overlay = DeltaOverlay().set(3, 0, 1.0)
        successor = overlay.compact(base)
        assert successor.epoch == base.epoch + 1
        assert successor.stable_id == base.stable_id
        assert successor.format == base.format
        assert successor.nnz == base.nnz + 1
        assert base.nnz == 7  # receiver untouched

    def test_compact_to_other_format(self, base):
        successor = DeltaOverlay().set(3, 0, 1.0).compact(base, format="CSR")
        assert successor.format == "CSR"
        assert successor.epoch == 1


class TestWithUpdates:
    def test_epoch_chain(self, base):
        one = base.with_updates(MatrixDelta.sets([0], [1], [1.0]))
        two = one.with_updates(MatrixDelta.deletes([0], [1]))
        assert (base.epoch, one.epoch, two.epoch) == (0, 1, 2)
        assert base.stable_id == one.stable_id == two.stable_id
        np.testing.assert_array_equal(_dense_of(two.to_coo()), _dense_of(base))

    def test_empty_delta_never_aliases_receiver(self, base):
        successor = base.with_updates(DeltaOverlay().to_delta())
        assert successor is not base
        assert successor.epoch == 1
        assert base.epoch == 0

    def test_works_from_every_format(self, base):
        delta = MatrixDelta.sets([1], [0], [2.0])
        expected = _dense_of(base).copy()
        expected[1, 0] = 2.0
        for fmt in ("COO", "CSR", "DIA", "ELL", "HYB", "HDC"):
            container = convert(base, fmt)
            successor = container.with_updates(delta)
            assert successor.format == fmt
            np.testing.assert_allclose(
                _dense_of(successor.to_coo()), expected
            )
