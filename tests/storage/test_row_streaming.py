"""Row-block streaming SpMV/SpMM: bitwise identity with the in-RAM path.

The streaming contract is not "close": streaming must reproduce the
exact bits the full-matrix reference kernel produces, for every panel
size.  That kernel is a *global* prefix sum, replayed by carry-seeding
each panel's accumulation.  The engine-level tests additionally pin the
dispatch rule: an engine streams only mmap-backed CSR containers at or
above its threshold, and its streamed results match a plain engine
bitwise in every configuration (scipy present or masked, vector and
stacked operands).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.errors import FormatError, ShapeError
from repro.formats import convert
from repro.formats.coo import COOMatrix
from repro.runtime.engine import WorkloadEngine
from repro.runtime.registry import REGISTRY
from repro.storage.persist import load_container, save_container
from repro.storage.stream import (
    iter_row_blocks,
    mmap_backed,
    plan_block_rows,
    streaming_spmm,
    streaming_spmv,
)


@pytest.fixture(scope="module")
def csr():
    rng = np.random.default_rng(99)
    dense = (rng.random((57, 43)) < 0.2) * rng.standard_normal((57, 43))
    dense[11] = 0.0  # an interior empty row inside a panel
    return convert(COOMatrix.from_dense(dense), "CSR")


@pytest.fixture(scope="module")
def x(csr):
    return np.random.default_rng(5).standard_normal(csr.ncols)


@pytest.fixture(scope="module")
def X(csr):
    return np.random.default_rng(6).standard_normal((csr.ncols, 4))


@pytest.mark.parametrize("block_rows", [1, 3, 7, 16, 1000, None])
def test_spmv_bitwise(csr, x, block_rows):
    want = REGISTRY.get("spmv", "CSR")(csr, x)
    got = streaming_spmv(csr, x, block_rows=block_rows)
    assert np.array_equal(got, want), (
        f"streaming diverged at block_rows={block_rows}"
    )


@pytest.mark.parametrize("block_rows", [1, 5, 13, None])
def test_spmm_bitwise(csr, X, block_rows):
    want = REGISTRY.get("spmm", "CSR")(csr, X)
    got = streaming_spmm(csr, X, block_rows=block_rows)
    assert np.array_equal(got, want)


def test_empty_matrix_streams_zeros():
    empty = convert(COOMatrix.from_dense(np.zeros((9, 4))), "CSR")
    x = np.ones(4)
    assert np.array_equal(streaming_spmv(empty, x), np.zeros(9))
    assert np.array_equal(
        streaming_spmm(empty, np.ones((4, 3))), np.zeros((9, 3))
    )


def test_panels_cover_matrix_without_copy(csr):
    seen_rows = 0
    seen_nnz = 0
    for i0, i1, panel in iter_row_blocks(csr, 7):
        assert i1 - i0 == panel.nrows
        assert panel.ncols == csr.ncols
        assert panel.data.base is not None  # a slice, not a copy
        seen_rows += panel.nrows
        seen_nnz += panel.nnz
    assert seen_rows == csr.nrows
    assert seen_nnz == csr.nnz


def test_plan_block_rows_tracks_row_weight(csr):
    small = plan_block_rows(csr, 1 << 10)
    large = plan_block_rows(csr, 1 << 30)
    assert 1 <= small < large
    assert large == csr.nrows  # a huge budget covers the whole matrix
    assert plan_block_rows(csr, 0) == plan_block_rows(csr)  # 0 = default
    with pytest.raises(ShapeError):
        plan_block_rows(csr, -1)


def test_streaming_rejects_non_csr():
    dia = convert(CASE_SMALL, "DIA")
    with pytest.raises(FormatError):
        list(iter_row_blocks(dia, 4))


CASE_SMALL = COOMatrix.from_dense(
    np.diag(np.arange(1.0, 6.0)) + np.eye(5, k=1)
)


# ---------------------------------------------------------------------
# engine-level dispatch
# ---------------------------------------------------------------------
def _mmap_csr(tmp_path, csr):
    path = str(tmp_path / "entry")
    save_container(csr, path)
    loaded = load_container(path, mmap=True)
    assert mmap_backed(loaded)
    return loaded


@pytest.mark.parametrize("scipy", [True, False])
@pytest.mark.parametrize("stacked", [False, True], ids=["vec", "block"])
def test_engine_streams_bitwise(
    tmp_path, monkeypatch, csr, x, X, scipy, stacked
):
    if not scipy:
        # the only platform where the engine streams through the
        # reference kernels instead of compiled operators
        monkeypatch.setattr("repro.runtime.batch._scipy_sparse", None)
    space = make_space("cirrus", "serial")
    plain = WorkloadEngine(space)
    streaming = WorkloadEngine(
        space,
        stream_threshold_bytes=0,
        stream_block_bytes=1 << 10,
    )
    mm = _mmap_csr(tmp_path, csr)
    operand = X if stacked else x
    want = plain.execute(csr, operand, key="k").y
    got = streaming.execute(mm, operand, key="k").y
    assert np.array_equal(got, want)
    assert streaming.streaming["requests"] == 1
    assert streaming.streaming["blocks"] > 1
    assert plain.streaming["requests"] == 0


def test_engine_does_not_stream_ram_or_below_threshold(tmp_path, csr, x):
    space = make_space("cirrus", "serial")
    # an in-RAM container never streams, whatever the threshold
    engine = WorkloadEngine(space, stream_threshold_bytes=0)
    engine.execute(csr, x, key="ram")
    assert engine.streaming["requests"] == 0
    # an mmap container below the threshold serves through the normal path
    mm = _mmap_csr(tmp_path, csr)
    high = WorkloadEngine(space, stream_threshold_bytes=1 << 40)
    high.execute(mm, x, key="mm")
    assert high.streaming["requests"] == 0
    # and None disables streaming outright
    off = WorkloadEngine(space, stream_threshold_bytes=None)
    off.execute(mm, x, key="mm")
    assert off.streaming["requests"] == 0


def test_engine_stats_carry_streaming_block(tmp_path, csr, x):
    space = make_space("cirrus", "serial")
    engine = WorkloadEngine(
        space, stream_threshold_bytes=0, stream_block_bytes=1 << 10
    )
    mm = _mmap_csr(tmp_path, csr)
    engine.execute(mm, x, key="k")
    stats = engine.stats()
    streaming = stats["streaming"]
    assert streaming["requests"] == 1
    assert streaming["blocks"] >= 1
    assert streaming["seconds"] > 0.0
    engine.reset_accounting()
    assert engine.stats()["streaming"]["requests"] == 0
