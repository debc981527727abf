"""Property-based tests of the cost model over random matrix shapes."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostModel, MatrixStats
from repro.machine.systems import A100, EPYC_7742_NODE

from tests.conftest import ALL_FORMATS

MODEL = CostModel(noise_sigma=0.0)
NOISY = CostModel(noise_sigma=0.05)


@st.composite
def random_stats(draw):
    """Synthesise a self-consistent MatrixStats without a real matrix."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    nrows = draw(st.integers(min_value=1, max_value=50_000))
    avg = draw(st.floats(min_value=0.2, max_value=60.0))
    rng = np.random.default_rng(seed)
    row_nnz = rng.poisson(avg, size=min(nrows, 4000)).astype(np.int64)
    if nrows > row_nnz.shape[0]:
        # extrapolate the histogram deterministically
        reps = nrows // row_nnz.shape[0] + 1
        row_nnz = np.tile(row_nnz, reps)[:nrows]
    nnz = int(row_nnz.sum())
    if nnz == 0:
        row_nnz[0] = 1
        nnz = 1
    # diagonal census: random occupancy over a plausible diagonal count
    ndiags = int(draw(st.integers(min_value=1, max_value=200)))
    diag_nnz = rng.multinomial(nnz, np.ones(ndiags) / ndiags)
    diag_nnz = diag_nnz[diag_nnz > 0].astype(np.int64)
    return MatrixStats.from_distributions(nrows, nrows, row_nnz, diag_nnz)


@settings(max_examples=60, deadline=None)
@given(stats=random_stats(), fmt=st.sampled_from(ALL_FORMATS))
def test_times_always_positive_and_finite(stats, fmt):
    for arch, backend in ((EPYC_7742_NODE, "serial"),
                          (EPYC_7742_NODE, "openmp"),
                          (A100, "cuda")):
        t = MODEL.spmv_time(stats, fmt, arch, backend)
        assert np.isfinite(t)
        assert t > 0.0


@settings(max_examples=40, deadline=None)
@given(stats=random_stats(), fmt=st.sampled_from(ALL_FORMATS))
def test_noise_multiplicative_and_bounded(stats, fmt):
    base = MODEL.spmv_time(stats, fmt, A100, "cuda")
    noisy = NOISY.spmv_time(stats, fmt, A100, "cuda", matrix_key="k")
    assert 0.5 < noisy / base < 2.0


@settings(max_examples=40, deadline=None)
@given(stats=random_stats())
def test_feature_extraction_cheaper_than_run_first(stats):
    """Invariant behind the whole paper: T_FE + T_PRED must undercut one
    full conversion sweep for any matrix shape."""
    t_fe = MODEL.feature_extraction_time(stats, EPYC_7742_NODE, "serial")
    t_pred = MODEL.prediction_time(
        EPYC_7742_NODE, "serial", n_estimators=50, avg_depth=15
    )
    sweep = sum(
        MODEL.conversion_time(stats, "CSR", fmt, EPYC_7742_NODE, "serial")
        for fmt in ALL_FORMATS
        if fmt != "CSR"
    )
    assert t_fe + t_pred < sweep


@settings(max_examples=40, deadline=None)
@given(stats=random_stats(), fmt=st.sampled_from(ALL_FORMATS))
def test_determinism_without_noise(stats, fmt):
    a = MODEL.spmv_time(stats, fmt, A100, "cuda", matrix_key="x")
    b = MODEL.spmv_time(stats, fmt, A100, "cuda", matrix_key="y")
    assert a == b


@settings(max_examples=30, deadline=None)
@given(stats=random_stats())
def test_spmm_factor_consistency(stats):
    """SpMM scaling stays between 1 SpMV and k SpMVs."""
    from repro.machine.cost_model import spmm_time_factor

    for k in (1, 2, 8, 32):
        f = spmm_time_factor(k)
        assert 1.0 <= f + 1e-9
        assert f <= k + 1e-9
