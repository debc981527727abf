"""Kernel micro-benchmarks: real wall-clock SpMV per format.

Not a paper table — this measures the *host* implementation of each format
kernel on a fixed matrix so regressions in the NumPy kernels show up in
CI.  It also doubles as evidence for the format landscape: on the host,
too, DIA beats CSR for banded matrices and loses badly for random ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generators import banded, uniform_random
from repro.formats import convert

from benchmarks._emit import emit
from tests.conftest import ALL_FORMATS

N = 60_000


@pytest.fixture(scope="module")
def banded_matrix():
    return banded(N, half_bandwidth=2, seed=0)


@pytest.fixture(scope="module")
def random_matrix():
    return uniform_random(N // 4, avg_row_nnz=12, seed=0)


@pytest.fixture(scope="module")
def x_banded():
    return np.random.default_rng(0).standard_normal(N)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmv_kernel_banded(benchmark, banded_matrix, x_banded, fmt):
    m = convert(banded_matrix, fmt)
    y = benchmark(m.spmv, x_banded)
    assert y.shape == (N,)


@pytest.mark.parametrize("fmt", ["COO", "CSR", "ELL", "HYB"])
def test_spmv_kernel_random(benchmark, random_matrix, fmt):
    # DIA/HDC are omitted: a random matrix occupies ~every diagonal and
    # the padded build does not fit in memory — which is the point the
    # cost model encodes.
    m = convert(random_matrix, fmt)
    x = np.random.default_rng(1).standard_normal(m.ncols)
    y = benchmark(m.spmv, x)
    assert y.shape == (m.nrows,)


def test_conversion_coo_to_csr(benchmark, random_matrix):
    from repro.formats import CSRMatrix

    csr = benchmark(CSRMatrix.from_coo, random_matrix)
    assert csr.nnz == random_matrix.nnz


def test_feature_extraction_host_cost(benchmark, random_matrix):
    """Host-side Table-I extraction; the paper's T_FE analogue."""
    from repro.core import extract_features

    vec = benchmark(extract_features, random_matrix)
    assert vec.shape == (10,)


def test_forest_prediction_host_cost(benchmark):
    """Host-side forest traversal; the paper's T_PRED analogue."""
    from repro.core import OracleModel
    from repro.ml import RandomForestClassifier

    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 10))
    y = rng.integers(0, 6, size=500)
    rf = RandomForestClassifier(n_estimators=40, max_depth=14, seed=0).fit(X, y)
    model = OracleModel.from_estimator(rf)
    x = X[0]
    fid = benchmark(model.predict_one, x)
    assert 0 <= fid <= 5


# ----------------------------------------------------------------------
# batched multi-vector SpMV (runtime layer 2)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 8, 64])
def test_spmv_batched_csr(benchmark, random_matrix, k):
    """Batched ``Y = A @ X`` through the runtime's cached block operator."""
    from repro.runtime.batch import batched_spmv

    m = convert(random_matrix, "CSR")
    X = np.random.default_rng(2).standard_normal((m.ncols, k))
    batched_spmv(m, X)  # warm the operator cache out of the timed region
    Y = benchmark(batched_spmv, m, X)
    assert Y.shape == (m.nrows, k)


def test_batched_speedup_over_sequential_csr(random_matrix):
    """Perf acceptance: batched k=64 beats 64 sequential spmv calls >= 5x.

    Wall-clock assertion (min over repeats, so scheduler noise only ever
    narrows the gap): the runtime's batched CSR path amortises matrix
    traversal and per-call dispatch across the vector block.
    """
    import time

    from repro.runtime.batch import batched_spmv

    m = convert(random_matrix, "CSR")
    k = 64
    X = np.random.default_rng(3).standard_normal((m.ncols, k))

    Y = batched_spmv(m, X)  # warm operator cache + verify agreement
    ref = np.column_stack([m.spmv(X[:, j]) for j in range(k)])
    np.testing.assert_allclose(Y, ref, atol=1e-9)

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_seq = best_of(lambda: [m.spmv(X[:, j]) for j in range(k)])
    t_bat = best_of(lambda: batched_spmv(m, X))
    speedup = t_seq / t_bat
    print(f"\nbatched k={k} CSR speedup over sequential: {speedup:.1f}x "
          f"({t_seq * 1e3:.1f} ms -> {t_bat * 1e3:.1f} ms)")
    emit(
        "kernels",
        config={"nrows": m.nrows, "nnz": m.nnz, "k": k, "format": "CSR"},
        metrics={
            "sequential_seconds": t_seq,
            "batched_seconds": t_bat,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, (
        f"batched SpMV only {speedup:.1f}x faster than {k} sequential calls"
    )
