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
from repro.formats import COOMatrix, convert
from repro.kernels import available_backends, backend_info
from repro.runtime.registry import REGISTRY

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


# ----------------------------------------------------------------------
# compiled kernel backends (repro.kernels generations)
# ----------------------------------------------------------------------


def _best_of(fn, repeats=7):
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def int_banded_matrix():
    """Banded matrix with integer-valued float64 data.

    Integer values keep every backend's accumulation exact (sums stay
    well below 2**53), so outputs must be *bitwise* identical across
    backends regardless of summation order — the equivalence the table
    below asserts alongside its timings.
    """
    base = banded(N, half_bandwidth=2, seed=0)
    data = np.random.default_rng(7).integers(1, 9, base.nnz).astype(np.float64)
    return COOMatrix(base.nrows, base.ncols, base.row, base.col, data)


def test_backend_comparison_table(int_banded_matrix):
    """NumPy-vs-compiled table: per format, per operation, warm + cold.

    The cold column is the per-process first-touch warm-up
    (:meth:`KernelRegistry.warmup` — the shared-library load for native,
    zero once warm); the warm columns are
    best-of-repeats kernel wall times.  Every compiled backend's output
    must be bitwise identical to the NumPy reference on the
    integer-valued fixture.
    """
    backends = available_backends()
    x = np.random.default_rng(0).integers(1, 5, N).astype(np.float64)
    X = np.random.default_rng(1).integers(1, 5, (N, 8)).astype(np.float64)
    header = (f"\n{'format':<7}{'op':<6}{'backend':<9}{'cold (s)':<10}"
              f"{'warm (ms)':<11}{'vs numpy':<10}bitwise")
    print(header)
    print("-" * len(header))
    for fmt in ALL_FORMATS:
        m = convert(int_banded_matrix, fmt)
        for op, operand in (("spmv", x), ("spmm", X)):
            reference = None
            t_numpy = None
            for kb in ("numpy",) + tuple(b for b in backends if b != "numpy"):
                cold = REGISTRY.warmup(op, fmt, kb)
                kernel = REGISTRY.get(op, fmt, kb)
                y = kernel(m, operand)
                if kb == "numpy":
                    reference, t_numpy = y, _best_of(lambda: kernel(m, operand))
                    t_warm, ratio, identical = t_numpy, 1.0, True
                else:
                    identical = bool(np.array_equal(y, reference))
                    t_warm = _best_of(lambda: kernel(m, operand))
                    ratio = t_numpy / t_warm
                    assert identical, (
                        f"{kb} {op} on {fmt} is not bitwise identical to "
                        f"the NumPy reference on integer-valued data"
                    )
                print(f"{fmt:<7}{op:<6}{kb:<9}{cold:<10.4f}"
                      f"{t_warm * 1e3:<11.3f}{ratio:<10.2f}"
                      f"{'yes' if identical else 'NO'}")


def test_compiled_backend_speedup_single_thread(int_banded_matrix):
    """Perf acceptance: a compiled tier beats NumPy >= 5x on >= 2 formats.

    Single-thread comparison (native is serial), min-over-repeats wall
    time.
    Skipped when no compiled backend is available on the host.
    """
    compiled = [
        kb for kb in available_backends()
        if kb != "numpy" and backend_info(kb).available
    ]
    if not compiled:
        pytest.skip("no compiled kernel backend available on this host")
    x = np.random.default_rng(0).integers(1, 5, N).astype(np.float64)
    winners = {}
    for fmt in ALL_FORMATS:
        m = convert(int_banded_matrix, fmt)
        k_numpy = REGISTRY.get("spmv", fmt, "numpy")
        t_numpy = _best_of(lambda: k_numpy(m, x))
        for kb in compiled:
            REGISTRY.warmup("spmv", fmt, kb)
            kernel = REGISTRY.get("spmv", fmt, kb)
            assert np.array_equal(kernel(m, x), k_numpy(m, x))
            speedup = t_numpy / _best_of(lambda: kernel(m, x))
            winners[fmt] = max(winners.get(fmt, 0.0), speedup)
    table = ", ".join(f"{f} {s:.1f}x" for f, s in sorted(winners.items()))
    print(f"\ncompiled-vs-numpy single-thread SpMV speedups: {table}")
    fast = [f for f, s in winners.items() if s >= 5.0]
    assert len(fast) >= 2, (
        f"expected a >=5x compiled speedup on at least two formats, got "
        f"{table}"
    )
