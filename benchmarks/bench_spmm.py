"""SpMM operation benchmarks (the TuneMultiply generalisation).

Host wall-clock of the block kernels plus a check of the cost model's SpMM
scaling claim: k right-hand sides cost markedly less than k independent
SpMVs because the matrix traffic is amortised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generators import banded, uniform_random
from repro.formats import COOMatrix, convert
from repro.machine.cost_model import spmm_time_factor
from repro.runtime.registry import REGISTRY
from repro.utils.timing import Timer

from tests.conftest import ALL_FORMATS


def spmm(matrix, X):
    """The registry's NumPy block kernel (no scipy operator)."""
    return REGISTRY.get("spmm", matrix.format)(matrix, X)


@pytest.fixture(scope="module")
def matrix():
    return uniform_random(20_000, avg_row_nnz=12, seed=0)


@pytest.fixture(scope="module")
def block(matrix):
    return np.random.default_rng(0).standard_normal((matrix.ncols, 8))


@pytest.mark.parametrize("fmt", ["COO", "CSR", "ELL", "HYB"])
def test_spmm_kernel(benchmark, matrix, block, fmt):
    m = convert(matrix, fmt)
    Y = benchmark(spmm, m, block)
    assert Y.shape == (matrix.nrows, 8)


def test_spmm_matches_looped_spmv(benchmark, matrix, block):
    """The block kernel and the per-column loop must agree numerically.

    (On the host the NumPy block kernel is *not* faster than the loop —
    the 2-D prefix sum is memory-heavier than 8 cache-friendly 1-D passes;
    the amortisation claim lives in the device cost model, where matrix
    traffic dominates.  This bench records both timings for reference.)
    """
    m = convert(matrix, "CSR")

    def both():
        t_block = Timer()
        with t_block:
            y_block = spmm(m, block)
        t_loop = Timer()
        with t_loop:
            y_loop = np.column_stack(
                [m.spmv(block[:, j]) for j in range(block.shape[1])]
            )
        return y_block, y_loop

    y_block, y_loop = benchmark.pedantic(both, rounds=3, iterations=1)
    np.testing.assert_allclose(y_block, y_loop, atol=1e-10)


def test_spmm_model_factor_matches_claim(benchmark):
    """The modelled SpMM factor is sublinear and anchored at k=1."""

    def factors():
        return [spmm_time_factor(k) for k in (1, 2, 4, 8, 16, 32)]

    f = benchmark.pedantic(factors, rounds=1, iterations=1)
    assert f[0] == pytest.approx(1.0)
    ks = [1, 2, 4, 8, 16, 32]
    assert all(fi < ki for fi, ki in zip(f[1:], ks[1:]))


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmm_banded_all_formats(benchmark, fmt):
    m = convert(banded(20_000, half_bandwidth=2, seed=0), fmt)
    X = np.random.default_rng(1).standard_normal((m.ncols, 4))
    Y = benchmark(spmm, m, X)
    assert Y.shape == (m.nrows, 4)
