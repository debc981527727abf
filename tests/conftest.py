"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.machine.cost_model import CostModel

ALL_FORMATS = ["COO", "CSR", "DIA", "ELL", "HYB", "HDC"]


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def dense_small(rng: np.random.Generator) -> np.ndarray:
    """A 12x12 ~20%-dense matrix with a guaranteed diagonal."""
    d = (rng.random((12, 12)) < 0.2) * rng.standard_normal((12, 12))
    d[np.arange(12), np.arange(12)] = 1.0 + rng.random(12)
    return d


@pytest.fixture
def dense_medium(rng: np.random.Generator) -> np.ndarray:
    """A 60x60 ~8%-dense random matrix (no structure)."""
    return (rng.random((60, 60)) < 0.08) * rng.standard_normal((60, 60))


@pytest.fixture
def dense_rect(rng: np.random.Generator) -> np.ndarray:
    """A rectangular 20x35 matrix to exercise non-square paths."""
    return (rng.random((20, 35)) < 0.15) * rng.standard_normal((20, 35))


@pytest.fixture
def coo_small(dense_small: np.ndarray) -> COOMatrix:
    return COOMatrix.from_dense(dense_small)


@pytest.fixture
def coo_medium(dense_medium: np.ndarray) -> COOMatrix:
    return COOMatrix.from_dense(dense_medium)


@pytest.fixture
def deterministic_cost_model() -> CostModel:
    """Cost model with the run-to-run noise disabled."""
    return CostModel(noise_sigma=0.0)


def random_sparse_dense(
    rng: np.random.Generator, nrows: int, ncols: int, density: float
) -> np.ndarray:
    """Helper used by parametrised tests to build dense references."""
    return (rng.random((nrows, ncols)) < density) * rng.standard_normal(
        (nrows, ncols)
    )
