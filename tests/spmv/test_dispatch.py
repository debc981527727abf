"""Tests for format-agnostic SpMV: container dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix, DynamicMatrix, convert

from tests.conftest import ALL_FORMATS


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmv_dispatch_all_formats(fmt, dense_small, rng):
    m = convert(COOMatrix.from_dense(dense_small), fmt)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(m.spmv(x), dense_small @ x)


def test_spmv_dynamic_matrix(dense_small, rng):
    dyn = DynamicMatrix(COOMatrix.from_dense(dense_small))
    dyn.switch("ELL")
    x = rng.standard_normal(12)
    np.testing.assert_allclose(dyn.spmv(x), dense_small @ x)
