"""Tests for the execution-space layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ExecutionSpace, available_spaces, make_space
from repro.errors import BackendError
from repro.formats import COOMatrix, DynamicMatrix
from repro.machine import CostModel, MatrixStats
from repro.machine.systems import get_system

from tests.conftest import ALL_FORMATS


@pytest.fixture
def space() -> ExecutionSpace:
    return make_space("cirrus", "cuda", cost_model=CostModel(noise_sigma=0.0))


class TestConstruction:
    def test_make_space_name(self, space):
        assert space.name == "cirrus/cuda"
        assert "V100" in space.device.name

    def test_invalid_backend_raises(self):
        with pytest.raises(BackendError):
            make_space("archer2", "cuda")

    def test_available_spaces_are_the_eleven_pairs(self):
        spaces = available_spaces()
        assert len(spaces) == 11
        assert spaces[0].name == "archer2/serial"

    def test_available_spaces_share_cost_model(self):
        spaces = available_spaces()
        assert all(sp.cost_model is spaces[0].cost_model for sp in spaces)

    def test_explicit_system_object(self):
        sp = ExecutionSpace(get_system("xci"), "openmp")
        assert sp.name == "xci/openmp"


class TestRunSpMV:
    """A space runs SpMV through the engine it binds (``space.engine()``)."""

    def test_numerical_result_is_exact(self, space, dense_small, rng):
        m = COOMatrix.from_dense(dense_small)
        x = rng.standard_normal(12)
        res = space.engine().execute(m, x)
        np.testing.assert_allclose(res.y, dense_small @ x)
        assert res.format == "COO"
        assert res.seconds > 0

    def test_accepts_dynamic_matrix(self, space, dense_small, rng):
        dyn = DynamicMatrix(COOMatrix.from_dense(dense_small)).switch("ELL")
        x = rng.standard_normal(12)
        res = space.engine().execute(dyn, x)
        np.testing.assert_allclose(res.y, dense_small @ x)
        assert res.format == "ELL"

    def test_repetitions_scale_time(self, space, coo_small):
        x = np.ones(12)
        t1 = space.engine().execute(coo_small, x, repetitions=1).seconds
        t100 = space.engine().execute(coo_small, x, repetitions=100).seconds
        assert t100 == pytest.approx(100 * t1)

    def test_precomputed_stats_shortcut(self, space, coo_small):
        primed = space.engine()
        primed.prime_stats("k", MatrixStats.from_matrix(coo_small))
        res1 = primed.execute(coo_small, np.ones(12), key="k")
        res2 = space.engine().execute(coo_small, np.ones(12), key="k")
        assert primed.counters.stats_misses == 0
        assert res1.seconds == res2.seconds


class TestTiming:
    def test_time_all_formats_keys(self, space, coo_small):
        stats = MatrixStats.from_matrix(coo_small)
        times = space.time_all_formats(stats)
        assert sorted(times) == sorted(ALL_FORMATS)
        assert all(t > 0 for t in times.values())

    def test_time_spmv_matches_run(self, space, coo_small):
        stats = MatrixStats.from_matrix(coo_small)
        t = space.time_spmv(stats, "CSR")
        res = space.engine().execute(
            DynamicMatrix(coo_small).switch("CSR"), np.ones(12)
        )
        assert res.seconds == pytest.approx(t)

    def test_feature_extraction_time_positive(self, space, coo_small):
        stats = MatrixStats.from_matrix(coo_small)
        assert space.time_feature_extraction(stats) > 0

    def test_prediction_time_positive(self, space):
        assert space.time_prediction(n_estimators=50, avg_depth=15) > 0

    def test_conversion_time_positive(self, space, coo_small):
        stats = MatrixStats.from_matrix(coo_small)
        assert space.time_conversion(stats, "COO", "CSR") > 0
        assert space.time_conversion(stats, "CSR", "CSR") == 0.0
