"""Workload engine: memoisation, accounting and queued serving."""

from __future__ import annotations

import gc
import hashlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.formats import COOMatrix, DynamicMatrix, MatrixDelta, convert
from repro.machine import CostModel
from repro.runtime import engine as engine_module
from repro.runtime.engine import (
    WorkloadEngine,
    matrix_fingerprint,
    request_key,
)

from tests.conftest import ALL_FORMATS


@pytest.fixture
def space():
    return make_space("cirrus", "serial", cost_model=CostModel(noise_sigma=0.0))


@pytest.fixture
def engine(space):
    return WorkloadEngine(space, tuner=RunFirstTuner())


class TestFingerprint:
    def test_identical_containers_share_fingerprint(self, dense_small):
        a = COOMatrix.from_dense(dense_small)
        b = COOMatrix.from_dense(dense_small)
        assert matrix_fingerprint(a) == matrix_fingerprint(b)

    def test_value_change_separates(self, dense_small):
        a = COOMatrix.from_dense(dense_small)
        other = dense_small.copy()
        other[0, 0] += 1.0
        b = COOMatrix.from_dense(other)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_every_format_fingerprints(self, fmt, dense_small):
        m = convert(COOMatrix.from_dense(dense_small), fmt)
        assert len(matrix_fingerprint(m)) == 32

    def test_formats_hash_differently(self, dense_small):
        coo = COOMatrix.from_dense(dense_small)
        assert matrix_fingerprint(coo) != matrix_fingerprint(convert(coo, "CSR"))


class TestFingerprintMemo:
    """The content hash runs once per container object."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        blake2b = hashlib.blake2b

        def counting_blake2b(*args, **kwargs):
            calls.append(1)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(
            engine_module.hashlib, "blake2b", counting_blake2b
        )
        return calls

    def test_one_container_is_hashed_once(self, dense_small, hashes):
        m = COOMatrix.from_dense(dense_small)
        assert matrix_fingerprint(m) == matrix_fingerprint(m)
        assert request_key(m) == matrix_fingerprint(m)
        assert len(hashes) == 1

    def test_equal_arrays_in_distinct_containers_share_a_key(
        self, dense_small, hashes
    ):
        a = COOMatrix.from_dense(dense_small)
        b = COOMatrix(a.nrows, a.ncols, a.row.copy(), a.col.copy(), a.data.copy())
        assert matrix_fingerprint(a) == matrix_fingerprint(b)
        assert len(hashes) == 2

    def test_dynamic_matrix_rekeys_after_a_switch(self, dense_small):
        dyn = DynamicMatrix(COOMatrix.from_dense(dense_small))
        before = matrix_fingerprint(dyn)
        dyn.switch("CSR")
        after = matrix_fingerprint(dyn)
        assert after != before
        assert after == matrix_fingerprint(dyn.concrete)

    def test_epoch_stamped_containers_key_by_identity(
        self, dense_small, hashes
    ):
        m = COOMatrix.from_dense(dense_small)
        stable_id = m.stable_id
        assert request_key(m) == f"{stable_id}@0"
        successor = m.with_updates(MatrixDelta.sets([0], [1], [2.0]))
        assert request_key(successor) == f"{stable_id}@1"
        assert hashes == []

    def test_memo_does_not_keep_containers_alive(self, dense_small):
        m = COOMatrix.from_dense(dense_small)
        matrix_fingerprint(m)
        ref = weakref.ref(m)
        assert m in engine_module._DIGESTS
        entries = len(engine_module._DIGESTS)
        del m
        gc.collect()
        assert ref() is None
        assert len(engine_module._DIGESTS) == entries - 1

    def test_concurrent_hashing_agrees(self, rng):
        """Threads racing on one memo all read the container's own digest."""
        matrices = [
            COOMatrix.from_dense(rng.standard_normal((8, 8)))
            for _ in range(16)
        ]
        expected = [
            matrix_fingerprint(
                COOMatrix(8, 8, m.row.copy(), m.col.copy(), m.data.copy())
            )
            for m in matrices
        ]
        failures = []

        def worker(offset):
            for i in range(200):
                j = (i + offset) % len(matrices)
                if matrix_fingerprint(matrices[j]) != expected[j]:
                    failures.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert all(m in engine_module._DIGESTS for m in matrices)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_defining_arrays_reject_in_place_writes(self, fmt, dense_small):
        """The memo's premise: a hashed container cannot change."""
        m = convert(COOMatrix.from_dense(dense_small), fmt)
        arrays = engine_module._defining_arrays(m)
        assert arrays
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


class TestMemoisation:
    def test_second_request_recomputes_nothing(self, engine, coo_small, rng):
        """Acceptance criterion: zero stat/feature/tuner recomputation."""
        x = rng.standard_normal(12)
        r1 = engine.execute(coo_small, x)
        assert not r1.from_cache
        baseline = engine.counters.as_dict()
        assert baseline["stats_misses"] == 1
        assert baseline["decision_misses"] == 1
        assert baseline["conversion_misses"] == 1
        r2 = engine.execute(coo_small, rng.standard_normal(12))
        assert r2.from_cache
        after = engine.counters.as_dict()
        # no category recorded a new miss: everything came from cache
        assert after["stats_misses"] == baseline["stats_misses"]
        assert after["decision_misses"] == baseline["decision_misses"]
        assert after["conversion_misses"] == baseline["conversion_misses"]
        assert after["decision_hits"] == baseline["decision_hits"] + 1
        assert r2.overhead_seconds == 0.0

    def test_feature_vector_memoised(self, engine, coo_small):
        v1 = engine.features_for(coo_small)
        v2 = engine.features_for(coo_small)
        assert v1 is v2
        assert engine.counters.feature_misses == 1
        assert engine.counters.feature_hits == 1

    def test_results_numerically_correct(self, engine, dense_small, rng):
        m = COOMatrix.from_dense(dense_small)
        x = rng.standard_normal(12)
        res = engine.execute(m, x)
        np.testing.assert_allclose(res.y, dense_small @ x, atol=1e-12)

    def test_tuner_decision_applied(self, engine, coo_small, rng):
        res = engine.execute(coo_small, rng.standard_normal(12))
        report = engine.decision_for(coo_small)
        assert res.format == report.format_name

    def test_explicit_key_skips_hashing(self, engine, coo_small, rng):
        r1 = engine.execute(coo_small, rng.standard_normal(12), key="mat-a")
        r2 = engine.execute(coo_small, rng.standard_normal(12), key="mat-a")
        assert r1.fingerprint == "mat-a"
        assert r2.from_cache

    def test_engine_without_tuner_serves_active_format(self, space, coo_small, rng):
        eng = WorkloadEngine(space)
        res = eng.execute(coo_small, rng.standard_normal(12))
        assert res.format == "COO"
        assert eng.seconds["tuning"] == 0.0


class TestAccounting:
    def test_overhead_charged_once(self, engine, coo_small, rng):
        r1 = engine.execute(coo_small, rng.standard_normal(12))
        assert r1.overhead_seconds > 0.0
        tuning_after_first = engine.seconds["tuning"]
        engine.execute(coo_small, rng.standard_normal(12))
        assert engine.seconds["tuning"] == tuning_after_first

    def test_spmv_seconds_accumulate(self, engine, coo_small, rng):
        engine.execute(coo_small, rng.standard_normal(12), repetitions=10)
        t1 = engine.seconds["spmv"]
        assert t1 > 0.0
        engine.execute(coo_small, rng.standard_normal(12), repetitions=10)
        assert engine.seconds["spmv"] == pytest.approx(2 * t1)

    def test_block_request_scales_by_traffic_factor(self, engine, coo_small, rng):
        from repro.spmv.spmm import spmm_time_factor

        r1 = engine.execute(coo_small, rng.standard_normal(12))
        rk = engine.execute(coo_small, rng.standard_normal((12, 8)))
        assert rk.seconds == pytest.approx(r1.seconds * spmm_time_factor(8))

    def test_summary_and_reset(self, engine, coo_small, rng):
        engine.execute(coo_small, rng.standard_normal(12))
        report = engine.stats()
        assert report["requests_served"] == 1
        assert report["unique_matrices"] == 1
        engine.reset_accounting()
        assert engine.stats()["requests_served"] == 0
        # caches stay warm after the reset
        assert engine.execute(coo_small, rng.standard_normal(12)).from_cache


class TestQueuedServing:
    def test_flush_preserves_order_and_values(self, engine, dense_small, rng):
        m = COOMatrix.from_dense(dense_small)
        xs = [rng.standard_normal(12) for _ in range(4)]
        for x in xs:
            engine.submit(m, x)
        assert engine.pending == 4
        results = engine.flush()
        assert engine.pending == 0
        assert len(results) == 4
        for x, res in zip(xs, results):
            np.testing.assert_allclose(res.y, dense_small @ x, atol=1e-12)

    def test_flush_tunes_once_per_matrix(self, engine, dense_small, dense_medium, rng):
        a = DynamicMatrix(COOMatrix.from_dense(dense_small))
        b = DynamicMatrix(COOMatrix.from_dense(dense_medium))
        for _ in range(3):
            engine.submit(a, rng.standard_normal(a.ncols), key="a")
            engine.submit(b, rng.standard_normal(b.ncols), key="b")
        results = engine.flush()
        assert engine.counters.decision_misses == 2
        assert engine.counters.decision_hits == 4
        assert sum(not r.from_cache for r in results) == 2

    def test_flush_handles_mixed_block_requests(self, engine, dense_small, rng):
        m = COOMatrix.from_dense(dense_small)
        x = rng.standard_normal(12)
        X = rng.standard_normal((12, 3))
        engine.submit(m, x)
        engine.submit(m, X)
        single, block = engine.flush()
        np.testing.assert_allclose(single.y, dense_small @ x, atol=1e-12)
        np.testing.assert_allclose(block.y, dense_small @ X, atol=1e-12)

    def test_flush_empty_queue(self, engine):
        assert engine.flush() == []

    def test_submit_rejects_bad_operand_without_losing_queue(
        self, engine, dense_small, rng
    ):
        """Regression: a malformed request must fail at submit, not flush."""
        from repro.errors import ValidationError

        m = COOMatrix.from_dense(dense_small)
        good = rng.standard_normal(12)
        engine.submit(m, good)
        with pytest.raises(ValidationError):
            engine.submit(m, np.ones(13))
        with pytest.raises(ValidationError):
            engine.submit(m, np.ones((13, 2)))
        with pytest.raises(ValidationError):
            engine.submit(m, np.ones((12, 2, 2)))
        results = engine.flush()
        assert len(results) == 1
        np.testing.assert_allclose(results[0].y, dense_small @ good, atol=1e-12)

    def test_cold_workload_reports_no_false_hits(self, space, dense_small, dense_medium):
        """Regression: all-miss workloads must show a zero hit rate."""
        eng = WorkloadEngine(space, tuner=RunFirstTuner())
        eng.execute(COOMatrix.from_dense(dense_small), np.ones(12))
        eng.execute(COOMatrix.from_dense(dense_medium), np.ones(60))
        assert eng.counters.hits == 0
        assert eng.counters.hit_rate == 0.0


class TestProfileFormats:
    """The profiling probe the offline pipeline dispatches through."""

    def test_matches_space_timings(self, engine, space, coo_small):
        times = engine.profile_formats(coo_small)
        from repro.machine import MatrixStats
        from repro.runtime.engine import matrix_fingerprint

        stats = MatrixStats.from_matrix(coo_small)
        expected = space.time_all_formats(
            stats, matrix_key=matrix_fingerprint(coo_small)
        )
        assert times == expected
        assert set(times) == set(ALL_FORMATS)

    def test_memoised_per_key(self, engine, coo_small):
        first = engine.profile_formats(coo_small, key="m")
        assert engine.counters.profile_misses == 1
        second = engine.profile_formats(coo_small, key="m")
        assert second == first
        assert engine.counters.profile_hits == 1
        assert engine.counters.profile_misses == 1

    def test_key_plus_stats_needs_no_matrix(self, engine, space, coo_small):
        from repro.machine import MatrixStats

        stats = MatrixStats.from_matrix(coo_small)
        times = engine.profile_formats(key="m", stats=stats)
        assert times == space.time_all_formats(stats, matrix_key="m")
        # the stats were adopted: a stats lookup for the key is a hit
        assert engine.stats_for(coo_small, key="m") is stats
        assert engine.counters.stats_hits == 1

    def test_returned_mapping_is_a_copy(self, engine, coo_small):
        first = engine.profile_formats(coo_small, key="m")
        first["CSR"] = -1.0
        assert engine.profile_formats(coo_small, key="m")["CSR"] != -1.0

    def test_bare_key_without_stats_rejected(self, engine):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            engine.profile_formats(key="m")
        with pytest.raises(ValidationError):
            engine.profile_formats()


class TestHotSwap:
    def test_set_tuner_clears_decisions_keeps_artefacts(
        self, engine, dense_small, rng
    ):
        dyn = DynamicMatrix(COOMatrix.from_dense(dense_small))
        x = rng.standard_normal(dyn.ncols)
        engine.execute(dyn, x, key="m")
        assert engine.counters.decision_misses == 1
        engine.profile_formats(dyn, key="m")
        engine.set_tuner(RunFirstTuner(), version="v2")
        assert engine.model_version == "v2"
        engine.execute(dyn, x, key="m")
        # decision + conversion re-derived, stats/features/profile warm
        assert engine.counters.decision_misses == 2
        assert engine.counters.stats_misses == 1
        assert engine.profile_formats(dyn, key="m") is not None
        assert engine.counters.profile_hits == 1

    def test_set_tuner_without_version_keeps_stamp(self, engine):
        engine.model_version = "v9"
        engine.set_tuner(None)
        assert engine.model_version == "v9"
        assert engine.tuner is None

    def test_profile_snapshot_is_a_copy(self, engine, dense_small):
        dyn = DynamicMatrix(COOMatrix.from_dense(dense_small))
        times = engine.profile_formats(dyn, key="m")
        snapshot = engine.profile_snapshot()
        assert snapshot == {"m": times}
        snapshot["m"]["CSR"] = -1.0
        assert engine.profile_formats(dyn, key="m")["CSR"] == times["CSR"]
