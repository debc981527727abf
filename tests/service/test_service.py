"""TuningService: concurrency, coalescing, eviction, model-driven serving.

The load-bearing assertions mirror the service's contract:

* N threads hammering two matrices keep their engines on separate cache
  shards and produce results **bitwise identical** to serial dispatch;
* coalescing merges queued same-matrix requests into one batched kernel
  call (asserted deterministically by driving the drain by hand);
* ``capacity=1`` evicts the LRU engine on every matrix switch while the
  evicted engine's accounting survives in the service totals.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.core.pipeline import ModelDatabase
from repro.core.model_io import OracleModel
from repro.errors import ValidationError
from repro.formats import COOMatrix
from repro.formats.base import FORMAT_IDS
from repro.runtime.engine import WorkloadEngine
from repro.service import Session, TuningService


@pytest.fixture
def space():
    return make_space("cirrus", "serial")


@pytest.fixture
def matrix_a(dense_small):
    return COOMatrix.from_dense(dense_small)


@pytest.fixture
def matrix_b(dense_medium):
    return COOMatrix.from_dense(dense_medium)


def distinct_shard_keys(service: TuningService, count: int = 2):
    """Keys guaranteed to land on *count* different cache shards."""
    keys, seen = [], set()
    i = 0
    while len(keys) < count:
        key = f"shard-probe-{i}"
        shard = service.engines.shard_of(key)
        if shard not in seen:
            seen.add(shard)
            keys.append(key)
        i += 1
    return keys


class TestBasicServing:
    def test_spmv_matches_direct_product(self, space, matrix_a, dense_small, rng):
        x = rng.standard_normal(matrix_a.ncols)
        with TuningService(space, RunFirstTuner(), workers=2) as service:
            result = service.spmv(matrix_a, x, key="a")
        np.testing.assert_allclose(result.y, dense_small @ x, atol=1e-12)
        assert result.fingerprint == "a"
        assert result.batch_size >= 1
        assert result.latency_seconds >= 0.0

    def test_block_operand_served(self, space, matrix_a, dense_small, rng):
        X = rng.standard_normal((matrix_a.ncols, 5))
        with TuningService(space, workers=2) as service:
            result = service.spmv(matrix_a, X, key="a")
        np.testing.assert_allclose(result.y, dense_small @ X, atol=1e-12)

    def test_invalid_operand_rejected_at_submit(self, space, matrix_a, rng):
        with TuningService(space, workers=1) as service:
            with pytest.raises(ValidationError):
                service.submit(matrix_a, rng.standard_normal(matrix_a.ncols + 1))
            with pytest.raises(ValidationError):
                service.submit(
                    matrix_a, rng.standard_normal((2, 2, 2)), key="a"
                )
            # the service is still healthy after rejected submissions
            result = service.spmv(
                matrix_a, rng.standard_normal(matrix_a.ncols), key="a"
            )
            assert result.y.shape == (matrix_a.nrows,)

    def test_closed_service_rejects_submissions(self, space, matrix_a, rng):
        service = TuningService(space, workers=1)
        service.close()
        with pytest.raises(ValidationError):
            service.submit(matrix_a, rng.standard_normal(matrix_a.ncols))

    def test_close_serves_entire_backlog(self, space, matrix_a, dense_small):
        """Regression: close(wait=True) must resolve every queued future."""
        service = TuningService(space, workers=1, max_batch=2)
        gen = np.random.default_rng(11)
        operands = [gen.standard_normal(matrix_a.ncols) for _ in range(40)]
        futures = [
            service.submit(matrix_a, x, key="backlog") for x in operands
        ]
        service.close(wait=True)
        for x, future in zip(operands, futures):
            result = future.result(timeout=5)
            np.testing.assert_allclose(result.y, dense_small @ x, atol=1e-12)
        assert service.stats()["requests_served"] == 40

    def test_close_without_wait_cancels_leftovers(self, space, matrix_a, rng):
        service = _DeferredService(space, workers=1)  # drains never run
        futures = [
            service.submit(
                matrix_a, rng.standard_normal(matrix_a.ncols), key="a"
            )
            for _ in range(3)
        ]
        service.close(wait=False)
        assert all(f.cancelled() for f in futures)

    def test_constructor_validation(self, space):
        with pytest.raises(ValidationError):
            TuningService(space, workers=0)
        with pytest.raises(ValidationError):
            TuningService(space, max_batch=0)


class TestConcurrentServing:
    N_THREADS = 8
    REQUESTS_PER_THREAD = 25

    def test_threads_hammering_two_matrices(
        self, space, matrix_a, matrix_b
    ):
        """Shard isolation + byte-identical results under real contention."""
        tuner = RunFirstTuner()
        service = TuningService(
            space, tuner, workers=4, capacity=8, shards=2, max_batch=16
        )
        key_a, key_b = distinct_shard_keys(service, 2)
        matrices = {key_a: matrix_a, key_b: matrix_b}
        requests = [
            (key_a if (t + i) % 2 == 0 else key_b, t, i)
            for t in range(self.N_THREADS)
            for i in range(self.REQUESTS_PER_THREAD)
        ]

        def operand(key: str, t: int, i: int) -> np.ndarray:
            gen = np.random.default_rng((t, i))
            return gen.standard_normal(matrices[key].ncols)

        results: dict = {}
        barrier = threading.Barrier(self.N_THREADS)

        def client(t: int) -> None:
            barrier.wait()
            futures = [
                ((key, t, i), service.submit(
                    matrices[key], operand(key, t, i), key=key
                ))
                for (key, tt, i) in requests
                if tt == t
            ]
            for ident, future in futures:
                results[ident] = future.result()

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()

        stats = service.stats()
        total = self.N_THREADS * self.REQUESTS_PER_THREAD
        assert stats["requests_served"] == total
        assert len(results) == total

        # shard isolation: the two matrices live on different shards,
        # one engine each, and nothing was evicted
        cache = stats["engine_cache"]
        assert service.engines.shard_of(key_a) != service.engines.shard_of(key_b)
        assert cache["misses"] == 2
        assert cache["evictions"] == 0
        assert sorted(cache["shard_sizes"], reverse=True)[:2] == [1, 1]
        # each matrix tuned exactly once despite 200 requests apiece
        assert stats["engines"]["counters"]["decision_misses"] == 2

        # byte-identical to serial dispatch through a fresh engine
        engine = WorkloadEngine(space, RunFirstTuner())
        for (key, t, i), service_result in results.items():
            serial = engine.execute(
                matrices[key], operand(key, t, i), key=key
            )
            assert np.array_equal(service_result.y, serial.y)

    def test_coalesced_batches_happen_under_load(self, space, matrix_a):
        """Statistical smoke: many clients, one matrix -> some coalescing."""
        service = TuningService(space, workers=2, max_batch=32)
        barrier = threading.Barrier(6)

        def client(t: int) -> None:
            gen = np.random.default_rng(t)
            barrier.wait()
            futures = [
                service.submit(
                    matrix_a, gen.standard_normal(matrix_a.ncols), key="hot"
                )
                for _ in range(30)
            ]
            for future in futures:
                future.result()

        threads = [threading.Thread(target=client, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        stats = service.stats()
        assert stats["requests_served"] == 180
        assert stats["coalesced_batches"] > 0
        assert stats["batches"] < 180


class _DeferredService(TuningService):
    """Drains are recorded, not executed — coalescing becomes deterministic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deferred = []

    def _schedule(self, fp):
        self.deferred.append(fp)

    def drain_all(self):
        while self.deferred:
            self._drain(self.deferred.pop(0))


class TestCoalescing:
    def test_deterministic_coalesced_batch(self, space, matrix_a, dense_small):
        service = _DeferredService(space, RunFirstTuner(), workers=1)
        gen = np.random.default_rng(7)
        operands = [gen.standard_normal(matrix_a.ncols) for _ in range(6)]
        futures = [
            service.submit(matrix_a, x, key="hot") for x in operands
        ]
        assert service.deferred == ["hot"]  # one drain for six requests
        service.drain_all()
        results = [f.result(timeout=0) for f in futures]
        service.close()

        assert all(r.batch_size == 6 for r in results)
        stats = service.stats()
        assert stats["coalesced_batches"] == 1
        assert stats["coalesced_requests"] == 6
        assert stats["batches"] == 1
        # one decision, one conversion for the whole batch
        assert stats["engines"]["counters"]["decision_misses"] == 1
        # bitwise identical to serial single-vector dispatch
        engine = WorkloadEngine(space, RunFirstTuner())
        for x, result in zip(operands, results):
            assert np.array_equal(
                result.y, engine.execute(matrix_a, x, key="hot").y
            )

    def test_max_batch_caps_one_drain(self, space, matrix_a):
        service = _DeferredService(space, workers=1, max_batch=4)
        gen = np.random.default_rng(3)
        futures = [
            service.submit(
                matrix_a, gen.standard_normal(matrix_a.ncols), key="hot"
            )
            for _ in range(10)
        ]
        service.drain_all()
        results = [f.result(timeout=0) for f in futures]
        service.close()
        assert [r.batch_size for r in results] == [4] * 8 + [2] * 2
        assert service.stats()["batches"] == 3

    def test_repetitions_survive_coalescing(self, space, matrix_a):
        """Regression: repeated workloads keep their modelled
        repetitions; each is served alone, never stacked."""
        service = _DeferredService(space, RunFirstTuner(), workers=1)
        gen = np.random.default_rng(5)
        x = gen.standard_normal(matrix_a.ncols)
        single = service.submit(matrix_a, x, key="m")
        service.drain_all()
        t_single = single.result(timeout=0).seconds
        repeated = [
            service.submit(matrix_a, x, key="m", repetitions=10)
            for _ in range(4)
        ]
        service.drain_all()
        service.close()
        for future in repeated:
            result = future.result(timeout=0)
            assert result.batch_size == 1  # a repeated request is never stacked
            assert result.seconds == pytest.approx(10 * t_single)

    def test_max_batch_one_is_naive_dispatch(self, space, matrix_a):
        service = _DeferredService(space, workers=1, max_batch=1)
        gen = np.random.default_rng(3)
        futures = [
            service.submit(
                matrix_a, gen.standard_normal(matrix_a.ncols), key="hot"
            )
            for _ in range(5)
        ]
        service.drain_all()
        for future in futures:
            assert future.result(timeout=0).batch_size == 1
        service.close()
        assert service.stats()["coalesced_batches"] == 0


class TestEviction:
    def test_eviction_under_capacity_one(
        self, space, matrix_a, matrix_b, dense_small, dense_medium, rng
    ):
        service = TuningService(
            space, RunFirstTuner(), workers=1, capacity=1, shards=4
        )
        with service:
            xa = rng.standard_normal(matrix_a.ncols)
            xb = rng.standard_normal(matrix_b.ncols)
            ra1 = service.spmv(matrix_a, xa, key="a")
            rb = service.spmv(matrix_b, xb, key="b")   # evicts a
            ra2 = service.spmv(matrix_a, xa, key="a")  # evicts b, retunes a
        np.testing.assert_allclose(ra1.y, dense_small @ xa, atol=1e-12)
        np.testing.assert_allclose(rb.y, dense_medium @ xb, atol=1e-12)
        assert np.array_equal(ra1.y, ra2.y)

        stats = service.stats()
        cache = stats["engine_cache"]
        assert cache["capacity"] == 1 and cache["shards"] == 1
        assert cache["evictions"] == 2
        assert cache["misses"] == 3 and cache["hits"] == 0
        assert cache["size"] == 1
        # accounting of evicted engines survives in the service totals
        assert stats["engines"]["requests_served"] == 3
        assert stats["engines"]["counters"]["decision_misses"] == 3


class TestSession:
    def test_session_counts_and_results(
        self, space, matrix_a, dense_small, rng
    ):
        with TuningService(space, workers=2) as service:
            session = service.session(name="client-0")
            assert isinstance(session, Session)
            x = rng.standard_normal(matrix_a.ncols)
            result = session.spmv(matrix_a, x, key="a")
            np.testing.assert_allclose(result.y, dense_small @ x, atol=1e-12)
            X = rng.standard_normal((matrix_a.ncols, 3))
            block = session.spmm(matrix_a, X, key="a")
            np.testing.assert_allclose(block.y, dense_small @ X, atol=1e-12)
            with pytest.raises(ValidationError):
                session.spmm(matrix_a, x, key="a")  # 1-D block is an error
            # async submits count as requests but never fold latency in
            session.submit(matrix_a, x, key="a").result()
        # the rejected spmm never reached the service; three requests
        # issued, two of them blocking (latency-observed)
        assert session.requests == 3
        assert session.completed == 2
        assert session.mean_latency >= 0.0


class TestModelDrivenServing:
    def test_from_model_database(self, tmp_path, matrix_a, rng):
        from repro.ml.forest import RandomForestClassifier

        X = rng.standard_normal((30, 10))
        y = np.asarray([0, 1, 2, 3, 4, 5] * 5, dtype=np.int64)
        forest = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0)
        forest.fit(X, y)
        model = OracleModel.from_estimator(
            forest, system="cirrus", backend="serial"
        )
        ModelDatabase(tmp_path).save(model, algorithm="random_forest")

        service = TuningService.from_model_database(
            tmp_path, "cirrus", "serial", workers=2
        )
        with service:
            result = service.spmv(
                matrix_a, rng.standard_normal(matrix_a.ncols), key="a"
            )
        assert result.format in FORMAT_IDS
        # the model decided the serving format once, through the engine
        assert service.stats()["engines"]["counters"]["decision_misses"] == 1

    def test_missing_model_raises(self, tmp_path):
        from repro.errors import TuningError

        with pytest.raises(TuningError):
            TuningService.from_model_database(tmp_path, "cirrus", "serial")
