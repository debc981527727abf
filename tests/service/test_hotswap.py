"""Hot model reload on the live service: atomicity, telemetry, eviction.

The load-bearing assertion is the concurrent one: 8 threads hammer the
service while the main thread promotes and rolls back models mid-flight,
and every single request must (a) complete, (b) be served under exactly
one model (its recorded ``model_version`` and ``format`` agree), and
(c) produce a result bitwise identical to serial dispatch of the same
operand in the same format — i.e. a serial replay under the same model
sequence.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners.base import Tuner, TuningReport
from repro.formats import COOMatrix, convert
from repro.formats.base import FORMAT_IDS
from repro.runtime.batch import matvec
from repro.service import TuningService


class FixedTuner(Tuner):
    """Always picks one format — makes model identity observable."""

    def __init__(self, format_name: str) -> None:
        self.format_name = format_name

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        return TuningReport(format_id=FORMAT_IDS[self.format_name])


@pytest.fixture
def space():
    return make_space("cirrus", "serial")


@pytest.fixture
def matrix_a(dense_small):
    return COOMatrix.from_dense(dense_small)


@pytest.fixture
def matrix_b(dense_medium):
    return COOMatrix.from_dense(dense_medium)


class TestPromoteModel:
    def test_swap_invalidates_decisions_keeps_artefacts(
        self, space, matrix_a, rng
    ):
        service = TuningService(space, FixedTuner("CSR"), workers=2)
        with service:
            x = rng.standard_normal(matrix_a.ncols)
            first = service.spmv(matrix_a, x, key="a")
            assert first.format == "CSR"
            service.promote_model(
                FixedTuner("DIA"), version="v2", source="test"
            )
            second = service.spmv(matrix_a, x, key="a")
            assert second.format == "DIA"
            # model-independent artefacts stayed warm: stats/features were
            # not recomputed, only the decision + conversion were
            engines = service.stats()["engines"]["counters"]
            assert engines["stats_misses"] == 1
            assert engines["decision_misses"] == 2

    def test_model_block_in_stats(self, space, matrix_a, rng):
        service = TuningService(space, FixedTuner("CSR"), workers=1)
        with service:
            block = service.stats()["model"]
            assert block["version"] == "-"
            assert block["promotions"] == 0
            service.promote_model(
                FixedTuner("ELL"),
                version="v7",
                source="suite-fingerprint-123",
                algorithm="fixed",
            )
            block = service.stats()["model"]
            assert block["version"] == "v7"
            assert block["source"] == "suite-fingerprint-123"
            assert block["algorithm"] == "fixed"
            assert block["promoted_at"] is not None
            assert block["promotions"] == 1

    def test_results_carry_model_version(self, space, matrix_a, rng):
        service = TuningService(space, FixedTuner("CSR"), workers=1)
        with service:
            x = rng.standard_normal(matrix_a.ncols)
            assert service.spmv(matrix_a, x, key="a").model_version == "-"
            service.promote_model(FixedTuner("DIA"), version="v2")
            assert service.spmv(matrix_a, x, key="a").model_version == "v2"


class TestConcurrentHotSwap:
    THREADS = 8
    REQUESTS_PER_THREAD = 40
    SWAPS = 6

    def test_hammer_while_promoting_and_rolling_back(
        self, space, matrix_a, matrix_b
    ):
        """No dropped requests; every result bitwise-equals serial replay."""
        formats = {"v1": "CSR", "v2": "DIA", "v3": "ELL"}
        service = TuningService(
            space, FixedTuner(formats["v1"]), workers=4, max_batch=8
        )
        service.set_model_info(version="v1")
        matrices = {"a": matrix_a, "b": matrix_b}
        results: dict = {}
        errors: list = []

        def client(t: int) -> None:
            try:
                rng = np.random.default_rng(t)
                futures = []
                for i in range(self.REQUESTS_PER_THREAD):
                    key = "a" if (t + i) % 2 == 0 else "b"
                    x = rng.standard_normal(matrices[key].ncols)
                    futures.append(
                        (key, x, service.submit(matrices[key], x, key=key))
                    )
                results[t] = [
                    (key, x, future.result(timeout=30))
                    for key, x, future in futures
                ]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        # promote / roll back models while the hammer runs: v1 -> v2 ->
        # v3 -> v2 (rollback) -> v3 -> v2 -> ...
        sequence = ["v2", "v3", "v2", "v3", "v2", "v3"][: self.SWAPS]
        for version in sequence:
            service.promote_model(FixedTuner(formats[version]), version=version)
            time.sleep(0.002)  # spread the swaps across the hammer window
        for thread in threads:
            thread.join()
        service.close()

        assert not errors
        # (a) nothing dropped: every request of every thread resolved
        assert sorted(results) == list(range(self.THREADS))
        total = sum(len(r) for r in results.values())
        assert total == self.THREADS * self.REQUESTS_PER_THREAD
        stats = service.stats()
        assert stats["requests_served"] == stats["requests_submitted"] == total

        # (b) each request was served under exactly one model: the
        # recorded version's format is the format that served it
        # (c) and the numbers are bitwise identical to a serial replay
        # of the same operand under that same model's format
        serial_cache: dict = {}
        for batch in results.values():
            for key, x, result in batch:
                assert result.format == formats[result.model_version]
                ck = (key, result.format)
                if ck not in serial_cache:
                    serial_cache[ck] = convert(matrices[key], result.format)
                serial = matvec(serial_cache[ck], x)
                assert np.array_equal(result.y, serial)

        # the final promotion is what stats reports
        assert stats["model"]["version"] == sequence[-1]
        assert stats["model"]["promotions"] == self.SWAPS


class TestEvictionKeepsTelemetryBaseline:
    def test_profile_timings_survive_eviction(self, space, matrix_a, matrix_b, rng):
        """Satellite: evicted engines' per-format timings fold into totals."""
        service = TuningService(
            space, FixedTuner("CSR"), workers=1, capacity=1, shards=1,
            shadow_every=1,
        )
        with service:
            service.spmv(matrix_a, rng.standard_normal(matrix_a.ncols), key="a")
            assert set(service.profile_times()) == {"a"}
            # serving b evicts a's engine (capacity=1)
            service.spmv(matrix_b, rng.standard_normal(matrix_b.ncols), key="b")
            stats = service.stats()
            assert stats["engine_cache"]["evictions"] >= 1
            # a's shadow-profile baseline survived its engine
            times = service.profile_times()
            assert set(times) == {"a", "b"}
            assert set(times["a"]) == set(FORMAT_IDS)
            assert stats["profiled_matrices"] == 2
            assert stats["shadow_probes"] == 2

    def test_shadow_cadence(self, space, matrix_a, rng):
        service = TuningService(
            space, FixedTuner("CSR"), workers=1, shadow_every=3
        )
        with service:
            for _ in range(7):  # 7 single-request batches: probes at 0, 3, 6
                service.spmv(
                    matrix_a, rng.standard_normal(matrix_a.ncols), key="a"
                )
            assert service.stats()["shadow_probes"] == 3


class TestObserver:
    def test_observations_reach_observer(self, space, matrix_a, rng):
        service = TuningService(
            space, FixedTuner("CSR"), workers=1, shadow_every=1
        )
        seen: list = []
        service.set_observer(seen.extend)
        with service:
            service.spmv(matrix_a, rng.standard_normal(matrix_a.ncols), key="a")
            service.spmv(matrix_a, rng.standard_normal(matrix_a.ncols), key="a")
        assert len(seen) == 2
        first = seen[0]
        assert first["fingerprint"] == "a"
        assert first["format"] == "CSR"
        assert first["features"] is not None and len(first["features"]) == 10
        # cadence 1 probes every batch; each obs is its batch's first
        assert first["shadow_times"] is not None
        assert set(first["shadow_times"]) == set(FORMAT_IDS)
        assert first["latency_seconds"] > 0

    def test_observer_errors_are_counted_not_raised(self, space, matrix_a, rng):
        service = TuningService(space, FixedTuner("CSR"), workers=1)

        def broken(observations):
            raise RuntimeError("observer bug")

        service.set_observer(broken)
        with service:
            result = service.spmv(
                matrix_a, rng.standard_normal(matrix_a.ncols), key="a"
            )
            assert result.y is not None
        assert service.stats()["observer_errors"] == 1

    def test_clearing_observer_stops_the_feed(self, space, matrix_a, rng):
        service = TuningService(space, FixedTuner("CSR"), workers=1)
        seen: list = []
        service.set_observer(seen.extend)
        with service:
            service.spmv(matrix_a, rng.standard_normal(matrix_a.ncols), key="a")
            service.set_observer(None)
            service.spmv(matrix_a, rng.standard_normal(matrix_a.ncols), key="a")
        assert len(seen) == 1

    def test_shadow_every_validation(self, space):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            TuningService(space, shadow_every=-1)
