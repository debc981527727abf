"""Request spans: minted at submit, propagated to the completion record.

Covers the PR's acceptance criterion — one distributed request yields a
single span carrying gateway-side AND worker-side stage timings under
one trace ID — plus cross-tier propagation, deterministic coalescing,
kill/respawn retries, structured observer-error events, and the
adaptive controller's instruments landing in the serving registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunFirstTuner
from repro.formats.delta import MatrixDelta
from repro.service import TuningService

GATEWAY_STAGES = {"validate", "queue", "shm_put", "rpc", "observer"}
WORKER_STAGES = {"worker_shm_attach", "worker_kernel", "worker_shm_write"}


class TestCrossTierSpans:
    def test_every_result_carries_a_distinct_traced_span(
        self, tier_service, matrix, rng
    ):
        _, service = tier_service
        results = [
            service.spmv(matrix, rng.random(matrix.ncols), key="S")
            for _ in range(3)
        ]
        update = service.update(
            matrix, MatrixDelta.sets([0], [0], [2.0]), key="S"
        )
        ids = [r.trace_id for r in results] + [update.trace_id]
        assert len(set(ids)) == 4
        for result in results:
            (span,) = service.obs.spans.find(result.trace_id)
            assert span["kind"] == "spmv"
            assert span["tier"] == service.obs.tier
            assert {"validate", "queue"} <= set(span["stages"])
        (span,) = service.obs.spans.find(update.trace_id)
        assert span["kind"] == "update"
        assert span["epoch"] == update.epoch

    def test_disabled_observability_still_mints_ids(self, space, matrix, rng):
        with TuningService(
            space, RunFirstTuner(), workers=2, observability=False
        ) as service:
            result = service.spmv(matrix, rng.random(matrix.ncols), key="S")
            assert result.trace_id  # results keep their correlation handle
            assert service.obs.spans.recorded == 0  # but nothing recorded
            assert service.stats()["requests_served"] == 1  # counters live


class TestDistributedSpans:
    def test_one_request_one_span_with_both_sides_of_the_wire(
        self, gateway, matrix, rng
    ):
        """THE acceptance test: gateway and worker timings, one trace ID."""
        result = gateway.spmv(matrix, rng.random(matrix.ncols), key="S")
        spans = gateway.obs.spans.find(result.trace_id)
        assert len(spans) == 1
        (span,) = spans
        assert span["kind"] == "spmv"
        assert span["tier"] == "distributed"
        stages = span["stages"]
        assert GATEWAY_STAGES | WORKER_STAGES <= set(stages)
        for name, seconds in stages.items():
            assert seconds >= 0.0, name
        # the worker's kernel ran inside the gateway's rpc window
        assert stages["rpc"] >= stages["worker_kernel"]
        assert span["worker"] in range(gateway.workers)
        assert span["retries"] == 0

    def test_update_span_crosses_the_wire_too(self, gateway, matrix):
        update = gateway.update(
            matrix, MatrixDelta.sets([0], [0], [3.0]), key="S"
        )
        (span,) = gateway.obs.spans.find(update.trace_id)
        assert span["kind"] == "update"
        assert span["epoch"] == update.epoch
        assert "worker_kernel" in span["stages"]

    def test_respawn_replay_keeps_trace_ids_and_counts_retries(
        self, gateway, matrix, rng, wait_until
    ):
        """A killed worker's replayed requests complete under their
        original trace IDs, with exactly one span each and the replay
        visible as ``retries`` — redelivery must not duplicate spans."""
        target = gateway.worker_of("S")
        xs = [rng.random(matrix.ncols) for _ in range(20)]
        futures = [gateway.submit(matrix, x, key="S") for x in xs]
        assert gateway.kill_worker(target) is not None
        results = [f.result(timeout=60) for f in futures]
        for result, x in zip(results, xs):
            assert np.array_equal(result.y, matrix.spmv(x))
            spans = gateway.obs.spans.find(result.trace_id)
            assert len(spans) == 1, result.trace_id
        # spans only count *successful* deliveries beyond the first —
        # an entry whose original send failed mid-kill replays with
        # retries 0 — so the span sum is bounded by the replay counter
        retries = sum(
            gateway.obs.spans.find(r.trace_id)[0]["retries"]
            for r in results
        )
        assert retries <= gateway.stats()["distributed"]["retried_requests"]
        wait_until(
            lambda: gateway.obs.events.counts().get("worker_respawn", 0) >= 1
        )
        counts = gateway.obs.events.counts()
        assert counts.get("worker_death", 0) >= 1

    def test_promotion_emits_a_structured_event(self, gateway, matrix, rng):
        gateway.spmv(matrix, rng.random(matrix.ncols), key="S")
        gateway.promote_model(RunFirstTuner(), version="v2")
        assert gateway.obs.promotions.value == 1
        (event,) = [
            e for e in gateway.obs.events.tail(20)
            if e["kind"] == "model_promoted"
        ]
        assert event["version"] == "v2"


class _DeferredService(TuningService):
    """Drains are recorded, not executed — coalescing becomes deterministic."""

    def __init__(self, *args, **kwargs):
        self.deferred = []
        super().__init__(*args, **kwargs)

    def _schedule(self, fp):
        self.deferred.append(fp)

    def drain_all(self):
        while self.deferred:
            self._drain(self.deferred.pop(0))


class TestCoalescedSpans:
    def test_coalesced_requests_keep_distinct_trace_ids(self, space, matrix):
        """One batch, N spans: each coalesced request keeps its own trace
        ID; the shared kernel launch shows up as an identical ``kernel``
        stage across the batch."""
        service = _DeferredService(space, RunFirstTuner(), workers=1)
        gen = np.random.default_rng(7)
        futures = [
            service.submit(matrix, gen.standard_normal(matrix.ncols), key="S")
            for _ in range(6)
        ]
        service.drain_all()
        results = [f.result(timeout=0) for f in futures]
        service.close()

        assert service.stats()["coalesced_batches"] == 1
        ids = {r.trace_id for r in results}
        assert len(ids) == 6
        spans = [service.obs.spans.find(r.trace_id)[0] for r in results]
        assert all(s["batch_size"] == 6 for s in spans)
        kernel_times = {s["stages"]["kernel"] for s in spans}
        assert len(kernel_times) == 1  # one launch served the whole batch


class TestObserverErrorEvents:
    """Satellite: a raising observer leaves a diagnosable event."""

    def test_inproc_observer_error_event(
        self, space, matrix, rng, wait_until
    ):
        def bad_observer(observations):
            raise ValueError("synthetic telemetry failure")

        with TuningService(space, RunFirstTuner(), workers=2) as service:
            service.set_observer(bad_observer)
            service.spmv(matrix, rng.random(matrix.ncols), key="S")
            wait_until(lambda: service.obs.observer_errors.value >= 1)
            (event,) = [
                e for e in service.obs.events.tail(20)
                if e["kind"] == "observer_error"
            ]
            assert event["error"] == "ValueError"
            assert "synthetic telemetry failure" in event["message"]
            assert event["batch_size"] >= 1
            stats = service.stats()
            assert stats["observer_errors"] == 1
            assert stats["observability"]["events"]["observer_error"] == 1

    def test_distributed_observer_error_event(
        self, gateway, matrix, rng, wait_until
    ):
        def bad_observer(observations):
            raise RuntimeError("gateway-side telemetry failure")

        gateway.set_observer(bad_observer)
        gateway.spmv(matrix, rng.random(matrix.ncols), key="S")
        wait_until(lambda: gateway.obs.observer_errors.value >= 1)
        (event,) = [
            e for e in gateway.obs.events.tail(20)
            if e["kind"] == "observer_error"
        ]
        assert event["error"] == "RuntimeError"
        assert event["fingerprint"] is not None


class TestAdaptiveInstruments:
    def test_controller_registers_into_the_serving_registry(
        self, space, tmp_path, build_tier
    ):
        """One exposition covers serving AND adaptation: the controller's
        counters are rows of the service's registry, tier-labelled."""
        service, controller = build_tier("adaptive", space, tmp_path)
        try:
            names = {
                (r["name"], r["labels"].get("tier"))
                for r in service.obs.registry.dump()
            }
            for counter in (
                "drift_events",
                "retrains",
                "retrain_failures",
                "model_promotions",
                "rollbacks",
            ):
                assert (counter, "adaptive") in names, counter
        finally:
            controller.close()
            service.close()
