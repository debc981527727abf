"""FingerprintQueues / split_stacked: the shared coalescing machinery."""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest

from repro.runtime.engine import EngineResult
from repro.service.coalesce import (
    FingerprintQueues,
    PendingRequest,
    split_stacked,
)


def spmv_request(ncols=4, *, repetitions=1, operand=None):
    if operand is None:
        operand = np.ones(ncols)
    return PendingRequest(
        matrix=None,
        operand=operand,
        repetitions=repetitions,
        future=Future(),
    )


def update_request():
    return PendingRequest(
        matrix=None,
        operand=None,
        repetitions=1,
        future=Future(),
        kind="update",
        delta=object(),
    )


class TestScheduling:
    def test_first_push_schedules_followers_do_not(self):
        queues = FingerprintQueues()
        assert queues.push("A", spmv_request()) is True
        assert queues.push("A", spmv_request()) is False
        assert queues.push("B", spmv_request()) is True  # independent fp

    def test_finish_clears_scheduled_flag_when_drained(self):
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.take_batch("A", 8)
        assert queues.finish("A") is False
        # drained and unscheduled: the next push schedules again
        assert queues.push("A", spmv_request()) is True

    def test_finish_keeps_drain_alive_while_requests_remain(self):
        queues = FingerprintQueues()
        for _ in range(3):
            queues.push("A", spmv_request())
        queues.take_batch("A", 2)
        assert queues.finish("A") is True
        assert queues.push("A", spmv_request()) is False  # still scheduled


class TestBatchExtraction:
    def test_batch_respects_max_batch(self):
        queues = FingerprintQueues()
        for _ in range(5):
            queues.push("A", spmv_request())
        assert len(queues.take_batch("A", 3)) == 3
        assert len(queues.take_batch("A", 3)) == 2
        assert queues.take_batch("A", 3) == []

    def test_update_is_a_barrier(self):
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.push("A", spmv_request())
        queues.push("A", update_request())
        queues.push("A", spmv_request())
        first = queues.take_batch("A", 8)
        assert [r.kind for r in first] == ["spmv", "spmv"]
        second = queues.take_batch("A", 8)
        assert [r.kind for r in second] == ["update"]
        third = queues.take_batch("A", 8)
        assert [r.kind for r in third] == ["spmv"]

    def test_leading_update_returned_alone(self):
        queues = FingerprintQueues()
        queues.push("A", update_request())
        queues.push("A", update_request())
        assert len(queues.take_batch("A", 8)) == 1
        assert len(queues.take_batch("A", 8)) == 1

    def test_stackable_only_stops_at_block_request(self):
        """A batch stacks plain vectors only: a block operand ends it
        and is served alone."""
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.push("A", spmv_request())
        queues.push("A", spmv_request(operand=np.ones((4, 2))))  # block
        queues.push("A", spmv_request())
        first = queues.take_batch("A", 8)
        assert len(first) == 2 and all(r.stackable for r in first)
        second = queues.take_batch("A", 8)
        assert len(second) == 1 and not second[0].stackable
        third = queues.take_batch("A", 8)
        assert len(third) == 1 and third[0].stackable

    def test_stackable_only_sends_repeated_request_solo(self):
        """A repeated request is served alone, and ends a run of
        vectors queued before it."""
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.push("A", spmv_request(repetitions=3))
        queues.push("A", spmv_request())
        assert [r.repetitions for r in queues.take_batch("A", 8)] == [1]
        assert [r.repetitions for r in queues.take_batch("A", 8)] == [3]
        assert [r.repetitions for r in queues.take_batch("A", 8)] == [1]


class TestLifecycle:
    def test_pop_all_returns_everything(self):
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.push("A", spmv_request())
        queues.push("B", update_request())
        leftovers = queues.pop_all()
        assert len(leftovers) == 3
        assert len(queues) == 0
        assert queues.keys() == []

    def test_len_counts_across_fingerprints(self):
        queues = FingerprintQueues()
        queues.push("A", spmv_request())
        queues.push("B", spmv_request())
        queues.push("B", spmv_request())
        assert len(queues) == 3
        assert sorted(queues.keys()) == ["A", "B"]


class TestSplitStacked:
    def make_block(self, n):
        return EngineResult(
            y=np.arange(3 * n, dtype=np.float64).reshape(3, n),
            seconds=0.6,
            overhead_seconds=0.2,
            format="CSR",
            fingerprint="A",
            from_cache=False,
            epoch=4,
            backend="numpy",
        )

    def test_columns_and_metadata(self):
        block = self.make_block(3)
        parts = split_stacked(block, 3)
        assert len(parts) == 3
        for j, part in enumerate(parts):
            assert np.array_equal(part.y, block.y[:, j])
            assert part.format == "CSR"
            assert part.fingerprint == "A"
            assert part.epoch == 4
            assert part.backend == "numpy"

    def test_fair_share_accounting(self):
        parts = split_stacked(self.make_block(3), 3)
        assert sum(p.seconds for p in parts) == pytest.approx(0.6)
        assert parts[0].overhead_seconds == pytest.approx(0.2)
        assert all(p.overhead_seconds == 0.0 for p in parts[1:])

    def test_from_cache_attribution(self):
        parts = split_stacked(self.make_block(2), 2)
        assert parts[0].from_cache is False
        assert parts[1].from_cache is True
        cached = self.make_block(2)
        cached = EngineResult(
            y=cached.y,
            seconds=cached.seconds,
            overhead_seconds=cached.overhead_seconds,
            format=cached.format,
            fingerprint=cached.fingerprint,
            from_cache=True,
            epoch=cached.epoch,
            backend=cached.backend,
        )
        assert all(p.from_cache for p in split_stacked(cached, 2))
