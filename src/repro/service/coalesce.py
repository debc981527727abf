"""Per-fingerprint request coalescing, shared by the serving tiers.

The coalescing discipline of the in-process
:class:`~repro.service.service.TuningService` — pile concurrent requests
for the same matrix into a per-fingerprint queue, drain up to
``max_batch`` plain single-vector requests as one batched kernel call,
serve everything else alone, treat mutation requests as barriers that
are never coalesced and never reordered — is exactly what the
multi-process gateway
(:class:`~repro.distributed.gateway.DistributedService`) needs at the
process boundary too.  This module holds that machinery once:

* :class:`PendingRequest` — one validated, submitted request (compute or
  mutation) awaiting a drain;
* :class:`FingerprintQueues` — the lock-protected map of per-fingerprint
  queues, one per fingerprint with a drain scheduled (so at most one
  drain loop is in flight per fingerprint), and barrier-aware batch
  extraction;
* :func:`split_stacked` — fan a batched ``(nrows, k)`` engine result out
  into per-request results with fair-share accounting (used by the
  completion path both tiers share).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

import numpy as np

__all__ = ["FingerprintQueues", "PendingRequest", "split_stacked"]


class PendingRequest:
    """One validated, submitted request awaiting a drain.

    ``kind`` is ``"spmv"`` for compute requests and ``"update"`` for
    mutation requests (which carry a ``delta`` instead of an operand and
    act as a barrier in the fingerprint's queue: never coalesced, never
    reordered against surrounding SpMVs).
    """

    __slots__ = (
        "matrix",
        "operand",
        "repetitions",
        "future",
        "enqueued_at",
        "kind",
        "delta",
        "trace_id",
        "validate_seconds",
    )

    def __init__(
        self,
        matrix,
        operand: Optional[np.ndarray],
        repetitions: int,
        future: "Future",
        *,
        kind: str = "spmv",
        delta=None,
        trace_id: str = "",
        validate_seconds: float = 0.0,
    ) -> None:
        self.matrix = matrix
        self.operand = operand
        self.repetitions = repetitions
        self.future = future
        self.kind = kind
        self.delta = delta
        #: Observability trace ID minted at submit(); rides the request
        #: through coalescing, control messages, and respawn replays.
        self.trace_id = trace_id
        #: Seconds spent validating in the caller's thread (span stage).
        self.validate_seconds = validate_seconds
        self.enqueued_at = time.perf_counter()

    @property
    def stackable(self) -> bool:
        """Whether this request can share a stacked single-kernel batch."""
        return (
            self.kind == "spmv"
            and self.repetitions == 1
            and self.operand is not None
            and self.operand.ndim == 1
        )


class FingerprintQueues:
    """Map of per-fingerprint request queues with drain scheduling.

    The discipline both serving tiers rely on:

    * a fingerprint has a queue exactly while one drain of it is
      scheduled or running, so at most one drain is in flight per
      fingerprint;
    * :meth:`push` appends a request and reports whether the caller must
      schedule a drain (the queue was absent);
    * :meth:`take_batch` extracts the next batch under the one batching
      rule: a batch is either up to ``max_batch`` plain single-vector
      requests (stacked into one block, one kernel call), stopping at
      the first request that is not, or one lone request — a block
      operand, a repeated request or a mutation (a barrier: applied
      alone, in queue order);
    * :meth:`finish` re-checks the queue after a drain: ``True`` means
      more requests arrived and the caller must keep the drain alive;
      otherwise the queue is dropped;
    * :meth:`reserve` starts a drain with nothing queued, for a request
      served outside the queue.
    """

    def __init__(self) -> None:
        self._queues: Dict[str, List[PendingRequest]] = {}
        self._lock = threading.Lock()

    def push(self, fp: str, request: PendingRequest) -> bool:
        """Append *request* under *fp*; ``True`` = caller schedules a drain."""
        with self._lock:
            queue = self._queues.get(fp)
            if queue is None:
                self._queues[fp] = [request]
                return True
            queue.append(request)
            return False

    def take_batch(self, fp: str, max_batch: int) -> List[PendingRequest]:
        """Extract *fp*'s next batch (may be []): a stacked run of plain
        single-vector requests, or one lone request."""
        with self._lock:
            items = self._queues.get(fp)
            if not items:
                return []
            if not items[0].stackable:
                # a mutation, block or repeated request is served alone
                return [items.pop(0)]
            end = 1
            limit = min(len(items), int(max_batch))
            while end < limit and items[end].stackable:
                end += 1
            batch = items[:end]
            del items[:end]
            return batch

    def finish(self, fp: str) -> bool:
        """Post-drain check: ``True`` when requests remain queued for *fp*.

        When the queue is empty it is dropped, so the next :meth:`push`
        schedules a fresh drain.
        """
        with self._lock:
            queue = self._queues.get(fp)
            if queue:
                return True  # stays scheduled: more arrived
            self._queues.pop(fp, None)
            return False

    def reserve(self, fp: str) -> bool:
        """Mark an idle *fp* as draining, with nothing queued.

        For a request served outside the queue: requests pushed under
        *fp* meanwhile wait behind it, and :meth:`finish` reports them.
        ``False`` (nothing changed) when *fp* already has queued
        requests or a drain scheduled.
        """
        with self._lock:
            if fp in self._queues:
                return False
            self._queues[fp] = []
            return True

    def keys(self) -> List[str]:
        """Snapshot of fingerprints with queued requests."""
        with self._lock:
            return list(self._queues)

    def pop_all(self) -> List[PendingRequest]:
        """Remove and return every queued request (shutdown without wait)."""
        with self._lock:
            leftovers = [
                request
                for queue in self._queues.values()
                for request in queue
            ]
            self._queues.clear()
            return leftovers

    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())


def split_stacked(block, n: int) -> List:
    """Per-request results for a batched ``(nrows, k)`` engine result.

    Each request's modelled ``seconds`` is its fair share of the single
    batched kernel call, so summed request costs match the engine's
    accounting; the tuning/conversion overhead is attributed to the
    batch's first request, and every member after the first reports
    ``from_cache`` (its artefacts were resolved by the first).
    """
    from repro.runtime.engine import EngineResult

    share = block.seconds / n
    return [
        EngineResult(
            y=block.y[:, j],
            seconds=share,
            overhead_seconds=block.overhead_seconds if j == 0 else 0.0,
            format=block.format,
            fingerprint=block.fingerprint,
            from_cache=block.from_cache or j > 0,
            epoch=block.epoch,
            backend=block.backend,
        )
        for j in range(n)
    ]
