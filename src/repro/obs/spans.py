"""Request spans: one trace ID per request, per-stage timings, a ring.

A **trace ID** is minted in ``submit()`` — in the caller's thread, once
per request — and rides the request everywhere it goes: onto the
:class:`~repro.service.coalesce.PendingRequest`, through coalesced
batches, inside the distributed tier's pickled control messages, across
worker kills and respawn replays (the in-flight entry keeps its batch,
so the re-sent request keeps its ID), and out on the final
``ServiceResult`` / ``UpdateResult`` so callers and the trace recorder
can correlate.

A **span** is the completed request's timing record: the trace ID, the
tier that served it, and a ``stages`` dict of per-stage seconds
(``validate``, ``queue``, ``coalesce``, ``kernel``, ``observer`` on the
in-process tier; the gateway adds ``shm_put`` / ``rpc`` and merges the
worker-side ``shm_attach`` / ``kernel`` / ``shm_write`` timings it got
back in the reply — one span, both sides of the process boundary).

Spans land in a bounded ring (:class:`SpanRecorder`) so a live process
can always answer "what did the last N requests do"; the spiller drains
the ring incrementally to ``spans.jsonl``.  Recording is a deque append
under one lock — cheap enough for the 3% overhead gate in
``bench_service.py``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["SpanRecorder", "merge_worker_stages", "mint_trace_id"]

_trace_counter = itertools.count(1)


def _pid_prefix() -> None:
    """Set this process's trace-ID prefix (again in a forked child)."""
    global _PREFIX
    _PREFIX = f"t-{os.getpid():x}-"


_pid_prefix()
os.register_at_fork(after_in_child=_pid_prefix)


def mint_trace_id() -> str:
    """A process-unique trace ID: ``t-<pid hex>-<counter hex>``.

    The PID prefix keeps IDs unique across the gateway and its worker
    processes (it is taken once per process, not per ID); the counter
    (``itertools.count`` — atomic under the GIL) keeps them unique and
    *ordered* within a process, so a span timeline sorted by ID is
    sorted by submission.
    """
    return f"{_PREFIX}{next(_trace_counter):06x}"


class SpanRecorder:
    """Bounded ring of completed request spans with incremental drain.

    ``record`` stamps each span with a monotonically increasing ``seq``
    and a wall-clock ``ts``; ``drain_since(seq)`` returns the spans the
    spiller has not yet written (spans that fell off the ring before a
    drain are tallied in ``dropped`` rather than silently lost).
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = int(capacity)
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=self.capacity)
        self._seq = 0
        self._drained_seq = 0
        self._dropped = 0
        self._lock = threading.Lock()

    def record(
        self,
        trace_id: str,
        *,
        kind: str,
        tier: str,
        fingerprint: str,
        stages: Dict[str, float],
        batch_size: int = 1,
        status: str = "ok",
        **extra,
    ) -> None:
        span: Dict[str, object] = {
            "trace": trace_id,
            "ts": time.time(),
            "kind": kind,
            "tier": tier,
            "fingerprint": fingerprint,
            "batch_size": int(batch_size),
            "status": status,
            "stages": stages,
        }
        span.update(extra)
        with self._lock:
            self._seq += 1
            span["seq"] = self._seq
            if len(self._ring) == self.capacity:
                displaced = self._ring[0]
                if displaced["seq"] > self._drained_seq:
                    self._dropped += 1
            self._ring.append(span)

    def tail(self, n: int = 50) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._ring)[-int(n):]

    def drain_since(self, seq: int) -> List[Dict[str, object]]:
        """Spans recorded after *seq*, oldest first (for the spiller).

        Also advances the drained cursor: a span handed out here no
        longer counts as dropped when the ring later displaces it.
        """
        with self._lock:
            fresh = [s for s in self._ring if s["seq"] > seq]
            if fresh:
                last = fresh[-1]["seq"]
                if last > self._drained_seq:
                    self._drained_seq = last
            return fresh

    def find(self, trace_id: str) -> List[Dict[str, object]]:
        """Every ring-resident span for one trace ID (gateway + tiers)."""
        with self._lock:
            return [s for s in self._ring if s["trace"] == trace_id]

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._seq

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped


def merge_worker_stages(
    stages: Dict[str, float], worker_stages: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Fold worker-side stage timings into a gateway span's stages.

    Worker stages are namespaced with a ``worker_`` prefix so the two
    sides of the boundary stay distinguishable inside the one span.
    """
    if worker_stages:
        for name, seconds in worker_stages.items():
            stages[f"worker_{name}"] = float(seconds)
    return stages
