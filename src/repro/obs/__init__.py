"""repro.obs — the unified observability layer.

One subsystem, three pillars, shared by every serving tier:

* **metrics** (:mod:`repro.obs.metrics`) — a typed registry of
  counters, gauges, and fixed log-bucket histograms that the service,
  gateway, workers (via accounting folds), and adaptive controller
  register into.  The hand-assembled per-tier ``stats()`` dicts are now
  *views* rendered from these instruments by one generator
  (:mod:`repro.obs.views`), and the registry dumps to Prometheus-style
  text and JSONL snapshots with identical values by construction;
* **spans** (:mod:`repro.obs.spans`) — a trace ID minted at
  ``submit()`` and propagated through coalesced batches, pickled
  control messages, shared-memory round-trips, respawn replays, and
  results, with per-stage timings in a bounded ring + JSONL spill;
* **events** (:mod:`repro.obs.events`) — structured incident records
  (observer failures, worker deaths) instead of bare counter bumps.

:class:`Observability` is the per-service facade bundling the three:
the standard request-path instruments every tier shares (so the view
generator can rely on them), the span ring, and the event ring.
``enabled=False`` turns span/event recording into no-ops — the
baseline the ``bench_service.py`` overhead gate compares against —
while the counters and histograms stay live because they *are* the
service's accounting.

The spill side lives in :mod:`repro.obs.spill` (the ``serve
--metrics-dir`` periodic writer) and :mod:`repro.obs.dashboard`
(``repro top`` / ``repro metrics`` read the spill directory back).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import EventRing
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    render_prometheus,
)
from repro.obs.spans import SpanRecorder, merge_worker_stages, mint_trace_id

__all__ = [
    "Counter",
    "EventRing",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Observability",
    "SpanRecorder",
    "bucket_quantile",
    "merge_worker_stages",
    "mint_trace_id",
    "render_prometheus",
]


class Observability:
    """Per-service observability bundle: instruments + spans + events.

    Creates the standard request-path instruments every serving tier
    shares (labelled with the tier name, so a process hosting several
    tiers — a gateway and an adaptive controller, say — exposes them
    side by side in one registry).  Tier-specific instruments are
    created directly on :attr:`registry`.
    """

    def __init__(
        self,
        *,
        tier: str,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        span_capacity: int = 4096,
        event_capacity: int = 1024,
    ) -> None:
        self.tier = tier
        self.enabled = bool(enabled)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanRecorder(span_capacity)
        self.events = EventRing(event_capacity)
        labels = {"tier": tier}
        r = self.registry
        self.requests_submitted = r.counter(
            "requests_submitted", labels=labels,
            help="Requests accepted by submit()/submit_update()",
        )
        self.requests_served = r.counter(
            "requests_served", labels=labels,
            help="Requests completed (compute + mutation)",
        )
        self.updates_served = r.counter(
            "updates_served", labels=labels,
            help="Mutation (delta) requests completed",
        )
        self.batches = r.counter(
            "batches", labels=labels,
            help="Drains served (one kernel launch each)",
        )
        self.coalesced_batches = r.counter(
            "coalesced_batches", labels=labels,
            help="Batches that coalesced more than one request",
        )
        self.coalesced_requests = r.counter(
            "coalesced_requests", labels=labels,
            help="Requests served inside coalesced batches",
        )
        self.shadow_probes = r.counter(
            "shadow_probes", labels=labels,
            help="Shadow-profiling probes resolved for telemetry",
        )
        self.observer_errors = r.counter(
            "observer_errors", labels=labels,
            help="Telemetry observer callbacks that raised",
        )
        self.promotions = r.counter(
            "model_promotions", labels=labels,
            help="Hot model swaps applied",
        )
        self.latency = r.histogram(
            "request_latency_seconds", labels=labels,
            help="Submit-to-completion wall latency (log-2 buckets)",
        )

    # -- recording (gated by ``enabled``) ------------------------------
    def span(self, trace_id: str, **kwargs) -> None:
        """Record one completed request span (no-op when disabled)."""
        if self.enabled:
            self.spans.record(trace_id, tier=self.tier, **kwargs)

    def event(self, kind: str, **fields) -> None:
        """Emit one structured event (no-op when disabled)."""
        if self.enabled:
            self.events.emit(kind, **fields)
