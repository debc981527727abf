"""The one generator of the service ``stats()`` schema.

Before this module every serving tier hand-assembled its own ``stats()``
dict and a convention test (``test_stats_schema.py``) policed that the
schemas had not drifted apart.  Now the schema exists in exactly one
place: :func:`build_service_stats` renders the common view from a
tier's :class:`~repro.obs.Observability` instruments plus the
engine-accounting blocks the tier folds itself, so in-process,
distributed, and adaptive serving are schema-identical **by
construction** — a tier cannot add, drop, or rename a common key
without every other tier getting the same change.

Tier-specific data (the distributed fleet block) hangs off its own
namespaced key *after* the common view is built, which is the one
extension point the cross-tier parity suite allows.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["build_service_stats"]


def build_service_stats(
    obs,
    *,
    space: str,
    workers: int,
    max_batch: int,
    model_info: Dict[str, object],
    engines_total: Dict[str, object],
    engine_cache: Dict[str, object],
    profiled_matrices: int,
) -> Dict[str, object]:
    """Render the common ``stats()`` view from a tier's instruments.

    *obs* supplies every request-path counter and the latency histogram
    (total/mean/max and the log-bucket p50/p99 all come from the same
    histogram, so they can never disagree); the caller supplies the
    engine-accounting blocks it aggregates (live + retired engines,
    cache counters, profiled-matrix count) and its deployed-model info.
    """
    latency = obs.latency.dump()
    served = obs.requests_served.value
    return {
        "space": space,
        "workers": workers,
        "max_batch": max_batch,
        "requests_submitted": obs.requests_submitted.value,
        "requests_served": served,
        "updates_served": obs.updates_served.value,
        "batches": obs.batches.value,
        "coalesced_batches": obs.coalesced_batches.value,
        "coalesced_requests": obs.coalesced_requests.value,
        "shadow_probes": obs.shadow_probes.value,
        "observer_errors": obs.observer_errors.value,
        "model": {**model_info, "promotions": obs.promotions.value},
        "latency": {
            "total_seconds": latency["sum"],
            "mean_seconds": latency["sum"] / served if served else 0.0,
            "max_seconds": latency["max"],
            "p50_seconds": latency["p50"],
            "p99_seconds": latency["p99"],
        },
        "profiled_matrices": profiled_matrices,
        "engine_cache": engine_cache,
        "engines": engines_total,
        # request counts and modelled seconds by kernel tier across
        # every engine the tier ever owned — the attribution surface
        # dashboards and the CLI report
        "backends": {
            kb: dict(v) for kb, v in engines_total["backends"].items()
        },
        "invalidations": {
            name: engines_total["invalidations"].get(name, 0)
            for name in (
                "epoch_advances",
                "carried_forward",
                "forced_retunes",
            )
        },
        "observability": {
            "spans_recorded": obs.spans.recorded,
            "spans_dropped": obs.spans.dropped,
            "events": obs.events.counts(),
        },
    }
