"""Engine-accounting folding shared by the serving tiers.

Both the in-process :class:`~repro.service.service.TuningService` and the
multi-process :class:`~repro.distributed.gateway.DistributedService`
present one ``stats()["engines"]`` block that aggregates every
:meth:`~repro.runtime.engine.WorkloadEngine.stats` dict the tier has ever
owned — live engines, engines evicted from a cache, and (in distributed
mode) engines hosted by remote or since-dead worker processes.  The
folding arithmetic lives here so the two tiers can never drift apart on
the schema: the keys of :func:`empty_engine_totals` are the locked
contract (``tests/obs/test_stats_parity.py`` pins it).  An aggregated
block is shaped like one engine's stats dict for every key the fold
touches, so blocks fold into each other the same way.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ENGINE_TOTAL_KEYS",
    "empty_engine_totals",
    "fold_engine",
    "fold_engine_stats",
]

#: The locked key set of an aggregated ``stats()["engines"]`` block.
ENGINE_TOTAL_KEYS = (
    "requests_served",
    "seconds",
    "counters",
    "invalidations",
    "backends",
    "streaming",
)


def empty_engine_totals() -> Dict[str, object]:
    """A zeroed aggregation block with the locked key schema."""
    return {
        "requests_served": 0,
        "seconds": {
            "tuning": 0.0,
            "conversion": 0.0,
            "spmv": 0.0,
        },
        "counters": {},
        "invalidations": {},
        "backends": {},
        "streaming": {"requests": 0, "blocks": 0, "seconds": 0.0},
    }


def fold_engine_stats(totals: Dict[str, object], stats: Dict[str, object]) -> None:
    """Fold one :meth:`WorkloadEngine.stats` dict into *totals* in place."""
    totals["requests_served"] += stats["requests_served"]
    for block in ("seconds", "counters", "invalidations", "streaming"):
        into = totals[block]
        for name, value in stats[block].items():
            into[name] = into.get(name, 0) + value
    backends = totals["backends"]
    for kb, entry in stats["backends"].items():
        slot = backends.setdefault(kb, {"requests": 0, "seconds": 0.0})
        slot["requests"] += entry["requests"]
        slot["seconds"] += entry["seconds"]


def fold_engine(totals: Dict[str, object], engine) -> None:
    """:func:`fold_engine_stats` of *engine*, read from its counters in
    place: no :meth:`WorkloadEngine.stats` snapshot is built."""
    fold_engine_stats(
        totals,
        {
            "requests_served": engine.requests_served,
            "seconds": engine.seconds,
            "counters": vars(engine.counters),
            "invalidations": vars(engine.invalidations),
            "backends": engine.backend_seconds,
            "streaming": engine.streaming,
        },
    )
