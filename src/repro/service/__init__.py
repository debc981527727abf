"""Concurrent auto-tuning service: the online stack over the runtime.

The offline layers (``repro.core`` for tuning, ``repro.experiments`` for
training suites) produce models; this package *serves* them under
concurrent traffic, top-down:

* :mod:`~repro.service.service` — :class:`TuningService`, the one
  concurrent request front end: a worker pool executes decide ->
  convert -> execute (a blocking call on an idle service runs it on
  its own thread), concurrent requests against the same matrix
  coalesce into batched multi-vector kernel calls, and everything is
  accounted through one :meth:`~TuningService.stats` dict.
  :class:`Session` is the per-client programmatic API.
* :mod:`~repro.service.host` — :class:`~repro.service.host.EngineHost`,
  one engine cache plus the serve step every tier runs against it (the
  in-process pool here, each distributed worker process).
* :mod:`~repro.service.cache` — :class:`ShardedEngineCache`, the sharded
  capacity-bounded LRU of per-matrix
  :class:`~repro.runtime.engine.WorkloadEngine` instances (per-shard
  locks, eviction with accounting hand-off).
* :mod:`~repro.service.replay` — :func:`service_class`, the one map
  from a tier name to its service class, and :func:`service_for_suite`,
  a service serving a stored suite's exported model (``repro serve
  --store``).
  Traffic comes from :mod:`repro.trace`: generated or recorded traces,
  driven by :func:`~repro.trace.replay.replay_trace`.

See ``docs/service.md`` for the sharding, coalescing and eviction
semantics.
"""

from repro.service.cache import ShardedEngineCache
from repro.service.replay import service_class, service_for_suite
from repro.service.service import (
    ServiceResult,
    Session,
    TuningService,
    UpdateResult,
)

__all__ = [
    "ServiceResult",
    "Session",
    "ShardedEngineCache",
    "TuningService",
    "UpdateResult",
    "service_class",
    "service_for_suite",
]
