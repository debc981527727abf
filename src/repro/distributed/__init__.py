"""Multi-process distributed serving tier.

The in-process :class:`~repro.service.service.TuningService` is capped
by the GIL: concurrent numpy-tier SpMV requests serialize on one
interpreter, and one crash takes down every session.  This package
splits the service into a front-end **gateway** and N supervised
**worker processes**:

* :mod:`repro.distributed.gateway` —
  :class:`~repro.distributed.gateway.DistributedService`, a
  :class:`~repro.service.service.TuningService` subclass: the one
  serving front end (validation, coalescing, completion, failure
  handling, telemetry, ``stats()``) with a dispatch step that routes
  each matrix fingerprint to the worker that owns it, plus fleet-wide
  accounting;
* :mod:`repro.distributed.worker` — the single-threaded worker loop:
  each process hosts its own :class:`~repro.service.host.EngineHost`
  slice — the same engine cache and serve step the in-process tier
  runs, so distributed results are bitwise-identical to single-process
  serve by construction;
* :mod:`repro.distributed.shm` — the zero-copy vector transport:
  request/response vectors cross the process boundary through
  ``multiprocessing.shared_memory`` slots (pickling only for control
  messages), recycled when the client drops the result;
* :mod:`repro.distributed.supervisor` — process lifecycle: heartbeats,
  pipe-sentinel death detection, respawn + re-warm + state replay
  without disturbing in-flight requests on surviving workers.

See ``docs/distributed.md`` for the architecture, the shared-memory
protocol, and the failure model.
"""

from repro.distributed.gateway import DistributedService
from repro.distributed.shm import ShmRef, ShmVectorPool

__all__ = ["DistributedService", "ShmRef", "ShmVectorPool"]
