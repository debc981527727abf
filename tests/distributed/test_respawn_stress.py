"""Time-bounded stress: back-to-back worker kills never wedge a gateway.

Each cycle builds a fresh two-worker gateway, queues a burst of requests
on one shard, SIGKILLs that shard's worker and waits for every request.
A kill lands while the dead incarnation's reader may be mid-``recv``,
and each respawn (and each shutdown) recycles pipe file descriptors, so
any pipe end closed behind its reader's back shows up here as a
replacement whose stream desynchronises and whose requests never
resolve.
"""

from __future__ import annotations

import numpy as np

from repro.core import RunFirstTuner
from repro.distributed import DistributedService

CYCLES = 30


def test_repeated_kills_resolve_every_request(space, matrix_a):
    rng = np.random.default_rng(11)
    for cycle in range(CYCLES):
        gateway = DistributedService(
            space,
            RunFirstTuner(),
            workers=2,
            heartbeat_interval=0.05,
            shm_slot_bytes=1 << 14,
            shm_slots=32,
        )
        try:
            xs = [rng.random(matrix_a.ncols) for _ in range(12)]
            futures = [gateway.submit(matrix_a, x, key="A") for x in xs]
            gateway.kill_worker(gateway.worker_of("A"))
            for x, future in zip(xs, futures):
                result = future.result(timeout=20)
                assert np.array_equal(result.y, matrix_a.spmv(x)), cycle
        finally:
            gateway.close()
