"""Distributed-tier benchmarks: worker scaling, identity, kill recovery.

Acceptance properties of the multi-process serving tier
(:class:`repro.distributed.DistributedService`):

* SpMV serve throughput scales **>= 2.5x** from 1 to 4 workers on a
  multi-core host (near-linear table printed for 1/2/4/8 workers) — the
  numpy-tier kernels release no GIL contention across processes, which
  is the whole point of the tier;
* every distributed result is **bitwise identical** to single-process
  serve (:class:`~repro.service.service.TuningService`) over the same
  trace — sharding by fingerprint must not change a single bit of any
  answer;
* a mid-trace ``SIGKILL`` of one worker loses **zero** requests: the
  killed shard's in-flight work is replayed onto the respawned worker
  and surviving shards are undisturbed.

The scaling assertion only means something with cores to scale onto, so
it is gated on ``os.cpu_count() >= 4`` (force with
``REPRO_BENCH_FORCE_SCALING=1``); identity and kill recovery hold on
any host and always run.  ``REPRO_BENCH_CHECK=1`` selects *check mode*
— the CI-sized workload that keeps the smoke job fast.  Results land in
``benchmarks/results/`` (table + ``BENCH_distributed.json``).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.datasets.generators import uniform_rows
from repro.distributed import DistributedService
from repro.service import TuningService
from repro.trace import RecordedTrace, replay_trace, spmv_trace

from benchmarks._emit import emit
from benchmarks.conftest import write_result

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")
CLIENTS = 4
REQUESTS = 64 if CHECK_MODE else 240
HOT_MATRICES = 4
NROWS = 2_000 if CHECK_MODE else 6_000
SEED = 42
WORKER_TABLE = (1, 2, 4, 8)


def _trace() -> RecordedTrace:
    matrices = {
        f"hot-{i}": uniform_rows(NROWS + 500 * i, row_nnz=16, seed=SEED + i)
        for i in range(HOT_MATRICES)
    }
    rng = np.random.default_rng(SEED)
    names = list(matrices)
    keys = [names[int(rng.integers(0, len(names)))] for _ in range(REQUESTS)]
    trace = spmv_trace(matrices, keys, seed=SEED, sessions=CLIENTS)
    return trace.materialize()


def _distributed(workers: int) -> DistributedService:
    return DistributedService(
        make_space("cirrus", "serial"),
        RunFirstTuner(),
        workers=workers,
        capacity=32,
        shards=16,
        shm_slot_bytes=1 << 17,
        shm_slots=64,
    )


def _single_process_report(trace: RecordedTrace):
    with TuningService(
        make_space("cirrus", "serial"), RunFirstTuner(), workers=CLIENTS
    ) as service:
        return replay_trace(service, trace)


def _assert_identical(trace, report, reference):
    assert report.ok and report.requests == len(trace), (
        f"lost {report.lost} of {len(trace)} requests"
    )
    mismatches = [
        got["seq"]
        for got, want in zip(report.records, reference.records)
        if got["y_digest"] != want["y_digest"]
    ]
    assert not mismatches, (
        f"{len(mismatches)}/{len(trace)} distributed results differ "
        f"bitwise from single-process serve (first: request {mismatches[0]})"
    )


def test_bitwise_identity_vs_single_process():
    """Every distributed result equals single-process serve, bit for bit."""
    trace = _trace()
    reference = _single_process_report(trace)
    with _distributed(2) as service:
        report = replay_trace(service, trace)
    _assert_identical(trace, report, reference)


def test_mid_trace_worker_kill_loses_zero_requests():
    """SIGKILL one worker mid-trace; every request must still be served."""
    trace = _trace()
    reference = _single_process_report(trace)
    kill_after = max(2, REQUESTS // 8)
    with _distributed(2) as service:
        victim = service.worker_of(trace.events[0]["key"])

        def killer():
            while service.obs.requests_served.value < kill_after:
                threading.Event().wait(0.002)
            service.kill_worker(victim)

        thread = threading.Thread(target=killer, name="bench-killer")
        thread.start()
        report = replay_trace(service, trace)
        thread.join()
        stats = report.service_stats
    dist = stats["distributed"]
    assert dist["supervisor"]["respawns"] >= 1
    assert dist["dead_workers"] >= 1
    _assert_identical(trace, report, reference)


def test_worker_scaling_table():
    """Throughput table over 1/2/4/8 workers; >= 2.5x at 4 on multi-core."""
    cores = os.cpu_count() or 1
    forced = os.environ.get("REPRO_BENCH_FORCE_SCALING", "") not in ("", "0")
    trace = _trace()
    rows = []
    throughput = {}
    for workers in WORKER_TABLE:
        if workers > max(2, 2 * cores) and not forced:
            continue  # oversubscribing a small host measures nothing
        with _distributed(workers) as service:
            report = replay_trace(service, trace)
        assert report.ok and report.requests == len(trace)
        throughput[workers] = report.throughput_rps
        rows.append(
            f"{workers:>3} workers {report.throughput_rps:10.0f} req/s  "
            f"{report.throughput_rps / throughput[1]:6.2f} x   mean latency "
            f"{1e3 * report.mean_latency_seconds:7.2f} ms"
        )
    lines = [
        f"distributed serve scaling, {REQUESTS} requests, {CLIENTS} clients,"
        f" {HOT_MATRICES} matrices, host cores: {cores}"
        + (" [check mode]" if CHECK_MODE else ""),
        "-" * 66,
        *rows,
        "",
    ]
    write_result("distributed_scaling.txt", "\n".join(lines))
    speedup_at_4 = (
        throughput[4] / throughput[1] if 4 in throughput else None
    )
    emit(
        "distributed",
        config={
            "requests": REQUESTS,
            "clients": CLIENTS,
            "matrices": HOT_MATRICES,
            "nrows": NROWS,
            "host_cores": cores,
            "check_mode": CHECK_MODE,
        },
        metrics={
            "throughput_rps": {str(w): t for w, t in throughput.items()},
            "speedup_4_over_1": speedup_at_4,
        },
    )
    if cores < 4 and not forced:
        pytest.skip(
            f"host has {cores} core(s): worker scaling is not measurable "
            "(set REPRO_BENCH_FORCE_SCALING=1 to assert anyway)"
        )
    assert speedup_at_4 is not None and speedup_at_4 >= 2.5, (
        f"serve throughput only {speedup_at_4:.2f}x from 1 to 4 workers "
        f"on a {cores}-core host (acceptance floor: 2.5x)"
    )
