"""Tuning-service benchmarks: coalescing wins and multi-client scaling.

Acceptance properties of the online service layer:

* at 8 concurrent clients hammering a small hot set of matrices, the
  coalescing service sustains **>= 2x** the throughput of naive
  one-request-one-SpMV dispatch (``max_batch=1``, same worker pool) —
  the per-request kernel launches collapse into batched multi-vector
  calls, which is the service-level restatement of the batched-SpMV win
  measured in ``bench_kernels.py``;
* coalesced concurrent results are **byte-identical** to serial
  dispatch through a plain :class:`~repro.runtime.engine.WorkloadEngine`
  (the batched CSR kernel accumulates each output element in the same
  order as the single-vector kernel);
* throughput scales with the client count (reported, not asserted —
  wall-clock scaling depends on host cores).

The coalescing win has two components — fewer kernel launches (the
batched CSR kernel serves 64 vectors for ~1/3 the per-vector cost) and
fewer dispatch cycles (one worker task + engine round per batch instead
of per request) — so the benchmark sits in the service's sweet spot of
small-to-mid matrices where both matter.  Trace operands are
materialised before the timed window and each configuration takes the
best of three runs; the whole benchmark stays under a few seconds.
Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import make_space
from repro.runtime.batch import dispatch
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService
from repro.trace import RecordedTrace, array_digest, replay_trace, spmv_trace

from benchmarks._emit import emit
from benchmarks.conftest import write_result

CLIENTS = 8
REQUESTS = 320
HOT_MATRICES = 2
SEED = 42


def _hot_trace(clients: int = CLIENTS) -> RecordedTrace:
    """A trace over a few hot matrices, operands materialised up front.

    The timed window must measure dispatch, not request generation.
    Each matrix runs one kernel call first (a format without its own
    kernel caches its CSR image per container, and replays share the
    trace's containers), so no timed window pays set-up.
    """
    from repro.datasets.generators import uniform_rows

    matrices = {
        f"hot-{i}": uniform_rows(3_000 + 1_000 * i, row_nnz=16, seed=SEED + i)
        for i in range(HOT_MATRICES)
    }
    for matrix in matrices.values():
        dispatch(matrix, np.zeros(matrix.ncols))
    rng = np.random.default_rng(SEED)
    names = list(matrices)
    keys = [names[int(rng.integers(0, len(names)))] for _ in range(REQUESTS)]
    trace = spmv_trace(matrices, keys, seed=SEED, sessions=clients)
    return trace.materialize()


def _service(
    max_batch: int, *, observability: bool = True
) -> TuningService:
    space = make_space("cirrus", "serial")
    return TuningService(
        space,
        tuner=None,
        workers=CLIENTS,
        capacity=8,
        shards=4,
        max_batch=max_batch,
        observability=observability,
    )


def _best_replay(max_batch: int, trace: RecordedTrace, *, trials: int = 3):
    """Best-of-N replay of *trace* (scheduler noise goes one way only)."""
    best = None
    for _ in range(trials):
        with _service(max_batch) as service:
            report = replay_trace(service, trace)
        if best is None or report.wall_seconds < best.wall_seconds:
            best = report
    return best


def test_coalescing_beats_naive_dispatch_at_8_clients():
    """Acceptance: coalesced throughput >= 2x naive, results bit-exact."""
    trace = _hot_trace()
    naive = _best_replay(1, trace)
    assert naive.service_stats["coalesced_batches"] == 0

    coalesced = _best_replay(64, trace)
    stats = coalesced.service_stats
    assert stats["coalesced_batches"] > 0

    # byte-identical to serial dispatch through a fresh engine
    assert coalesced.ok and coalesced.requests == REQUESTS
    engine = WorkloadEngine(make_space("cirrus", "serial"))
    for event, record in zip(trace.events, coalesced.records):
        serial = engine.execute(
            trace.matrix(event["key"]), trace.operand(event), key=event["key"]
        )
        assert record["y_digest"] == array_digest(serial.y), (
            f"request {event['seq']}: coalesced result differs from serial "
            "dispatch"
        )

    speedup = coalesced.throughput_rps / naive.throughput_rps
    mean_batch = (
        stats["coalesced_requests"] / stats["coalesced_batches"]
        if stats["coalesced_batches"]
        else 1.0
    )
    lines = [
        f"tuning service, {REQUESTS} requests, {CLIENTS} clients, "
        f"{HOT_MATRICES} hot matrices (~50-60k nnz each)",
        "-" * 66,
        f"{'naive dispatch (max_batch=1)':<38} "
        f"{naive.throughput_rps:8.0f} req/s  "
        f"({naive.wall_seconds:6.3f} s)",
        f"{'coalesced (max_batch=64)':<38} "
        f"{coalesced.throughput_rps:8.0f} req/s  "
        f"({coalesced.wall_seconds:6.3f} s)",
        f"{'throughput speedup':<38} {speedup:8.2f} x",
        f"{'kernel launches':<38} {stats['batches']:8d} "
        f"(vs {naive.service_stats['batches']} naive)",
        f"{'mean coalesced batch size':<38} {mean_batch:8.1f}",
        "",
    ]
    write_result("service_coalescing.txt", "\n".join(lines))
    emit(
        "service",
        config={
            "requests": REQUESTS,
            "clients": CLIENTS,
            "hot_matrices": HOT_MATRICES,
            "max_batch": 64,
        },
        metrics={
            "naive_rps": naive.throughput_rps,
            "coalesced_rps": coalesced.throughput_rps,
            "speedup": speedup,
            "kernel_launches": stats["batches"],
            "mean_batch": mean_batch,
        },
    )
    assert speedup >= 2.0, (
        f"coalesced throughput only {speedup:.2f}x naive dispatch "
        f"({coalesced.throughput_rps:.0f} vs {naive.throughput_rps:.0f} "
        "req/s) at 8 concurrent clients"
    )


def test_observability_overhead_gate():
    """Acceptance: spans + events on cost <= 3% p50 latency vs off.

    ``observability=False`` keeps the counters and histograms live
    (they are the service's accounting) but turns span and event
    recording into no-ops — so the gate isolates exactly the per-request
    cost the observability layer added: trace-ID minting, stage
    timestamps, span dict construction, and the ring append.  Medians
    are taken per replay and the best of N kept per configuration, so
    scheduler noise moves both sides the same way.
    """
    trace = _hot_trace()

    def best_p50(observability: bool, trials: int = 4):
        best, stats = None, None
        for _ in range(trials):
            with _service(64, observability=observability) as service:
                report = replay_trace(service, trace)
            latencies = sorted(report.latencies)
            p50 = latencies[len(latencies) // 2]
            if best is None or p50 < best:
                best, stats = p50, report.service_stats
        return best, stats

    off_p50, off_stats = best_p50(False)
    on_p50, on_stats = best_p50(True)
    # the instrumented side must actually have recorded spans — a gate
    # that accidentally measured two disabled runs proves nothing
    assert on_stats["observability"]["spans_recorded"] == REQUESTS
    assert off_stats["observability"]["spans_recorded"] == 0

    overhead = on_p50 / off_p50 - 1.0
    lines = [
        f"observability overhead, {REQUESTS} requests, {CLIENTS} clients",
        "-" * 66,
        f"{'p50 latency, spans+events off':<38} {1e3 * off_p50:8.3f} ms",
        f"{'p50 latency, spans+events on':<38} {1e3 * on_p50:8.3f} ms",
        f"{'overhead':<38} {100 * overhead:+8.2f} %",
        "",
    ]
    write_result("service_observability_overhead.txt", "\n".join(lines))
    emit(
        "service_observability",
        config={"requests": REQUESTS, "clients": CLIENTS},
        metrics={
            "p50_off_seconds": off_p50,
            "p50_on_seconds": on_p50,
            "overhead_fraction": overhead,
        },
    )
    # 3% relative plus a timer-granularity guard for sub-ms medians
    assert on_p50 <= off_p50 * 1.03 + 2.5e-4, (
        f"observability overhead {100 * overhead:.2f}% exceeds the 3% "
        f"p50 gate ({1e3 * on_p50:.3f} ms on vs {1e3 * off_p50:.3f} ms "
        "off)"
    )


def test_multi_client_throughput_scaling():
    """Report throughput at 1/2/4/8 clients through the coalescing path."""
    rows = []
    baseline = None
    for clients in (1, 2, 4, 8):
        trace = _hot_trace(clients)
        with _service(max_batch=64) as service:
            report = replay_trace(service, trace)
        assert report.service_stats["requests_served"] == REQUESTS
        if baseline is None:
            baseline = report.throughput_rps
        rows.append(
            f"{clients:>3} clients {report.throughput_rps:10.0f} req/s  "
            f"{report.throughput_rps / baseline:6.2f} x   mean latency "
            f"{1e3 * report.mean_latency_seconds:7.2f} ms"
        )
    lines = [
        f"multi-client scaling, {REQUESTS} requests, coalescing on",
        "-" * 66,
        *rows,
        "",
    ]
    write_result("service_scaling.txt", "\n".join(lines))
