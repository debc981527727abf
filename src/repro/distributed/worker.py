"""The distributed tier's worker process: one shard slice, one loop.

Each worker is a single-threaded interpreter that owns a disjoint slice
of the fingerprint space: the gateway routes every request for a given
matrix to the same worker, so the worker's private
:class:`~repro.service.cache.ShardedEngineCache` slice holds the only
live engine for each of its matrices and no cross-process cache
coherence is ever needed.

Serving runs through :class:`~repro.service.host.EngineHost`, the same
engine host and serve step the in-process
:class:`~repro.service.service.TuningService` drains into: a batch of
plain single-vector requests arrives as one stacked shared-memory block
and a lone request as its own operand; either is served by one
``engine.execute``.  Distributed results are therefore
bitwise-identical to single-process serve (and to serial dispatch) by
construction, not by tolerance.

Protocol (all control messages are small picklable tuples; vectors ride
shared memory, see :mod:`repro.distributed.shm`):

====================================  ================================
gateway -> worker                     worker -> gateway
====================================  ================================
``("matrix", fp, matrix, deltas,``    —  (state transfer; the delta
``served)``                           list replays acked mutations on
                                      respawn; ``served`` primes the
                                      serving decision first)
``("batch", id, fp, spec)``           ``("done", id, fp, served,``
                                      ``stages)``
``("update", id, fp, delta)``         ``("update_done", id, fp, upd,``
                                      ``had_decision, stages)``
``("promote", id, tuner, info)``      ``("promoted", id)``
``("stats", id)``                     ``("stats_reply", id, snapshot)``
``("shutdown",)``                     —
—                                     ``("ready", index, backends)``
—                                     ``("heartbeat", n, snapshot)``
—                                     ``("error", id, kind, exc,``
                                      ``text)``
====================================  ================================

A batch ``spec`` dict carries only shared-memory references and scalar
metadata: ``x`` (operand :class:`~repro.distributed.shm.ShmRef` —
``(ncols, k)`` for a stacked batch), ``out`` (response ref the worker
writes into), ``reps`` (per-request repetitions), ``stacked`` (bool).
The worker answers every message even when serving fails — an
``("error", ...)`` reply carries the raised exception (when it pickles)
and its traceback text, so the gateway can fail exactly the affected
futures, with a typed error, instead of the whole worker.  A ``done``
reply carries the serve step's :class:`~repro.service.host.Served`
record with each result's ``y`` stripped (outputs are in the response
block); an ``update_done`` reply carries the engine's
:class:`~repro.runtime.epoch.StreamUpdate`.

Observability rides the existing messages instead of adding new ones:
every reply carries the worker-side span ``stages`` (``shm_attach``
/ ``kernel`` / ``shm_write``), which the gateway merges into the
request's span under its original trace ID, and every stats/heartbeat
snapshot is stamped with ``captured_monotonic`` so the gateway can tell
a stale busy-worker snapshot from a live one.

Heartbeats are emitted by a dedicated daemon thread, not the serve
loop, so a worker busy on one long operation (a large batch, a shadow
profile, a respawned worker replaying a long delta log — none of which
reply until done) keeps beating and is never mistaken for hung and
killed mid-work.  The beat thread shares the control pipe with the
serve loop through a lock (``Connection.send`` is not thread-safe).

Heartbeats double as accounting transport: every beat carries the
worker's most recent stats snapshot (refreshed by the serve loop after
every served message and while idle), so when a worker dies the
gateway folds the *last heartbeat's* snapshot into its retired totals
— at most the accounting tail since the last refresh is lost, and no
request accounting is (requests on a dead worker are retried and
recounted on the respawn).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict

from repro.kernels import available_backends
from repro.obs.metrics import Histogram
from repro.service.host import EngineHost
from repro.distributed.shm import SegmentCache, ShmRef

__all__ = ["WorkerConfig", "worker_main"]


@dataclass
class WorkerConfig:
    """Everything one worker process needs to build its serving slice.

    With the ``fork`` start method the config (tuner and execution-space
    objects included) is inherited by copy-on-write; nothing here needs
    to be picklable unless the platform forces ``spawn``.
    """

    index: int
    space: object
    tuner: object = None
    model_info: Dict[str, object] = field(default_factory=dict)
    capacity: int = 16
    shards: int = 4
    shadow_every: int = 0
    redecision: object = None
    heartbeat_interval: float = 0.25


class _WorkerState:
    """Mutable serving state of one worker incarnation.

    The engines live in an :class:`~repro.service.host.EngineHost`, the
    same host (and serve step) the in-process service drains into; what
    this class adds is the shared-memory plumbing and the worker-side
    counters its heartbeat snapshots carry.
    """

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.host = EngineHost(
            config.space,
            config.tuner,
            dict(config.model_info),
            capacity=max(1, config.capacity),
            shards=max(1, config.shards),
            shadow_every=config.shadow_every,
            redecision=config.redecision,
        )
        self.segments = SegmentCache()
        self.matrices: Dict[str, object] = {}
        self.requests_served = 0
        # worker-side service-time buckets: shipped raw in every
        # heartbeat snapshot so the gateway derives fleet p50/p99 from
        # merged buckets (repro.obs.metrics.merge_histogram_dumps), not
        # from per-worker summary statistics
        self.latency = Histogram("worker_latency")

    def serve_batch(self, fp: str, spec: Dict[str, object]):
        """Serve one batch spec; returns ``(served, stages)``.

        Outputs are written straight into the response ref, and the
        returned :class:`~repro.service.host.Served` carries accounting
        only (its result's ``y`` is stripped).  ``stages`` holds the
        worker-side span timings (``shm_attach`` / ``kernel`` /
        ``shm_write``), which the gateway merges into each request's
        span under its original trace ID — one span covering both sides
        of the process boundary.
        """
        matrix = self.matrices[fp]
        x_ref: ShmRef = spec["x"]
        out_ref: ShmRef = spec["out"]
        attach_start = time.perf_counter()
        X = self.segments.view(x_ref)
        out = self.segments.view(out_ref)
        attach_seconds = time.perf_counter() - attach_start
        n = spec["requests"]
        served = self.host.serve(
            fp,
            matrix,
            X,
            spec["repetitions"],
            requests=n,
            telemetry=bool(spec.get("telemetry", True)),
        )
        write_start = time.perf_counter()
        out[...] = served.result.y
        write_seconds = time.perf_counter() - write_start
        del X, out  # release the shm views before forgetting segments
        for ref in (x_ref, out_ref):
            if ref.slot is None:
                self.segments.forget(ref.segment)
        self.requests_served += n
        # every member of the batch experienced the batch's worker-side
        # wall time, so each contributes one observation of it
        batch_seconds = attach_seconds + served.kernel_seconds + write_seconds
        for _ in range(n):
            self.latency.observe(batch_seconds)
        served = served._replace(result=served.result._replace(y=None))
        # one shared stage dict per batch: the whole batch rode one
        # kernel launch, so its members share the worker-side timings
        stages = {
            "shm_attach": attach_seconds,
            "kernel": served.kernel_seconds,
            "shm_write": write_seconds,
        }
        return served, stages

    def serve_update(self, fp: str, delta):
        """Apply one mutation; returns ``(update, had_decision, stages)``.

        ``had_decision`` is recorded alongside the acked delta: a
        respawn replaying the log must re-derive the decision before
        this delta iff one existed now, or the rebuilt drift anchors
        diverge.
        """
        upd, had_decision, _, kernel_seconds = self.host.update(
            fp, delta, self.matrices[fp]
        )
        self.requests_served += 1
        self.latency.observe(kernel_seconds)
        return upd, had_decision, {"kernel": kernel_seconds}

    def install_matrix(self, fp: str, matrix, deltas, served=False) -> None:
        """Adopt one matrix, replaying its acked mutation log in order.

        On a fresh worker the log is empty; on a respawn it rebuilds the
        exact epoch the dead worker had acknowledged — each delta is a
        deterministic transformation, so the rebuilt matrix state and
        its epoch stamps reproduce bitwise.  ``served`` means the dead
        worker acknowledged at least one SpMV for this fingerprint, so a
        serving decision existed there; log entries additionally carry
        the ``had_decision`` flag the dead worker observed when it
        applied each delta.  Either way the decision is re-derived (it
        is deterministic) before the affected updates replay, so the
        stream's drift anchors rebuild exactly — without this, the
        replayed (or resent) updates take the no-decision early path and
        the next live update computes drift against the wrong anchor.
        The replay runs with ``replay=True`` so the rebuilt engine does
        not count the applications again: the dead incarnation already
        counted them, and its last-heartbeat snapshot folded them into
        the gateway's retired totals — recounting would make fleet
        ``stats()`` diverge from single-process accounting after every
        respawn.
        """
        self.matrices[fp] = matrix
        for delta, had_decision in deltas:
            with self.host.engines.lease(fp) as engine:
                if had_decision:
                    engine.prime_decision(fp, matrix=matrix)
                engine.update(fp, delta, matrix=matrix, replay=True)
        if served:
            # An SpMV acked between two logged deltas is already primed
            # at the right point by the later delta's flag; priming here
            # covers an SpMV acked after the last logged delta (or with
            # an empty log), from the same stream content it saw live.
            with self.host.engines.lease(fp) as engine:
                engine.prime_decision(fp, matrix=matrix)

    def snapshot(self) -> Dict[str, object]:
        """Accounting snapshot shipped with heartbeats and stats replies."""
        return {
            **self.host.accounting(),
            "index": self.config.index,
            "requests_served": self.requests_served,
            # raw log-bucket counts, not summary stats: the gateway
            # merges these across workers (and dead incarnations), so
            # fleet quantiles are bucket-exact
            "latency": self.latency.dump(),
            # CLOCK_MONOTONIC is machine-wide on Linux, so the gateway
            # can age this snapshot against its own clock: a stale
            # (busy-worker) heartbeat snapshot is distinguishable from
            # a fresh stats reply
            "captured_monotonic": time.monotonic(),
        }


def _error_reply(msg_id: int, kind: str, exc: Exception):
    """The ``("error", ...)`` reply for a message that raised *exc*.

    The exception itself rides the reply so the gateway can re-raise a
    typed :mod:`repro.errors` failure; one that does not survive a
    pickle round trip is replaced by ``None`` (the gateway then raises
    a generic error carrying the traceback text).
    """
    text = f"{exc!r}\n{traceback.format_exc()}"
    try:
        shipped = pickle.loads(pickle.dumps(exc))
    except Exception:
        shipped = None
    return ("error", msg_id, kind, shipped, text)


class _PipeSender:
    """Lock-serialised sender for the worker's control pipe.

    ``Connection.send`` is not thread-safe; the serve loop (replies)
    and the heartbeat thread (beats) share the pipe through this lock.
    Reading stays lock-free — only the serve loop ever receives.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def send(self, message) -> None:
        with self._lock:
            self._conn.send(message)


def _heartbeat_loop(sender, snapshot_box, interval: float, stop) -> None:
    """Beat every *interval* seconds until *stop* is set or the pipe dies.

    Runs in its own daemon thread so liveness is decoupled from the
    serve loop: a worker busy on one long operation (which replies only
    when done, or — for a respawn's matrix install — not at all) keeps
    beating instead of going heartbeat-stale and being killed mid-work,
    which would respawn it into replaying the same long work forever.
    Each beat ships the latest snapshot the serve loop published.
    """
    beat = 0
    while not stop.wait(interval):
        beat += 1
        try:
            sender.send(("heartbeat", beat, snapshot_box["snapshot"]))
        except (OSError, ValueError, BrokenPipeError):
            return  # pipe gone: the gateway is tearing us down


def worker_main(config: WorkerConfig, conn) -> None:
    """Entry point of one worker process; loops until shutdown.

    *conn* is the worker end of the duplex control pipe.  The loop
    serves queued messages and refreshes the accounting snapshot the
    heartbeat thread ships (after every served message, and on every
    ``config.heartbeat_interval`` poll timeout while idle).

    An idle poll timeout also checks that the gateway is still this
    process's parent.  Forked siblings inherit each other's pipe ends,
    so a gateway killed outright never shows up as EOF on *conn*; the
    worker notices instead when it is re-parented, and exits.
    """
    gateway_pid = os.getppid()
    state = _WorkerState(config)
    sender = _PipeSender(conn)
    snapshot_box = {"snapshot": state.snapshot()}
    stop_beating = threading.Event()
    beat_thread = threading.Thread(
        target=_heartbeat_loop,
        args=(
            sender,
            snapshot_box,
            config.heartbeat_interval,
            stop_beating,
        ),
        name=f"repro-worker-{config.index}-heartbeat",
        daemon=True,
    )
    try:
        sender.send(
            ("ready", config.index, {"backends": list(available_backends())})
        )
        beat_thread.start()
        while True:
            if not conn.poll(config.heartbeat_interval):
                if os.getppid() != gateway_pid:
                    break  # orphaned: the gateway died without a word
                snapshot_box["snapshot"] = state.snapshot()
                continue
            message = conn.recv()
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "matrix":
                _, fp, matrix, deltas, served = message
                state.install_matrix(fp, matrix, deltas, served=served)
            elif kind == "batch":
                _, batch_id, fp, spec = message
                try:
                    served, stages = state.serve_batch(fp, spec)
                except Exception as exc:
                    sender.send(_error_reply(batch_id, "batch", exc))
                else:
                    sender.send(("done", batch_id, fp, served, stages))
            elif kind == "update":
                _, update_id, fp, delta = message
                try:
                    upd, had_decision, stages = state.serve_update(fp, delta)
                except Exception as exc:
                    sender.send(_error_reply(update_id, "update", exc))
                else:
                    sender.send(
                        ("update_done", update_id, fp, upd, had_decision,
                         stages)
                    )
            elif kind == "promote":
                _, promote_id, tuner, info = message
                state.host.install(tuner, dict(info))
                sender.send(("promoted", promote_id))
            elif kind == "stats":
                _, req_id = message
                sender.send(("stats_reply", req_id, state.snapshot()))
            # unknown kinds are ignored: a newer gateway may speak a
            # superset of this protocol
            snapshot_box["snapshot"] = state.snapshot()
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass  # gateway went away: nothing left to serve
    finally:
        stop_beating.set()
        state.segments.close()
        try:
            conn.close()
        except Exception:
            pass
