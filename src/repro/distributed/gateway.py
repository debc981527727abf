"""The distributed tier: the shared front end over worker processes.

:class:`DistributedService` is a subclass of the one serving front end,
:class:`~repro.service.service.TuningService`: submission, validation,
coalescing, the drain loop, the completion and failure paths, telemetry,
model deployment and the ``stats()`` view are inherited, so sessions,
the replay driver and the adaptive controller work against either tier
unchanged.  What this module adds is the transport:

* each fingerprint is **owned** by exactly one worker process —
  ``worker_of(fp)`` is the same stable blake2b hash the engine cache
  shards by — so one worker holds the only live engine for a matrix and
  barrier semantics reduce to FIFO order on that worker's control pipe;
* the dispatch step ships a drained batch to its owner instead of
  serving it: vectors cross the process boundary through a
  :class:`~repro.distributed.shm.ShmVectorPool` (zero-copy views, slot
  recycling) and only control tuples are pickled; the worker's reply
  feeds the inherited completion path;
* workers are supervised (:mod:`repro.distributed.supervisor`): a dead
  worker's last-heartbeat accounting is folded into the gateway totals
  exactly as cache eviction folds an evicted engine, its shard slice is
  respawned and re-warmed, its matrices are re-shipped with their acked
  mutation logs replayed, and its in-flight requests are re-sent in
  submission order — zero requests lost, other workers undisturbed.

Exactly-once mutation semantics on the death path: the gateway's
per-fingerprint delta log contains only **acknowledged** updates.  A
respawned worker rebuilds matrix state by replaying that log, so
re-sending an unacknowledged in-flight update applies it exactly once
on the rebuilt state; SpMV re-sends are idempotent by nature.  Rebuilt
epoch stamps reproduce exactly because every delta application is
deterministic.  Delivery itself is also exactly-once per incarnation:
each in-flight entry records the incarnation it was last sent to, so a
sender that parked on a death gate while the respawn replay re-sent
the backlog cannot deliver its message a second time when the gate
reopens.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.formats.delta import MatrixDelta
from repro.formats.dynamic import DynamicMatrix
from repro.obs.metrics import merge_histogram_dumps
from repro.obs.spans import merge_worker_stages
from repro.service.accounting import empty_engine_totals, fold_engine_stats
from repro.service.cache import _stable_hash
from repro.service.coalesce import PendingRequest
from repro.service.service import TuningService
from repro.distributed.shm import ShmVectorPool
from repro.distributed.supervisor import Supervisor
from repro.distributed.worker import WorkerConfig
from repro.utils.concurrency import default_process_workers

__all__ = ["DistributedService"]


def _fold_snapshots(snapshots) -> Dict[str, object]:
    """Sum worker accounting snapshots into one fleet-wide snapshot.

    The result has the shape of a snapshot itself (``engines``,
    ``engine_cache``, ``profiled_matrices``, merged ``latency``
    buckets), so dead incarnations fold into one retired
    block that later folds with the live workers' snapshots.  Empty
    snapshots (a worker that never beat) are skipped.
    """
    engines = empty_engine_totals()
    cache: Dict[str, object] = {
        "capacity": 0,
        "shards": 0,
        "size": 0,
        "shard_sizes": [],
        "hits": 0,
        "misses": 0,
        "hit_rate": 0.0,
        "evictions": 0,
    }
    profiled = 0
    latency_dumps = []
    for snapshot in snapshots:
        if not snapshot:
            continue
        fold_engine_stats(
            engines, snapshot.get("engines") or empty_engine_totals()
        )
        profiled += int(snapshot.get("profiled_matrices", 0))
        latency_dumps.append(snapshot.get("latency") or {})
        worker_cache = snapshot.get("engine_cache") or {}
        for name in ("capacity", "shards", "size"):
            cache[name] += int(worker_cache.get(name, 0))
        for name in ("hits", "misses", "evictions"):
            cache[name] += int(worker_cache.get(name, 0))
        cache["shard_sizes"].extend(worker_cache.get("shard_sizes", ()))
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    return {
        "engines": engines,
        "engine_cache": cache,
        "profiled_matrices": profiled,
        "latency": merge_histogram_dumps(latency_dumps),
    }


class _Inflight:
    """One message awaiting a worker reply (and its resend material)."""

    __slots__ = (
        "msg_id",
        "kind",
        "worker",
        "fp",
        "batch",
        "x_ref",
        "out_ref",
        "message",
        "event",
        "reply",
        "sent_to",
        "dispatched_at",
        "deliveries",
        "shm_put_seconds",
    )

    def __init__(
        self,
        msg_id: int,
        kind: str,
        worker: int,
        *,
        fp: Optional[str] = None,
        batch: Optional[List[PendingRequest]] = None,
        x_ref=None,
        out_ref=None,
        message=None,
    ) -> None:
        self.msg_id = msg_id
        self.kind = kind
        self.worker = worker
        self.fp = fp
        self.batch = batch
        self.x_ref = x_ref
        self.out_ref = out_ref
        self.message = message
        self.event = threading.Event()
        self.reply = None
        #: Worker incarnation this entry was last delivered to, or
        #: ``None`` before the first successful send.  Sends dedupe on
        #: it: the respawn replay and a sender that was parked on the
        #: death gate both target the same replacement incarnation, and
        #: only one of them may actually deliver.
        self.sent_to: Optional[int] = None
        #: Span material: perf_counter stamp taken when the entry was
        #: built (after shm placement, as it leaves the dispatch path),
        #: seconds spent copying operands into shared memory, and how
        #: many successful deliveries the entry took (``deliveries - 1``
        #: = retries caused by worker deaths — the respawn replay
        #: re-sends under the same trace IDs).
        self.dispatched_at = time.perf_counter()
        self.deliveries = 0
        self.shm_put_seconds = 0.0


class DistributedService(TuningService):
    """Multi-process serving tier: the shared front end, remote engines.

    Parameters are those of :class:`~repro.service.service.TuningService`
    minus the storage/streaming knobs (``capacity`` is the *fleet-wide*
    engine budget, sliced evenly across workers), plus:

    workers:
        Number of worker processes.  ``None`` derives from the host's
        core count (:func:`repro.utils.concurrency
        .default_process_workers`).
    shm_slot_bytes / shm_slots:
        Geometry of the shared-memory vector pool; payloads that do not
        fit fall back to dedicated segments (see
        ``stats()["distributed"]["shm"]``).
    heartbeat_interval / heartbeat_timeout:
        Worker beat cadence and the staleness bound after which a
        silent worker is declared hung and killed.
    """

    # a drain returns once its batch is sent, so a submitting thread
    # would find nearly every fingerprint idle and run every drain
    # itself, and same-matrix requests would stop coalescing
    _caller_runs = False

    def __init__(
        self,
        space,
        tuner=None,
        *,
        workers: Optional[int] = None,
        capacity: int = 64,
        shards: int = 8,
        max_batch: int = 32,
        shadow_every: int = 0,
        redecision=None,
        shm_slot_bytes: int = 1 << 18,
        shm_slots: int = 128,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 10.0,
        observability: bool = True,
    ) -> None:
        # not TuningService.__init__: that builds an in-process engine
        # host and serving pool, and this tier's engines live in workers
        self._init_front_end(
            space,
            tuner,
            tier="distributed",
            workers=default_process_workers() if workers is None else workers,
            max_batch=max_batch,
            shadow_every=shadow_every,
            redecision=redecision,
            observability=observability,
        )
        self.capacity = int(capacity)
        self.shards = int(shards)
        self.heartbeat_interval = float(heartbeat_interval)
        self._kill_listener = None
        # request plumbing
        self._msg_ids = itertools.count(1)
        self._inflight: Dict[int, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._inflight_drained = threading.Condition(self._inflight_lock)
        self._matrices: Dict[str, object] = {}
        # acked (delta, had_decision-at-apply) pairs per fingerprint
        self._delta_log: Dict[str, List[Tuple[MatrixDelta, bool]]] = {}
        # fingerprints with at least one acked SpMV: serving derives a
        # tuner decision, so a respawn must re-derive it too
        self._served: set = set()
        self._matrix_synced: Dict[str, int] = {}
        self._state_lock = threading.Lock()
        # per-worker send serialisation + death gates (closed while a
        # dead worker's replacement is being replayed)
        self._worker_locks = [threading.Lock() for _ in range(self.workers)]
        self._worker_gates = [threading.Event() for _ in range(self.workers)]
        for gate in self._worker_gates:
            gate.set()
        labels = {"tier": self.obs.tier}
        self._retried_requests = self.obs.registry.counter(
            "retried_requests", labels=labels,
            help="Requests re-sent to a respawned worker after a death",
        )
        self._dead_workers = self.obs.registry.counter(
            "worker_deaths", labels=labels,
            help="Worker incarnations that died (crash, kill, hang)",
        )
        # accounting of dead worker incarnations, folded from their last
        # heartbeat snapshots into one snapshot-shaped block; their
        # latency buckets merge in too, so fleet quantiles keep covering
        # every request ever served
        self._metrics_lock = threading.Lock()
        self._retired: Dict[str, object] = {}
        # transport + fleet
        self.pool = ShmVectorPool(slot_bytes=shm_slot_bytes, slots=shm_slots)
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-gateway",
        )
        self.supervisor = Supervisor(
            self._make_config,
            on_message=self._on_message,
            on_death=self._on_death,
            on_respawn=self._on_respawn,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.supervisor.start(self.workers)

    # ------------------------------------------------------------------
    # fleet construction
    # ------------------------------------------------------------------
    def _make_config(self, index: int) -> WorkerConfig:
        """Build one worker's config; reads the *current* deployed model,
        so a respawned worker boots straight onto the promoted tuner."""
        tuner, info = self._deployed
        slice_capacity = max(1, self.capacity // self.workers)
        return WorkerConfig(
            index=index,
            space=self.space,
            tuner=tuner,
            model_info=dict(info),
            capacity=slice_capacity,
            shards=max(1, min(self.shards, slice_capacity)),
            shadow_every=self.shadow_every,
            redecision=self.redecision,
            heartbeat_interval=self.heartbeat_interval,
        )

    def worker_of(self, fp: str) -> int:
        """The worker that owns *fp* — same stable hash the cache shards
        by, so routing is reproducible across runs and processes."""
        return _stable_hash(fp) % self.workers

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, fp: str, batch: List[PendingRequest]):
        """Ship one drained batch to its owning worker; never waits.

        Batches pipeline into the owner's pipe (which preserves barrier
        order) and the reply handlers complete them, so there is no
        telemetry to hand back here.
        """
        with self._state_lock:
            # the first sighting is the base a respawn replays from: the
            # worker-side engine owns the matrix's evolution after it
            self._matrices.setdefault(fp, batch[0].matrix)
        if batch[0].kind == "update":
            self._dispatch_update(fp, batch[0])
        else:
            self._dispatch_batch(fp, batch)
        return [], []

    def _dispatch_batch(self, fp: str, batch: List[PendingRequest]) -> None:
        worker = self.worker_of(fp)
        matrix = batch[0].matrix
        concrete = (
            matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        )
        nrows, ncols = concrete.nrows, concrete.ncols
        shm_start = time.perf_counter()
        if len(batch) > 1:  # a stacked run of plain 1-D rep-1 requests
            x_ref = self.pool.reserve((ncols, len(batch)), np.float64)
            view = self.pool.view(x_ref)
            for j, request in enumerate(batch):
                view[:, j] = request.operand
            del view
            out_ref = self.pool.reserve((nrows, len(batch)), np.float64)
        else:
            operand = batch[0].operand
            x_ref = self.pool.place(operand)
            out_shape = (
                (nrows,) if operand.ndim == 1 else (nrows, operand.shape[1])
            )
            out_ref = self.pool.reserve(out_shape, np.float64)
        spec = {
            "x": x_ref,
            "out": out_ref,
            "repetitions": batch[0].repetitions,
            "requests": len(batch),
            "telemetry": self._observer is not None,
        }
        msg_id = next(self._msg_ids)
        entry = _Inflight(
            msg_id,
            "batch",
            worker,
            fp=fp,
            batch=batch,
            x_ref=x_ref,
            out_ref=out_ref,
            message=("batch", msg_id, fp, spec),
        )
        entry.shm_put_seconds = entry.dispatched_at - shm_start
        self._register_and_send(entry)

    def _dispatch_update(self, fp: str, request: PendingRequest) -> None:
        worker = self.worker_of(fp)
        msg_id = next(self._msg_ids)
        entry = _Inflight(
            msg_id,
            "update",
            worker,
            fp=fp,
            batch=[request],
            message=("update", msg_id, fp, request.delta),
        )
        self._register_and_send(entry)

    def _register_and_send(self, entry: _Inflight) -> None:
        with self._inflight_lock:
            self._inflight[entry.msg_id] = entry
        self._send_entry(entry)

    def _send_entry(self, entry: _Inflight) -> None:
        """Ship one inflight message, syncing matrix state first.

        The worker's gate is closed between a death and the completed
        replay of its replacement, so new sends can never overtake the
        re-sent backlog; the per-worker lock serialises the
        matrix-sync + send pair against concurrent drains.  A send that
        fails (worker just died) is deliberately left inflight — the
        respawn path re-sends it.
        """
        gate = self._worker_gates[entry.worker]
        if not gate.wait(timeout=60.0) and not self._closed:
            return  # respawn is wedged; the entry stays queued for it
        with self._worker_locks[entry.worker]:
            if not gate.is_set():
                # The worker died after we passed the gate.  The entry
                # was registered inflight before the death was handled,
                # so the respawn replay owns it now — sending here too
                # would deliver it twice to the replacement.
                return
            self._send_entry_locked(entry)

    def _send_entry_locked(self, entry: _Inflight) -> None:
        """Deliver *entry* to its worker's current incarnation, once.

        ``sent_to`` makes the delivery exactly-once per incarnation: a
        sender that registered its entry and then parked on the death
        gate wakes *after* the respawn replay already re-sent the whole
        backlog to the replacement — without the dedupe it would send
        the same message a second time (double-applying an update's
        delta, or re-serving a batch whose shm slots the first ``done``
        reply already recycled).  A failed send leaves ``sent_to``
        untouched, so the next respawn's replay still re-delivers.
        """
        incarnation = self.supervisor.handle(entry.worker).incarnation
        if entry.sent_to == incarnation:
            return  # already delivered to this incarnation
        if entry.fp is not None:
            self._sync_matrix(entry.worker, entry.fp, incarnation)
        if self.supervisor.send(
            entry.worker, entry.message, expect=incarnation
        ):
            entry.sent_to = incarnation
            entry.deliveries += 1

    def _sync_matrix(self, worker: int, fp: str, incarnation: int) -> None:
        """Ship matrix + acked delta log once per worker incarnation.

        ``incarnation`` pins both the dedupe check and the send to the
        incarnation the caller is about to address, so a replacement
        spawned mid-send can never be skipped (it would miss the
        matrix) or half-served (matrix delivered to one incarnation,
        the batch to the next).
        """
        with self._state_lock:
            if self._matrix_synced.get(fp) == incarnation:
                return
            matrix = self._matrices.get(fp)
            deltas = list(self._delta_log.get(fp, ()))
            served = fp in self._served
        if matrix is None:
            return
        if self.supervisor.send(
            worker, ("matrix", fp, matrix, deltas, served), expect=incarnation
        ):
            with self._state_lock:
                self._matrix_synced[fp] = incarnation

    # ------------------------------------------------------------------
    # worker replies: each feeds the shared completion / failure path
    # ------------------------------------------------------------------
    def _on_message(self, index: int, incarnation: int, message) -> None:
        kind = message[0]
        if kind == "done":
            self._on_done(message)
        elif kind == "update_done":
            self._on_update_done(message)
        elif kind == "error":
            self._on_error(message)
        elif kind in ("promoted", "stats_reply"):
            msg_id = message[1]
            entry = self._take_inflight(msg_id)
            if entry is not None:
                entry.reply = message[2] if len(message) > 2 else None
                entry.event.set()
        # "ready" needs no action here: supervisor tracks readiness and
        # the respawn path owns state replay

    def _take_inflight(self, msg_id: int) -> Optional[_Inflight]:
        with self._inflight_lock:
            entry = self._inflight.pop(msg_id, None)
            if entry is not None and not self._inflight:
                self._inflight_drained.notify_all()
            return entry

    def _on_done(self, message) -> None:
        _, msg_id, fp, served, worker_stages = message
        entry = self._take_inflight(msg_id)
        if entry is None:
            return  # duplicate reply after a resend race
        with self._state_lock:
            # an acked SpMV means the worker holds a serving decision
            # for this fingerprint — a respawn must re-derive it or its
            # next update anchors drift differently than the dead
            # worker's would have
            self._served.add(fp)
        # the result arrives without y: it is the shared-memory response
        # block, whose column j is request j's output in a stacked batch
        served = served._replace(
            result=served.result._replace(
                y=self.pool.view(entry.out_ref, release_with_view=True)
            )
        )
        self.pool.release(entry.x_ref)
        stages = {
            "shm_put": entry.shm_put_seconds,
            "rpc": time.perf_counter() - entry.dispatched_at,
        }
        merge_worker_stages(stages, worker_stages)
        self._deliver_telemetry(
            *self._complete_batch(
                fp,
                entry.batch,
                served,
                queued_until=entry.dispatched_at - entry.shm_put_seconds,
                stages=stages,
                **self._span_fields(entry),
            )
        )

    def _on_update_done(self, message) -> None:
        _, msg_id, fp, upd, had_decision, worker_stages = message
        entry = self._take_inflight(msg_id)
        if entry is None:
            return
        request = entry.batch[0]
        with self._state_lock:
            # the log holds *acknowledged* deltas only: replay on a
            # respawn rebuilds exactly the state this worker confirmed.
            # had_decision rides along so the replay re-derives the
            # serving decision before deltas that were applied under one
            self._delta_log.setdefault(fp, []).append(
                (request.delta, bool(had_decision))
            )
        stages = {"rpc": time.perf_counter() - entry.dispatched_at}
        merge_worker_stages(stages, worker_stages)
        self._deliver_telemetry(
            *self._complete_update(
                fp,
                request,
                upd,
                queued_until=entry.dispatched_at,
                stages=stages,
                **self._span_fields(entry),
            )
        )

    @staticmethod
    def _span_fields(entry: _Inflight) -> Dict[str, int]:
        # respawn replays re-send under the same trace IDs; deliveries
        # beyond the first are the retries a worker death caused
        return {
            "worker": entry.worker,
            "retries": max(0, entry.deliveries - 1),
        }

    def _on_error(self, message) -> None:
        """Fail a batch the worker could not serve, with a typed error.

        The worker ships the raised exception itself: a
        :class:`~repro.errors.ReproError` is re-raised as is, anything
        else becomes a :class:`ReproError` carrying the worker-side
        traceback text.
        """
        _, msg_id, kind, exc, text = message
        entry = self._take_inflight(msg_id)
        if entry is None:
            return
        for ref in (entry.x_ref, entry.out_ref):
            if ref is not None:
                self.pool.release(ref)
        if not isinstance(exc, ReproError):
            exc = ReproError(f"worker {kind} failed: {text}")
        self._fail(entry.fp, entry.batch, exc, worker=entry.worker)

    # ------------------------------------------------------------------
    # death + recovery
    # ------------------------------------------------------------------
    def _on_death(self, index: int, snapshot: Dict[str, object]) -> None:
        """Fold the dead incarnation's accounting; close its gate."""
        self._worker_gates[index].clear()
        self._dead_workers.inc()
        self.obs.event(
            "worker_death",
            worker=int(index),
            had_snapshot=bool(snapshot),
            requests_served=int(snapshot.get("requests_served", 0))
            if snapshot
            else 0,
        )
        if snapshot:
            # a dead slice holds no engines: only its cumulative cache
            # counters carry over, not its capacity or occupancy
            cache = snapshot.get("engine_cache") or {}
            dead = {
                **snapshot,
                "engine_cache": {
                    name: cache.get(name, 0)
                    for name in ("hits", "misses", "evictions")
                },
            }
            with self._metrics_lock:
                self._retired = _fold_snapshots((self._retired, dead))
        # fail any stats poll aimed at the dead incarnation
        with self._inflight_lock:
            stale = [
                e
                for e in self._inflight.values()
                if e.worker == index and e.kind == "stats"
            ]
        for entry in stale:
            entry.reply = None
            entry.event.set()
            self._take_inflight(entry.msg_id)

    def _on_respawn(self, index: int) -> None:
        """Replay the dead worker's backlog, then reopen its gate.

        Pending batches and updates re-send in original submission
        order (message ids are monotonic); each fingerprint's matrix is
        re-shipped with its acked delta log first, so the replacement
        rebuilds the exact acknowledged state before any retried
        request touches it.
        """
        with self._inflight_lock:
            backlog = sorted(
                (
                    e
                    for e in self._inflight.values()
                    if e.worker == index and e.kind != "stats"
                ),
                key=lambda e: e.msg_id,
            )
        with self._worker_locks[index]:
            for entry in backlog:
                self._send_entry_locked(entry)
        retried = sum(len(e.batch or ()) for e in backlog)
        if retried:
            self._retried_requests.inc(retried)
        self.obs.event(
            "worker_respawn", worker=int(index), retried_requests=retried
        )
        self._worker_gates[index].set()

    def kill_worker(self, index: int) -> Optional[int]:
        """Failure-injection hook: SIGKILL one worker (tests, drills).

        A registered kill listener (:meth:`set_kill_listener`) is told
        about every injected kill — how trace capture records fault
        drills as replayable events.  Listener errors are swallowed:
        observation must not break the drill.
        """
        pid = self.supervisor.kill(index)
        listener = self._kill_listener
        if listener is not None:
            try:
                listener(int(index), pid)
            except Exception:
                pass
        return pid

    def set_kill_listener(self, listener) -> None:
        """Install (or clear, with ``None``) the injected-kill listener.

        Called as ``listener(index, pid)`` after each
        :meth:`kill_worker`; the trace recorder uses this to capture
        kill events alongside the requests they interleave with.
        """
        self._kill_listener = listener

    # ------------------------------------------------------------------
    # model install
    # ------------------------------------------------------------------
    def _install_model(self, tuner, info: Dict[str, object]) -> None:
        """Broadcast ``(tuner, info)`` to every worker; await the acks.

        Each worker installs it under its engine-cache shard locks (the
        in-process atomicity contract).  The broadcast goes through the
        death gates: a worker that dies mid-broadcast is re-sent the
        promotion by the respawn replay, and boots onto the new model
        anyway because respawned configs read the published pair.
        """
        self._round_trip(
            "promote", tuner, dict(info), timeout=30.0, gated=True
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _round_trip(
        self, kind: str, *payload, timeout: float, gated: bool
    ) -> List[_Inflight]:
        """Send ``(kind, msg_id, *payload)`` to every worker and wait up
        to *timeout* seconds for the replies (``entry.reply``).

        A *gated* send waits out a respawn in progress (see
        :meth:`_send_entry`); an ungated one fails fast on a dead
        worker, leaving its reply ``None``.
        """
        entries = []
        for index in range(self.workers):
            msg_id = next(self._msg_ids)
            entry = _Inflight(
                msg_id, kind, index, message=(kind, msg_id, *payload)
            )
            entries.append(entry)
            if gated:
                self._register_and_send(entry)
                continue
            with self._inflight_lock:
                self._inflight[msg_id] = entry
            if not self.supervisor.send(index, entry.message):
                entry.event.set()
        deadline = time.monotonic() + timeout
        for entry in entries:
            entry.event.wait(max(0.0, deadline - time.monotonic()))
            self._take_inflight(entry.msg_id)
        return entries

    def _poll_workers(self) -> List[Dict[str, object]]:
        """Every worker's accounting snapshot, freshly polled.

        Falls back to the last heartbeat snapshot for workers that are
        down or slow — stats() degrades, it never blocks serving.
        """
        return [
            entry.reply
            or dict(self.supervisor.handle(entry.worker).last_snapshot)
            for entry in self._round_trip("stats", timeout=5.0, gated=False)
        ]

    def _snapshot_ages(self) -> List[Optional[float]]:
        """Per-worker heartbeat-snapshot age in seconds (None = never).

        Workers stamp snapshots with ``captured_monotonic``; on Linux
        ``CLOCK_MONOTONIC`` is machine-wide, so the gateway can age a
        worker-side stamp against its own clock.  The age tells a live
        snapshot from a stale one (a busy worker stops heartbeating, a
        dead worker's last snapshot freezes).
        """
        now = time.monotonic()
        ages: List[Optional[float]] = []
        for index in range(self.workers):
            snapshot = self.supervisor.handle(index).last_snapshot
            captured = (snapshot or {}).get("captured_monotonic")
            ages.append(
                max(0.0, now - float(captured))
                if captured is not None
                else None
            )
        return ages

    def _heartbeat_snapshots(self) -> List[Dict[str, object]]:
        return [
            dict(self.supervisor.handle(index).last_snapshot or {})
            for index in range(self.workers)
        ]

    def _accounting(self, *, poll: bool) -> Dict[str, object]:
        """Fleet totals: live remote engines, engines retired by
        worker-local eviction, and dead incarnations' last heartbeats.

        ``stats()`` polls every worker; the gauge collector reads the
        last heartbeat snapshots, so a registry dump never does IPC.
        """
        snapshots = (
            self._poll_workers() if poll else self._heartbeat_snapshots()
        )
        with self._metrics_lock:
            retired = self._retired
        return _fold_snapshots((retired, *snapshots))

    def _tier_stats(self, totals: Dict[str, object]) -> Dict[str, object]:
        """The ``distributed`` block: fleet health and transport usage."""
        return {
            "distributed": {
                "fingerprints": len(self._matrices),
                "retried_requests": self._retried_requests.value,
                "dead_workers": self._dead_workers.value,
                "supervisor": self.supervisor.stats(),
                "shm": self.pool.stats(),
                "worker_backends": [
                    list(
                        self.supervisor.handle(i).backends.get("backends", ())
                    )
                    for i in range(self.workers)
                ],
                "worker_snapshot_age_seconds": self._snapshot_ages(),
                # bucket-merged worker-side service-time distribution:
                # the fleet's p50/p99 as one histogram would have seen it
                "worker_latency": totals["latency"],
            }
        }

    def _tier_gauges(self, registry, labels, totals) -> None:
        worker_latency = totals["latency"]
        registry.gauge("worker_latency_requests", labels=labels).set(
            worker_latency["count"]
        )
        registry.gauge("worker_latency_p50_seconds", labels=labels).set(
            worker_latency["p50"]
        )
        registry.gauge("worker_latency_p99_seconds", labels=labels).set(
            worker_latency["p99"]
        )
        supervisor = self.supervisor.stats()
        registry.gauge("workers_alive", labels=labels).set(
            supervisor.get("alive", 0)
        )
        registry.gauge("worker_respawns", labels=labels).set(
            supervisor.get("respawns", 0)
        )
        for index, age in enumerate(self._snapshot_ages()):
            if age is not None:
                registry.gauge(
                    "worker_snapshot_age_seconds",
                    labels={**labels, "worker": str(index)},
                ).set(age)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting requests and tear the fleet down.

        With ``wait=True`` every already-submitted request is served
        first: queued drains dispatch (see
        :meth:`TuningService.close`), then in-flight replies are awaited
        for up to *timeout* seconds.  The shared-memory pool is closed
        last: every segment is unlinked, and segments backing
        still-alive client result arrays unmap when those arrays are
        garbage collected.
        """
        if self._closed:
            return
        super().close(wait=wait)
        if wait:
            deadline = time.monotonic() + timeout
            with self._inflight_drained:
                while (
                    any(
                        e.kind in ("batch", "update")
                        for e in self._inflight.values()
                    )
                    and time.monotonic() < deadline
                ):
                    self._inflight_drained.wait(0.1)
        else:
            with self._inflight_lock:
                leftovers = list(self._inflight.values())
                self._inflight.clear()
            for entry in leftovers:
                for request in entry.batch or ():
                    request.future.cancel()
                entry.event.set()
        for gate in self._worker_gates:
            gate.set()  # unblock any sender wedged on a dead worker
        self.supervisor.shutdown()
        self.pool.close()
