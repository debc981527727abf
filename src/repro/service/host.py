"""The engine side of serving, written once for every tier.

:class:`EngineHost` owns one
:class:`~repro.service.cache.ShardedEngineCache` of per-matrix
:class:`~repro.runtime.engine.WorkloadEngine` instances and everything
that runs against it: the engine factory (bound to the deployed
``(tuner, info)`` pair), the serve step, the update step, the
model-install walk, the eviction fold (with optional demotion to a disk
tier) and the accounting snapshot.

The in-process :class:`~repro.service.service.TuningService` drains its
queues into one host; every distributed worker process hosts its own
slice.  Both tiers therefore run the same serve step — lease the
engine, read its model version and epoch, promote from the storage
tier on a miss, serve the batch's one operand (a stacked block or a
lone request's operand) through one ``execute``, then resolve
features and the shadow probe — so results and accounting are
bitwise-identical across tiers by construction.  A blocking request on
an idle in-process service runs :meth:`EngineHost.serve_one`: on a
live key with a warm chain that is the *warm step* — one shard-lock
region around one
:meth:`~repro.runtime.engine.WorkloadEngine.serve_warm` — and the same
full step otherwise.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.machine.stats import MatrixStats
from repro.runtime.batch import SERVING
from repro.runtime.engine import (
    STREAM_THRESHOLD_BYTES,
    EngineResult,
    WorkloadEngine,
)
from repro.service.accounting import (
    empty_engine_totals,
    fold_engine,
    fold_engine_stats,
)
from repro.service.cache import ShardedEngineCache

__all__ = ["EngineHost", "Served"]


class Served(NamedTuple):
    """What one serve step hands back to its tier."""

    #: The engine result for the batch's one operand (a stacked block
    #: is fanned out per request by
    #: :func:`~repro.service.coalesce.split_stacked`).
    result: EngineResult
    #: Model version stamped on the engine that served the batch.
    model_version: str
    #: Matrix epoch the whole batch was served at.
    epoch: int
    #: ``perf_counter`` stamp taken just before the kernel chain ran.
    kernel_start: float
    kernel_seconds: float
    #: Wall seconds spent re-attaching a demoted container (0 = none).
    promote_seconds: float = 0.0
    #: Wall seconds spent streaming row panels (0 = in-RAM serve).
    stream_seconds: float = 0.0
    #: The matrix's cached feature vector (telemetry batches only).
    features: Optional[np.ndarray] = None
    #: Rival per-format timings on shadow-probed batches, else ``None``.
    shadow: Optional[Dict[str, float]] = None


class EngineHost:
    """One engine cache plus the serve step every tier runs against it.

    Parameters mirror the serving knobs of
    :class:`~repro.service.service.TuningService`; ``storage`` is an
    optional :class:`~repro.storage.tier.StorageTier` (eviction demotes
    to it, a miss promotes from it) and ``obs`` the
    :class:`~repro.obs.Observability` that receives its tier events
    (required with ``storage``).
    """

    def __init__(
        self,
        space,
        tuner=None,
        model_info: Optional[Dict[str, object]] = None,
        *,
        capacity: int,
        shards: int,
        shadow_every: int = 0,
        redecision=None,
        stream_threshold_bytes: Optional[int] = STREAM_THRESHOLD_BYTES,
        stream_block_bytes: Optional[int] = None,
        storage=None,
        obs=None,
    ) -> None:
        self.space = space
        self.shadow_every = int(shadow_every)
        self.redecision = redecision
        self.stream_threshold_bytes = stream_threshold_bytes
        self.stream_block_bytes = stream_block_bytes
        self.storage = storage
        self.obs = obs
        # the authoritative (tuner, info) pair: read in one attribute
        # access by the engine factory so a freshly built engine can
        # never pair a new tuner with an old version stamp (or vice
        # versa) mid-promotion
        self.deployed = (tuner, model_info if model_info is not None else {})
        self.engines = ShardedEngineCache(
            self._make_engine,
            capacity=capacity,
            shards=shards,
            on_evict=self._retire_engine,
            # mutated stream content lives only in its engine; evicting
            # one would silently lose acknowledged updates
            pinned=lambda _key, engine: engine.has_mutated_streams(),
        )
        self._lock = threading.Lock()
        #: accounting folded in from engines evicted by the cache
        self._retired = empty_engine_totals()
        self._retired_profiles: Dict[str, Dict[str, float]] = {}
        #: key -> (the container promoted for it, the tier entry it was
        #: read from); set and popped under the key's shard lock
        self._origins: Dict[str, tuple] = {}
        self._shadow_counts: Dict[str, int] = {}

    def _make_engine(self) -> WorkloadEngine:
        tuner, info = self.deployed  # one read: tuner/version stay paired
        engine = WorkloadEngine(
            self.space,
            tuner=tuner,
            redecision=self.redecision,
            stream_threshold_bytes=self.stream_threshold_bytes,
            stream_block_bytes=self.stream_block_bytes,
        )
        engine.model_version = str(info.get("version", "-"))
        return engine

    def install(self, tuner, info: Dict[str, object]) -> None:
        """Deploy ``(tuner, info)`` to current and future engines.

        The pair is published first, so engines built during the walk
        already get it; the walk then re-stamps every engine that
        predates it under its cache shard lock, so a batch in flight
        finishes under the old model and no request sees a torn state.
        """
        self.deployed = (tuner, info)
        version = str(info.get("version", "-"))
        self.engines.apply(
            lambda _key, engine: engine.set_tuner(tuner, version=version)
        )

    # ------------------------------------------------------------------
    # the serve step
    # ------------------------------------------------------------------
    def serve(
        self,
        fp: str,
        matrix,
        operand: np.ndarray,
        repetitions: int = 1,
        *,
        requests: int = 1,
        telemetry: bool = False,
    ) -> Served:
        """Serve one drained batch under the fingerprint's engine lease.

        *operand* is the batch's one operand: the ``(ncols, k)`` block of
        its *requests* stacked single-vector requests, or a lone
        request's operand (with its *repetitions*), validated at
        submission.  Either way it is one ``engine.execute``.  *matrix*
        is the batch's first matrix: the operand, the features and the
        shadow probe resolve against it.
        ``telemetry`` also resolves the matrix's cached features; every
        ``shadow_every``-th batch per matrix (starting with the first)
        resolves the rival per-format timings.
        """
        with self.engines.lease(fp) as engine:
            return self._serve_leased(
                engine, fp, matrix, operand, repetitions, telemetry, requests
            )

    def serve_one(self, fp: str, matrix, operand, repetitions: int) -> Served:
        """Serve one blocking request.

        The warm step: when *fp* is live, no shadow cadence is set and
        its engine holds a warm chain, one shard-lock region touches the
        LRU, counts the engine-cache hit and runs
        :meth:`~repro.runtime.engine.WorkloadEngine.serve_warm` — the
        shape check, the kernel and the engine's accounting.  A live
        key without a warm chain (or one that streams) runs the full
        step in the same region; a key that is not live (cold, evicted
        or demoted to the storage tier) runs it under a lease.  Either
        way the engine cache counts one hit or miss.
        """
        shard = self.engines.live.get(fp)
        if shard is not None and not self.shadow_every:
            with shard.lock:
                engine = shard.touch(fp)
                if engine is not None:
                    kernel_start = time.perf_counter()
                    result = engine.serve_warm(fp, operand, repetitions)
                    if result is not None:
                        return Served(
                            result,
                            engine.model_version,
                            result.epoch,
                            kernel_start,
                            time.perf_counter() - kernel_start,
                        )
                    return self._serve_leased(
                        engine, fp, matrix, operand, repetitions, False
                    )
        with self.engines.lease(fp) as engine:
            return self._serve_leased(
                engine, fp, matrix, operand, repetitions, False
            )

    def _serve_leased(
        self,
        engine: WorkloadEngine,
        fp: str,
        matrix,
        operand: np.ndarray,
        repetitions: int,
        telemetry: bool,
        requests: int = 1,
    ) -> Served:
        """Body of :meth:`serve`, with *engine* already leased for *fp*."""
        features = shadow = None
        promote_seconds = 0.0
        # version and epoch move only under the shard lock the lease
        # holds, so the whole batch serves one model and one matrix version
        model_version = engine.model_version
        epoch = engine.epoch_of(fp)
        # a fresh engine (cache miss) first tries the disk tier: a
        # demoted container promotes back as mmap views instead of
        # paying the stats + tune + convert chain again
        if self.storage is not None and not engine.has_decision(fp):
            promote_seconds = self._promote_into(fp, engine)
        stream_before = engine.streaming["seconds"]
        kernel_start = time.perf_counter()
        result = engine.execute(
            matrix, operand, key=fp, repetitions=repetitions, requests=requests
        )
        kernel_seconds = time.perf_counter() - kernel_start
        stream_seconds = engine.streaming["seconds"] - stream_before
        if telemetry:
            features = engine.features_for(matrix, key=fp)
        if self.shadow_every > 0:
            # per-fp counters need no lock: same-fp serves are
            # already serialised by the shard lock held here
            count = self._shadow_counts.get(fp, 0)
            self._shadow_counts[fp] = count + 1
            if count % self.shadow_every == 0:
                shadow = engine.profile_formats(matrix, key=fp)
        return Served(
            result=result,
            model_version=model_version,
            epoch=epoch,
            kernel_start=kernel_start,
            kernel_seconds=kernel_seconds,
            promote_seconds=promote_seconds,
            stream_seconds=stream_seconds,
            features=features,
            shadow=shadow,
        )

    def update(
        self, fp: str, delta, matrix
    ) -> Tuple[object, bool, float, float]:
        """Apply one mutation under the shard lock.

        Returns ``(stream_update, had_decision, kernel_start,
        kernel_seconds)``; ``had_decision`` tells whether a serving
        decision existed when the delta applied (the distributed tier
        logs it so a respawn replay re-derives the decision first).
        """
        with self.engines.lease(fp) as engine:
            kernel_start = time.perf_counter()
            had_decision = engine.has_decision(fp)
            upd = engine.update(fp, delta, matrix=matrix)
        kernel_seconds = time.perf_counter() - kernel_start
        return upd, had_decision, kernel_start, kernel_seconds

    # ------------------------------------------------------------------
    # storage tier: demote on evict, promote on return
    # ------------------------------------------------------------------
    def _promote_into(self, fp: str, engine: WorkloadEngine) -> float:
        """Re-attach a demoted container into a fresh engine, if resident.

        Runs under the fingerprint's shard lock, so a promote can never
        race a demotion of the same key.  Every check of
        :meth:`~repro.storage.tier.StorageTier.promote` runs first.  An
        entry the engine's model decided, whose container serves that
        decision (:data:`~repro.runtime.batch.SERVING`), is adopted: the
        serving container (as read-only mmap views), the decided format,
        the persisted matrix statistics and a warm chain seeded with
        their price, so the request that promoted runs
        :meth:`~repro.runtime.engine.WorkloadEngine.serve_warm`.  Any
        other entry — decided by another model version (a missing stamp
        reads as ``"-"``), or an ELL, HYB or HDC container of an older
        layout — gives the engine only its statistics; the request
        re-decides and converts as a cold key does, and the key's next
        eviction rewrites the entry.  The decoded statistics and price
        are memoised on the tier entry, per space.  Returns the wall
        seconds spent (0.0 on a tier miss).
        """
        started = time.perf_counter()
        promoted = self.storage.promote(fp)
        if promoted is None:
            return 0.0
        entry = self.storage.promoted(promoted)
        decided = entry.extra.get("format", promoted.format)
        stats = entry.extra.get("stats")
        if (
            entry.extra.get("model_version", "-") != engine.model_version
            or SERVING.get(decided, ("",))[0] != promoted.format
        ):
            if isinstance(stats, dict):
                engine.prime_stats(fp, MatrixStats.from_dict(stats))
        else:
            seed = entry.memo.get(self.space)
            if seed is None and isinstance(stats, dict):
                stats = MatrixStats.from_dict(stats)
                price = self.space.time_spmv(stats, decided, matrix_key=fp)
                seed = entry.memo[self.space] = (stats, price)
            stats, price = seed or (None, None)
            engine.adopt_prepared(
                fp, promoted, stats=stats, price=price, format=decided
            )
            self._origins[fp] = (promoted, entry)
        elapsed = time.perf_counter() - started
        self.obs.event(
            "tier_promote",
            fingerprint=fp,
            format=decided,
            seconds=elapsed,
        )
        return elapsed

    def _demote_engine(self, key: str, engine: WorkloadEngine) -> None:
        """Spill an evicted engine's serving container to the disk tier.

        A container promoted from the entry the tier still indexes for
        *key* (a promoted engine being re-evicted) is not rewritten —
        the entry on disk is still its exact content — and is checked
        for in O(1) before any payload is built.  Demotion failures are
        reported through the event ring and never break eviction.
        """
        try:
            prepared = engine.serving_container(key)
            origin = self._origins.pop(key, None)
            if prepared is None or (
                origin is not None
                and origin[0] is prepared
                and self.storage.indexes(key, origin[1])
            ):
                return
            meta = engine.demote_payload(key, prepared)
            entry = self.storage.demote(key, prepared, extra=meta)
            self.obs.event(
                "tier_demote",
                fingerprint=key,
                format=meta["format"],
                nbytes=entry.nbytes,
            )
        except Exception as exc:
            self.obs.event(
                "tier_demote_error",
                fingerprint=key,
                error=type(exc).__name__,
                message=str(exc)[:200],
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _retire_engine(self, key: str, engine: WorkloadEngine) -> None:
        """Fold an evicted engine's accounting into the host totals.

        With a disk tier configured, eviction is a *demotion* first.
        The engine's per-format profile timings are kept
        (:meth:`profile_times`), so a telemetry baseline built from
        shadow probes survives the eviction of the engine that measured
        it.  The retired map and the per-matrix shadow-cadence counters
        are bounded: an unbounded stream of distinct matrices must not
        leak memory in a long-lived serving process.
        """
        if self.storage is not None:
            self._demote_engine(key, engine)
        profile = engine.profile_snapshot()
        # oldest-first cap on retired timings; 4x the engine capacity
        # keeps every plausibly-hot matrix while bounding the map
        cap = max(256, 4 * self.engines.capacity)
        with self._lock:
            self._shadow_counts.pop(key, None)  # re-probed on return
            fold_engine(self._retired, engine)
            for fp, times in profile.items():
                self._retired_profiles.setdefault(fp, times)
            while len(self._retired_profiles) > cap:
                self._retired_profiles.pop(next(iter(self._retired_profiles)))

    def profile_times(self) -> Dict[str, Dict[str, float]]:
        """Per-matrix per-format shadow timings, live *and* evicted.

        Live snapshots are taken under each engine's shard lock — a
        concurrent serve's first shadow probe inserts into the engine's
        timing table, and an unlocked walk could see it change size.
        """
        with self._lock:
            merged = {fp: dict(t) for fp, t in self._retired_profiles.items()}
        self.engines.apply(
            lambda _key, engine: merged.update(engine.profile_snapshot())
        )
        return merged

    def accounting(self) -> Dict[str, object]:
        """Engine totals (retired folds + live walks), cache counters and
        the profiled-matrix count: what ``stats()`` and the gauges show."""
        engines_total = empty_engine_totals()
        with self._lock:
            fold_engine_stats(engines_total, self._retired)
        for engine in self.engines.values():
            fold_engine(engines_total, engine)
        return {
            "engines": engines_total,
            "engine_cache": self.engines.stats(),
            "profiled_matrices": len(self.profile_times()),
        }
