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
tier on a miss, serve a stacked block or a lone request through one
``execute`` and mixed requests through ``submit``/``flush``, then
resolve features and the shadow probe — so results and accounting are
bitwise-identical across tiers by construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machine.stats import MatrixStats
from repro.runtime.engine import (
    STREAM_THRESHOLD_BYTES,
    EngineResult,
    WorkloadEngine,
)
from repro.service.accounting import empty_engine_totals, fold_engine_stats
from repro.service.cache import ShardedEngineCache
from repro.service.coalesce import split_stacked
from repro.storage.stream import mmap_backed

__all__ = ["EngineHost", "Served"]


@dataclass
class Served:
    """What one serve step hands back to its tier."""

    #: Per-request engine results, in batch order.
    results: List[EngineResult]
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
        accelerate: bool = True,
        kernel_backend: Optional[str] = None,
        shadow_every: int = 0,
        redecision=None,
        stream_threshold_bytes: Optional[int] = STREAM_THRESHOLD_BYTES,
        stream_block_bytes: Optional[int] = None,
        storage=None,
        obs=None,
    ) -> None:
        self.space = space
        self.accelerate = accelerate
        self.kernel_backend = kernel_backend
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
        self._shadow_counts: Dict[str, int] = {}

    def _make_engine(self) -> WorkloadEngine:
        tuner, info = self.deployed  # one read: tuner/version stay paired
        engine = WorkloadEngine(
            self.space,
            tuner=tuner,
            accelerate=self.accelerate,
            redecision=self.redecision,
            kernel_backend=self.kernel_backend,
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
        work,
        *,
        telemetry: bool = False,
    ) -> Served:
        """Serve one coalesced batch under the fingerprint's engine lease.

        *work* is either one ``(ncols, k)`` block of stacked
        single-vector requests — served by a single ``engine.execute``
        and fanned out through
        :func:`~repro.service.coalesce.split_stacked` — or a list of
        ``(matrix, operand, repetitions)`` requests.  A lone request is
        served by one ``engine.execute`` as well; several go through the
        engine's ``submit``/``flush`` queue, which handles mixed shapes
        and per-request repetitions.  *matrix* is the batch's first
        matrix: the stacked block, the features and the shadow probe
        resolve against it.  ``telemetry`` also resolves the matrix's
        cached features; every ``shadow_every``-th batch per matrix
        (starting with the first) resolves the rival per-format timings.
        """
        features = shadow = None
        promote_seconds = 0.0
        with self.engines.lease(fp) as engine:
            # version and epoch move only under this shard lock, so the
            # whole batch serves one model and one matrix version
            model_version = engine.model_version
            epoch = engine.epoch_of(fp)
            # a fresh engine (cache miss) first tries the disk tier: a
            # demoted container promotes back as mmap views instead of
            # paying the stats + tune + convert chain again
            if self.storage is not None and not engine.has_decision(fp):
                promote_seconds = self._promote_into(fp, engine)
            stream_before = engine.streaming["seconds"]
            kernel_start = time.perf_counter()
            if isinstance(work, np.ndarray):
                block = engine.execute(matrix, work, key=fp)
                results = split_stacked(block, work.shape[1])
            elif len(work) == 1:
                # a lone request was validated at submission and keys to
                # *fp*: ``flush`` would only re-validate it and copy it
                # into a block, with the same results and counters
                request_matrix, operand, repetitions = work[0]
                results = [
                    engine.execute(
                        request_matrix, operand, key=fp, repetitions=repetitions
                    )
                ]
            else:
                for request_matrix, operand, repetitions in work:
                    engine.submit(
                        request_matrix,
                        operand,
                        key=fp,
                        repetitions=repetitions,
                    )
                results = engine.flush()
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
            results=results,
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
        race a demotion of the same key.  Restores the serving container
        (as read-only mmap views), the decided format + backend, and the
        persisted matrix statistics; returns the wall seconds spent (0.0
        on a tier miss).
        """
        started = time.perf_counter()
        promoted = self.storage.promote(fp)
        if promoted is None:
            return 0.0
        meta = self.storage.decision(fp) or {}
        stats_dict = meta.get("stats")
        engine.adopt_prepared(
            fp,
            promoted,
            backend=meta.get("backend"),
            stats=(
                MatrixStats.from_dict(stats_dict)
                if isinstance(stats_dict, dict)
                else None
            ),
        )
        elapsed = time.perf_counter() - started
        self.obs.event(
            "tier_promote",
            fingerprint=fp,
            format=promoted.format,
            seconds=elapsed,
        )
        return elapsed

    def _demote_engine(self, key: str, engine: WorkloadEngine) -> None:
        """Spill an evicted engine's serving container to the disk tier.

        A container that is *already* an mmap view of a resident tier
        entry (a promoted engine being re-evicted) is not rewritten —
        the entry on disk is still its exact content.  Demotion failures
        are reported through the event ring and never break eviction.
        """
        try:
            payload = engine.demote_payload(key)
            if payload is None:
                return
            prepared, meta = payload
            if key in self.storage and mmap_backed(prepared):
                return
            entry = self.storage.demote(key, prepared, extra=meta)
            self.obs.event(
                "tier_demote",
                fingerprint=key,
                format=prepared.format,
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
        stats = engine.stats()
        profile = engine.profile_snapshot()
        # oldest-first cap on retired timings; 4x the engine capacity
        # keeps every plausibly-hot matrix while bounding the map
        cap = max(256, 4 * self.engines.capacity)
        with self._lock:
            self._shadow_counts.pop(key, None)  # re-probed on return
            fold_engine_stats(self._retired, stats)
            for fp, times in profile.items():
                self._retired_profiles.setdefault(fp, dict(times))
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
            fold_engine_stats(engines_total, engine.stats())
        return {
            "engines": engines_total,
            "engine_cache": self.engines.stats(),
            "profiled_matrices": len(self.profile_times()),
        }
