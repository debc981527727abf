"""Concurrent auto-tuning service: the online face of the runtime stack.

Service layer 2.  :class:`TuningService` accepts many concurrent SpMV /
SpMM requests and turns them into as few kernel launches as possible:

* engines live in a :class:`~repro.service.cache.ShardedEngineCache` —
  one cached :class:`~repro.runtime.engine.WorkloadEngine` per matrix
  fingerprint, per-shard locks, bounded capacity with LRU eviction (an
  evicted engine's accounting is folded into the service totals first);
* concurrent requests against the *same* matrix are **coalesced**: they
  pile up in a per-fingerprint queue and a single worker drains up to
  ``max_batch`` plain single-vector requests as one batched multi-vector
  call through :mod:`repro.runtime.batch` (one kernel launch for *k*
  requests instead of *k* launches); a block operand, a repeated
  request or an update is served alone;
* a ``ThreadPoolExecutor`` worker pool executes the decide -> convert ->
  execute chain through the shared serve step of
  :class:`~repro.service.host.EngineHost` — except that a blocking call
  on an idle service is served on its own thread, with no queue and no
  future (see :meth:`TuningService.spmv`); every request is accounted
  (enqueue-to-completion wall latency plus the engine's modelled
  seconds) and the service keeps counters for cache hits, coalesced
  batches and evictions, all exposed through one
  :meth:`TuningService.stats` dict.

:class:`TuningService` is the one serving front end, with two dispatch
paths: in process (this module) and over worker processes
(:class:`~repro.distributed.gateway.DistributedService`, a subclass
that replaces only the dispatch step, the model-install step and the
accounting source).  Submission, coalescing, completion, failure
handling, telemetry and ``stats()`` are written here, once.

Requests are validated *at submission* (shape, operand length), so a
malformed request fails fast in the caller's thread and can never poison
a coalesced batch.  Results are bitwise identical to serial dispatch:
the batched CSR kernel accumulates each output element in the same order
as the single-vector kernel.

Model-driven serving loads deployed models through
:mod:`repro.core.model_io` — :meth:`TuningService.from_model_database`
points the service at a :class:`~repro.core.pipeline.ModelDatabase`
directory (e.g. the ``models/<fingerprint>/`` directory a scenario suite
exported) and serves predictions from the stored model.

Matrices are allowed to *evolve*: a :meth:`Session.update` mutation
request carries a :class:`~repro.formats.delta.MatrixDelta` through the
same per-fingerprint queue as the SpMVs (it acts as a barrier — never
coalesced, never reordered) and advances the matrix's epoch under the
engine-cache shard lock, invalidating only decision-dependent artefacts
(see :meth:`~repro.runtime.engine.WorkloadEngine.update`).  Every
:class:`ServiceResult` is stamped with the epoch that served it.

The service is also the sensor and actuator of the adaptive loop
(:mod:`repro.adaptive`): an optional *observer* callback receives one
plain-dict observation per served request (features, chosen format,
latency, and — every ``shadow_every``-th batch per matrix — the rival
per-format shadow timings), and :meth:`TuningService.promote_model`
hot-swaps the serving model under the engine-cache shard locks, so an
in-flight batch always completes under a single model and no request is
ever dropped or served from a torn state.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.delta import MatrixDelta
from repro.formats.dynamic import DynamicMatrix
from repro.obs import Observability
from repro.obs.spans import mint_trace_id
from repro.obs.views import build_service_stats
from repro.runtime.batch import validate_operand
from repro.runtime.engine import STREAM_THRESHOLD_BYTES, request_key
from repro.service.cache import ShardedEngineCache
from repro.service.coalesce import (
    FingerprintQueues,
    PendingRequest,
    split_stacked,
)
from repro.service.host import EngineHost, Served
from repro.storage.tier import StorageTier
from repro.utils.concurrency import default_thread_workers

__all__ = ["ServiceResult", "Session", "TuningService", "UpdateResult"]

MatrixLike = Union[SparseMatrix, DynamicMatrix]


class ServiceResult(NamedTuple):
    """Outcome of one served request.

    ``seconds`` / ``overhead_seconds`` / ``format`` / ``from_cache``
    mirror :class:`~repro.runtime.engine.EngineResult` — for a coalesced
    batch, ``seconds`` is the request's fair share of the single batched
    kernel call and the tuning/conversion overhead is attributed to the
    batch's first request.  On top of those the service records
    ``batch_size`` (how many requests shared the kernel launch that
    produced this result), ``latency_seconds`` (wall-clock time from
    submission to completion) and ``model_version`` (which deployed
    model the serving batch ran under — the hot-swap audit trail).
    ``backend`` names the kernel that ran the batch
    (:data:`~repro.runtime.batch.SERVING`).
    """

    y: np.ndarray
    seconds: float
    overhead_seconds: float
    format: str
    fingerprint: str
    from_cache: bool
    batch_size: int
    latency_seconds: float
    model_version: str = ""
    #: Matrix version that served this request (0 = never mutated).
    epoch: int = 0
    #: Name of the kernel that ran the batch (``scipy.csr``, ...).
    backend: str = ""
    #: Observability trace ID minted at submit() — correlates this
    #: result with its span timeline and trace-replay events.
    trace_id: str = ""


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one :meth:`Session.update` mutation request.

    Mirrors the engine's :class:`~repro.runtime.epoch.StreamUpdate` —
    which epoch the matrix advanced to, whether the format decision was
    carried forward or re-tuned (and at what measured stat ``drift``) —
    plus the request's wall ``latency_seconds``.
    """

    fingerprint: str
    epoch: int
    carried_forward: bool
    retuned: bool
    format: Optional[str]
    drift: float
    nnz: int
    latency_seconds: float
    #: Observability trace ID minted at submit_update().
    trace_id: str = ""


def _service_result(
    result, batch_size: int, latency: float, model_version: str, epoch: int,
    trace_id: str,
) -> ServiceResult:
    """The :class:`ServiceResult` of one served engine *result*."""
    return ServiceResult(
        result.y,
        result.seconds,
        result.overhead_seconds,
        result.format,
        result.fingerprint,
        result.from_cache,
        batch_size,
        latency,
        model_version,
        epoch,
        result.backend,
        trace_id,
    )


def _serve_stages(
    stages: Dict[str, float], serve_start: float, served: Served
) -> Dict[str, float]:
    """Add the span stages of one in-process serve step to *stages*."""
    # lease wait + batch assembly ahead of the kernel
    stages["coalesce"] = served.kernel_start - serve_start
    stages["kernel"] = served.kernel_seconds
    # tier traffic rides the span timeline: a batch that promoted a
    # demoted container or streamed row panels shows those stages
    # (absent otherwise, so storage-free span schemas are unchanged)
    if served.promote_seconds > 0.0:
        stages["promote"] = served.promote_seconds
    if served.stream_seconds > 0.0:
        stages["stream"] = served.stream_seconds
    return stages


class TuningService:
    """Concurrent SpMV/SpMM auto-tuning service over a worker pool.

    This class is the one serving front end.  It owns validation,
    trace-ID minting, the per-fingerprint queues and their drain loop,
    the completion and failure paths that resolve futures, telemetry,
    model deployment and the ``stats()`` view.  What runs a drained
    batch is a per-tier dispatch step: here a thread pool serves it
    through an in-process :class:`~repro.service.host.EngineHost`;
    :class:`~repro.distributed.gateway.DistributedService` overrides
    the dispatch step to ship it to a worker process instead.

    Parameters
    ----------
    space:
        The :class:`~repro.backends.base.ExecutionSpace` requests are
        served and priced against.
    tuner:
        Optional :class:`~repro.core.tuners.base.Tuner` deciding each
        matrix's serving format (paid once per matrix, then cached by
        that matrix's engine).  ``None`` serves every matrix in its
        active format.
    workers:
        Thread-pool size executing the decide -> convert -> execute chain.
        It bounds the pool's drains; one more request may be served on
        the thread of a blocking call while no other drain runs (see
        :meth:`_claim_caller`), so at most ``workers + 1`` batches are
        served at once.  ``None`` (default) derives the size from the
        host's core count (see
        :func:`repro.utils.concurrency.default_thread_workers`).
    capacity:
        Maximum live :class:`~repro.runtime.engine.WorkloadEngine`
        instances (one per matrix fingerprint); least-recently-used
        engines are evicted beyond it.
    shards:
        Lock domains of the engine cache (clamped to ``capacity``);
        requests for matrices on different shards never contend.
    max_batch:
        Upper bound on how many queued requests one drain coalesces into
        a single batched kernel call; ``1`` disables coalescing (the
        "naive dispatch" baseline the benchmark compares against).
    shadow_every:
        Shadow-profiling cadence for the telemetry feed: every
        ``shadow_every``-th batch per matrix (starting with the first)
        also resolves the rival per-format timings through the engine's
        memoised :meth:`~repro.runtime.engine.WorkloadEngine.profile_formats`
        and attaches them to that batch's first observation.  ``0``
        (default) disables shadow profiling.
    redecision:
        Optional :class:`~repro.runtime.epoch.RedecisionPolicy` handed
        to every engine the cache builds — how far the incrementally
        maintained statistics may drift across epochs before a mutation
        forces a re-tune.  ``None`` uses the engine default.
    storage_dir:
        Optional disk-tier root (:class:`~repro.storage.tier
        .StorageTier`).  With a tier configured, engine-cache eviction
        *demotes* the evicted engine's converted container (and its
        decision + statistics) to disk instead of dropping it, and a
        later request for the same matrix *promotes* it back as
        read-only mmap views — the conversion cost of the round trip is
        replaced by an mmap reattach.  ``None`` (default) keeps plain
        drop-on-evict behaviour.
    storage_capacity_bytes:
        Optional byte cap on the disk tier's resident entries (oldest
        demoted entries are evicted beyond it).
    stream_threshold_bytes / stream_block_bytes:
        Out-of-core streaming policy handed to every engine (see
        :class:`~repro.runtime.engine.WorkloadEngine`): mmap-backed CSR
        containers at or above the threshold are served by row-block
        streaming, bitwise-identical to the in-RAM path.

    Use as a context manager (or call :meth:`close`) to shut the worker
    pool down; pending requests are drained first.
    """

    #: Whether a blocking call that finds the service idle is served
    #: on the calling thread (see :meth:`_claim_caller`).
    _caller_runs = True

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
        observability: bool = True,
        storage_dir: Optional[str] = None,
        storage_capacity_bytes: Optional[int] = None,
        stream_threshold_bytes: Optional[int] = STREAM_THRESHOLD_BYTES,
        stream_block_bytes: Optional[int] = None,
    ) -> None:
        self._init_front_end(
            space,
            tuner,
            tier="inproc",
            workers=default_thread_workers() if workers is None else workers,
            max_batch=max_batch,
            shadow_every=shadow_every,
            redecision=redecision,
            observability=observability,
        )
        #: Out-of-core streaming policy handed to every engine.
        self.stream_threshold_bytes = stream_threshold_bytes
        self.stream_block_bytes = stream_block_bytes
        #: Disk tier for demoted serving containers (None = drop on evict).
        self.storage: Optional[StorageTier] = (
            StorageTier(storage_dir, capacity_bytes=storage_capacity_bytes)
            if storage_dir is not None
            else None
        )
        self._host = EngineHost(
            space,
            tuner,
            self.model_info,
            capacity=capacity,
            shards=shards,
            shadow_every=self.shadow_every,
            redecision=redecision,
            stream_threshold_bytes=stream_threshold_bytes,
            stream_block_bytes=stream_block_bytes,
            storage=self.storage,
            obs=self.obs,
        )
        self.engines: ShardedEngineCache = self._host.engines
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )

    def _init_front_end(
        self,
        space,
        tuner,
        *,
        tier: str,
        workers: int,
        max_batch: int,
        shadow_every: int,
        redecision,
        observability: bool,
    ) -> None:
        """Validate the shared knobs and build the front-end state.

        Every tier's constructor calls this first; what follows it is
        the tier's own executor (an engine host here, a worker fleet in
        the distributed tier).
        """
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if shadow_every < 0:
            raise ValidationError(
                f"shadow_every must be >= 0, got {shadow_every}"
            )
        self.space = space
        self.tuner = tuner
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.shadow_every = int(shadow_every)
        #: Optional :class:`~repro.runtime.epoch.RedecisionPolicy` every
        #: engine is built with (None = the engine default).
        self.redecision = redecision
        self.storage = None
        self._pending = FingerprintQueues()
        # drains running right now, on the pool or as a blocking call
        # on its own thread; guarded by this lock, and notified through
        # the condition once close() has started waiting for it
        self._drains_running = 0
        self._drains_lock = threading.Lock()
        self._drains_idle = threading.Condition(self._drains_lock)
        self._model_lock = threading.Lock()
        self._closed = False
        self._observer = None
        # service-level instruments live in the observability registry
        # (engine-level accounting is folded at view time);
        # ``observability=False`` keeps the instruments — they ARE the
        # accounting — but turns span/event recording off
        self.obs = Observability(tier=tier, enabled=observability)
        self.obs.registry.register_collector(self._collect_gauges)
        #: deployed-model provenance, replaced atomically by promote_model
        self.model_info: Dict[str, object] = {
            "version": "-",
            "source": "",
            "algorithm": type(tuner).__name__ if tuner is not None else "",
            "promoted_at": None,
        }
        # the authoritative (tuner, info) pair, published before every
        # model install so executors built later boot onto it
        self._deployed = (tuner, self.model_info)

    @classmethod
    def from_model_database(
        cls,
        model_dir,
        system: str,
        backend: str,
        *,
        algorithm: str = "random_forest",
        **kwargs,
    ) -> "TuningService":
        """Service driven by a deployed model from a model database.

        Loads the ``(system, backend, algorithm)`` model through
        :class:`~repro.core.pipeline.ModelDatabase` /
        :mod:`repro.core.model_io` and binds the matching execution
        space, so a model exported by the offline pipeline (or a
        scenario suite's ``models/<fingerprint>/`` directory) serves
        online predictions.  ``kwargs`` pass through to the constructor.
        """
        from repro.backends import make_space
        from repro.core.pipeline import ModelDatabase
        from repro.core.tuners.ml import DecisionTreeTuner, RandomForestTuner

        model = ModelDatabase(model_dir).load(system, backend, algorithm)
        tuner_cls = (
            DecisionTreeTuner
            if model.kind == "decision_tree"
            else RandomForestTuner
        )
        service = cls(make_space(system, backend), tuner_cls(model), **kwargs)
        service.set_model_info(
            version=str(model.metadata.get("version", "deployed")),
            source=str(model.metadata.get("source", model_dir)),
            algorithm=algorithm,
        )
        return service

    # ------------------------------------------------------------------
    # adaptive loop: hot swap + telemetry feed
    # ------------------------------------------------------------------
    def set_model_info(
        self,
        *,
        version: str,
        source: str = "",
        algorithm: str = "",
    ) -> None:
        """Stamp the *currently deployed* tuner's provenance (no swap).

        For services whose initial tuner was handed to the constructor:
        records where it came from so ``stats()["model"]`` and
        per-result ``model_version`` stamps are meaningful from the
        first request.  Use :meth:`promote_model` to actually change
        models.
        """
        with self._model_lock:
            self._deploy(
                self.tuner,
                {
                    "version": str(version),
                    "source": source,
                    "algorithm": algorithm or type(self.tuner).__name__,
                    "promoted_at": None,
                },
            )

    def set_observer(self, observer) -> None:
        """Install (or clear, with ``None``) the telemetry observer.

        The observer is called once per served batch with a list of
        plain-dict observations (one per request): ``fingerprint``,
        ``format``, ``seconds``, ``latency_seconds``, ``batch_size``,
        ``model_version``, the matrix's cached ``features`` vector, and
        ``shadow_times`` (per-format rival timings) on shadow-probed
        batches.  It runs after the batch's futures resolve and after
        the fingerprint's next drain is rescheduled, so a slow observer
        (a synchronous retrain) never delays a result.  While an
        observer is installed every request is served on the worker
        pool, so the observer does not run on a caller's thread either.  Observer
        exceptions are counted (``stats()["observer_errors"]``) and
        swallowed — telemetry must not break serving.
        """
        self._observer = observer

    def promote_model(
        self,
        tuner,
        *,
        version: str,
        source: str = "",
        algorithm: str = "",
    ) -> Dict[str, object]:
        """Hot-swap the serving model; returns the new model-info block.

        Atomicity contract: every engine is re-stamped under its cache
        shard lock, tuner and version stamp together, so a batch in
        flight finishes under the old model, and any request after the
        swap is decided by — and stamped with — the new one.  Requests
        are never dropped and never see a torn state.  Each engine keeps
        its model-independent artefacts (stats, features, profile
        timings) and re-decides formats on demand; rollback is just
        another promotion with an earlier model's tuner.
        """
        with self._model_lock:
            info: Dict[str, object] = {
                "version": str(version),
                "source": source,
                "algorithm": algorithm or type(tuner).__name__,
                "promoted_at": time.time(),
            }
            self._deploy(tuner, info)
            self.obs.promotions.inc()
            self.obs.event(
                "model_promoted",
                version=str(version),
                algorithm=info["algorithm"],
            )
            return dict(info)

    def _deploy(self, tuner, info: Dict[str, object]) -> None:
        """Publish ``(tuner, info)``, then install it in the executor."""
        self._deployed = (tuner, info)
        self.tuner = tuner
        self.model_info = info
        self._install_model(tuner, info)

    def _install_model(self, tuner, info: Dict[str, object]) -> None:
        """Tier hook: make every engine serve ``(tuner, info)``."""
        self._host.install(tuner, info)

    def profile_times(self) -> Dict[str, Dict[str, float]]:
        """Per-matrix per-format shadow timings, live *and* evicted."""
        return self._host.profile_times()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _admit(self, matrix: MatrixLike, x: np.ndarray, key: Optional[str]):
        """Validate one SpMV request in the caller's thread.

        Returns ``(fp, operand, trace_id, validate_seconds)``.
        """
        if self._closed:
            raise ValidationError("service is closed")
        submitted_at = time.perf_counter()
        operand = validate_operand(matrix, x)
        fp = key if key is not None else request_key(matrix)
        trace_id = mint_trace_id()
        return fp, operand, trace_id, time.perf_counter() - submitted_at

    def submit(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ) -> "Future[ServiceResult]":
        """Enqueue one request; returns a future resolving to its result.

        ``x`` may be a length-``ncols`` vector or an ``(ncols, k)``
        block; validation happens here, in the caller's thread, so a
        malformed request raises immediately instead of failing a
        coalesced batch later.  Plain single-vector requests for the
        same matrix submitted while a worker is busy are coalesced into
        one batched kernel call when that worker drains the queue.
        """
        fp, operand, trace_id, validate_seconds = self._admit(matrix, x, key)
        return self._enqueue_spmv(
            fp, matrix, operand, int(repetitions), trace_id, validate_seconds
        )

    def _enqueue_spmv(
        self, fp, matrix, operand, repetitions, trace_id, validate_seconds
    ) -> Future:
        """Queue one admitted SpMV request (see :meth:`_admit`)."""
        return self._enqueue(
            fp,
            PendingRequest(
                matrix,
                operand,
                repetitions,
                Future(),
                trace_id=trace_id,
                validate_seconds=validate_seconds,
            ),
        )

    def _admit_update(
        self, matrix: MatrixLike, delta: MatrixDelta, key: Optional[str]
    ) -> Tuple[str, PendingRequest]:
        """Validate one mutation request in the caller's thread."""
        if self._closed:
            raise ValidationError("service is closed")
        submitted_at = time.perf_counter()
        if not isinstance(delta, MatrixDelta):
            raise ValidationError(
                f"update needs a MatrixDelta, got {type(delta).__name__}"
            )
        concrete = (
            matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        )
        delta.check_bounds(concrete.nrows, concrete.ncols)
        fp = key if key is not None else request_key(matrix)
        return fp, PendingRequest(
            matrix,
            None,
            1,
            Future(),
            kind="update",
            delta=delta,
            trace_id=mint_trace_id(),
            validate_seconds=time.perf_counter() - submitted_at,
        )

    def submit_update(
        self,
        matrix: MatrixLike,
        delta: MatrixDelta,
        *,
        key: Optional[str] = None,
    ) -> "Future[UpdateResult]":
        """Enqueue a mutation: advance the matrix one epoch under its key.

        The delta is validated here (bounds against the matrix shape)
        and queued behind any already-submitted requests for the same
        fingerprint; it acts as a barrier — SpMVs submitted before it
        are served against the old epoch, SpMVs after it against the
        new one — and is applied under the engine-cache shard lock, so
        it can never interleave with a batch in flight.
        """
        return self._enqueue(*self._admit_update(matrix, delta, key))

    def update(
        self,
        matrix: MatrixLike,
        delta: MatrixDelta,
        *,
        key: Optional[str] = None,
    ) -> UpdateResult:
        """Blocking mutation: :meth:`submit_update`, then wait.

        On an idle service (see :meth:`_claim_caller`) the mutation is
        applied right here, on the calling thread, without a queue.
        """
        fp, request = self._admit_update(matrix, delta, key)
        if not self._claim_caller(fp):
            return self._enqueue(fp, request).result()
        self.obs.requests_submitted.inc()
        try:
            self._serve_update(fp, request)
        except BaseException as exc:
            self._fail(fp, [request], exc)
        finally:
            self._caller_done(fp)
        return request.future.result()

    def spmv(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ) -> ServiceResult:
        """Blocking request: ``y = A @ x``, served and returned.

        The caller waits anyway, so on an idle service (see
        :meth:`_claim_caller`) the request is served right here, on the
        calling thread, with no future and no queue, by
        :meth:`~repro.service.host.EngineHost.serve_one` — on a warm key
        the warm step: one shard-lock region and one kernel call.  The
        same counters, latency sample and span (keys and stage names)
        are recorded as for a queued batch of one.  Otherwise the
        request is submitted to the pool like :meth:`submit` and waited
        for.
        """
        fp, operand, trace_id, validate_seconds = self._admit(matrix, x, key)
        repetitions = int(repetitions)
        enqueued_at = time.perf_counter()
        if not self._claim_caller(fp):
            return self._enqueue_spmv(
                fp, matrix, operand, repetitions, trace_id, validate_seconds
            ).result()
        o = self.obs
        o.requests_submitted.inc()
        try:
            serve_start = time.perf_counter()
            served = self._host.serve_one(fp, matrix, operand, repetitions)
            result = served.result
            latency = time.perf_counter() - enqueued_at
            o.requests_served.inc()
            o.batches.inc()
            if served.shadow is not None:
                o.shadow_probes.inc()
            o.latency.observe(latency)
            if o.enabled:
                stages = _serve_stages(
                    {
                        "validate": validate_seconds,
                        "queue": serve_start - enqueued_at,
                    },
                    serve_start,
                    served,
                )
                stages["observer"] = 0.0
                # recording is already known to be on: skip o.span()
                o.spans.record(
                    trace_id,
                    kind="spmv",
                    tier=o.tier,
                    fingerprint=fp,
                    batch_size=1,
                    backend=result.backend,
                    stages=stages,
                )
            return _service_result(
                result, 1, latency, served.model_version, served.epoch, trace_id
            )
        except Exception as exc:
            self._serve_error(fp, "spmv", 1, exc)
            raise
        finally:
            self._caller_done(fp)

    def _claim_caller(self, fp: str) -> bool:
        """Whether a blocking call for *fp* may be served on its own thread.

        True when the tier allows it (``_caller_runs``), no observer is
        installed, no drain of any fingerprint is running and nothing is
        queued under *fp*: the call then overtakes nothing submitted
        before it.  It counts as a running drain of *fp* until
        :meth:`_caller_done`, so requests submitted for *fp* meanwhile
        queue behind it.  With an observer every drain runs on the
        pool, so a slow observer never runs on a caller's thread.
        """
        if not self._caller_runs or self._observer is not None:
            return False
        with self._drains_lock:
            if self._drains_running or not self._pending.reserve(fp):
                return False
            self._drains_running += 1
            return True

    def _caller_done(self, fp: str) -> None:
        """End a claimed call: hand what queued behind it to the pool."""
        try:
            if self._pending.finish(fp):
                self._schedule(fp)
        finally:
            self._drain_done()

    def _drain_done(self) -> None:
        """Stop counting one drain as running.

        Only :meth:`close` waits for the count to reach zero, and it
        sets ``_closed`` before it waits, so an open service never pays
        for a notify.
        """
        with self._drains_lock:
            self._drains_running -= 1
            if self._drains_running == 0 and self._closed:
                self._drains_idle.notify_all()

    def _enqueue(self, fp: str, request: PendingRequest) -> Future:
        """Append one request to its fingerprint queue; schedule a drain."""
        schedule = self._pending.push(fp, request)
        self.obs.requests_submitted.inc()
        if schedule:
            self._schedule(fp)
        return request.future

    # ------------------------------------------------------------------
    # drain loop
    # ------------------------------------------------------------------
    def _schedule(self, fp: str) -> None:
        """Start a drain for *fp* (one in flight per fp) on the worker pool.

        If the pool has been shut down (a reschedule racing
        :meth:`close`), the queue is drained inline in the calling
        thread instead — a submitted request is never silently dropped.
        """
        try:
            self._executor.submit(self._drain, fp)
        except RuntimeError:  # executor shut down mid-close
            self._drain_inline(fp)

    def _drain_inline(self, fp: str) -> None:
        """Drain a fingerprint's whole queue in the calling thread."""
        while True:
            more, telemetry = self._drain_once(fp)
            self._deliver_telemetry(*telemetry)
            if not more:
                return

    def _drain(self, fp: str) -> None:
        """Worker task: dispatch one batch, reschedule if more arrived.

        The drain counts as running (see :meth:`_claim_caller`) until
        its reschedule is handed off.  The next drain is rescheduled
        *before* the telemetry observer runs, so a slow observer (or a
        synchronous retrain) overlaps with serving on the pool instead
        of stalling the fingerprint's queue.
        """
        with self._drains_lock:
            self._drains_running += 1
        try:
            more, telemetry = self._drain_once(fp)
            if more:
                self._schedule(fp)
        finally:
            self._drain_done()
        self._deliver_telemetry(*telemetry)

    def _drain_once(self, fp: str):
        """Dispatch up to ``max_batch`` queued requests for one fingerprint.

        Returns ``(more, (observations, span_stages))``: *more* is ``True``
        when requests remain queued for *fp* (the caller must keep the
        drain alive), and the pair is the batch's telemetry when the
        dispatch step completed it synchronously (empty otherwise).  A
        dispatch that raises fails every future of the batch; the queue
        is released either way.
        """
        batch = self._pending.take_batch(fp, self.max_batch)
        telemetry = ([], [])
        if batch:
            try:
                telemetry = self._dispatch(fp, batch)
            except BaseException as exc:  # propagate to every waiting caller
                self._fail(fp, batch, exc)
        return self._pending.finish(fp), telemetry

    def _dispatch(self, fp: str, batch: List[PendingRequest]):
        """Tier hook: run one drained batch.

        In process the batch is served right here, through the engine
        host, and its ``(observations, span_stages)`` are returned.
        """
        if batch[0].kind == "update":
            return self._serve_update(fp, batch[0])
        return self._serve(fp, batch)

    def _serve(self, fp: str, batch: List[PendingRequest]):
        """Serve one drained batch through the fingerprint's engine.

        A coalesced batch holds only plain single-vector requests
        (:meth:`FingerprintQueues.take_batch`): their operands are
        stacked into one ``(ncols, k)`` block served by a single
        ``engine.execute`` call — one kernel launch *and* one round of
        artefact lookups for the whole batch (engine counters tally
        lookups, the service tallies requests).  A lone request is
        served with its own operand and repetitions.
        """
        serve_start = time.perf_counter()
        first = batch[0]
        operand = (
            np.stack([r.operand for r in batch], axis=1)
            if len(batch) > 1
            else first.operand
        )
        served = self._host.serve(
            fp,
            first.matrix,
            operand,
            first.repetitions,
            requests=len(batch),
            telemetry=self._observer is not None,
        )
        return self._complete_batch(
            fp,
            batch,
            served,
            queued_until=serve_start,
            stages=_serve_stages({}, serve_start, served),
        )

    def _serve_update(self, fp: str, request: PendingRequest):
        """Apply one mutation request under the engine's shard lock."""
        serve_start = time.perf_counter()
        upd, _, kernel_start, kernel_seconds = self._host.update(
            fp, request.delta, request.matrix
        )
        return self._complete_update(
            fp,
            request,
            upd,
            queued_until=serve_start,
            stages={
                "coalesce": kernel_start - serve_start,
                "kernel": kernel_seconds,
            },
        )

    # ------------------------------------------------------------------
    # completion: one path per request kind, shared by every tier
    # ------------------------------------------------------------------
    def _complete_batch(
        self,
        fp: str,
        batch: List[PendingRequest],
        served: Served,
        *,
        queued_until: float,
        stages: Dict[str, float],
        **span_fields,
    ):
        """Record a served batch's spans, then resolve its futures.

        Counts the batch, observes each request's wall latency, records
        one span per request (with recording enabled) *before* any
        future resolves — a caller holding its result always finds its
        span — and returns ``(observations, span_stages)``:
        observations only while an observer is installed, plus the
        recorded spans' stage dicts for :meth:`_deliver_telemetry` to
        fill in the ``observer`` stage.  Each span carries the request's
        own ``validate`` and ``queue`` (up to *queued_until*) stages
        followed by the tier's batch-wide *stages*; *span_fields* add
        tier-specific span attributes.
        """
        results = (
            split_stacked(served.result, len(batch))
            if len(batch) > 1
            else [served.result]
        )
        done_at = time.perf_counter()
        latencies = [done_at - r.enqueued_at for r in batch]
        o = self.obs
        o.requests_served.inc(len(batch))
        o.batches.inc()
        if len(batch) > 1:
            o.coalesced_batches.inc()
            o.coalesced_requests.inc(len(batch))
        if served.shadow is not None:
            o.shadow_probes.inc()
        for latency in latencies:
            o.latency.observe(latency)
        span_stages = self._record_spans(
            {
                "trace": request.trace_id,
                "kind": "spmv",
                "fingerprint": fp,
                "batch_size": len(batch),
                "backend": result.backend,
                **span_fields,
                "stages": {
                    "validate": request.validate_seconds,
                    "queue": queued_until - request.enqueued_at,
                    **stages,
                },
            }
            for request, result in zip(batch, results)
        )
        for request, result, latency in zip(batch, results, latencies):
            if request.future.done():
                continue  # cancelled by close(wait=False)
            request.future.set_result(
                _service_result(
                    result,
                    len(batch),
                    latency,
                    served.model_version,
                    served.epoch,
                    request.trace_id,
                )
            )
        if self._observer is None:
            return [], span_stages
        observations = [
            {
                "fingerprint": fp,
                "format": result.format,
                "backend": result.backend,
                "seconds": result.seconds,
                "latency_seconds": latency,
                "batch_size": len(batch),
                "model_version": served.model_version,
                "epoch": served.epoch,
                "features": served.features,
                # rival timings ride the probed batch's first request
                "shadow_times": served.shadow if i == 0 else None,
            }
            for i, (result, latency) in enumerate(zip(results, latencies))
        ]
        return observations, span_stages

    def _complete_update(
        self,
        fp: str,
        request: PendingRequest,
        upd,
        *,
        queued_until: float,
        stages: Dict[str, float],
        **span_fields,
    ):
        """Record an applied mutation's span, then resolve its future.

        Returns telemetry as :meth:`_complete_batch` does.  The
        observation (``kind: "update"``) carries the measured stat
        drift — the adaptive layer's matrix-evolution velocity signal.
        """
        latency = time.perf_counter() - request.enqueued_at
        o = self.obs
        o.requests_served.inc()
        o.updates_served.inc()
        o.batches.inc()
        o.latency.observe(latency)
        span_stages = self._record_spans(
            [
                {
                    "trace": request.trace_id,
                    "kind": "update",
                    "fingerprint": fp,
                    "batch_size": 1,
                    "epoch": upd.epoch,
                    "retuned": upd.retuned,
                    **span_fields,
                    "stages": {
                        "validate": request.validate_seconds,
                        "queue": queued_until - request.enqueued_at,
                        **stages,
                    },
                }
            ]
        )
        if not request.future.done():
            request.future.set_result(
                UpdateResult(
                    fingerprint=fp,
                    epoch=upd.epoch,
                    carried_forward=upd.carried_forward,
                    retuned=upd.retuned,
                    format=upd.format,
                    drift=upd.drift,
                    nnz=upd.nnz,
                    latency_seconds=latency,
                    trace_id=request.trace_id,
                )
            )
        if self._observer is None:
            return [], span_stages
        observations = [
            {
                "kind": "update",
                "fingerprint": fp,
                "epoch": upd.epoch,
                "stat_drift": upd.drift,
                "retuned": upd.retuned,
                "carried_forward": upd.carried_forward,
                "nnz": upd.nnz,
                "latency_seconds": latency,
            }
        ]
        return observations, span_stages

    def _fail(
        self,
        fp: str,
        batch: List[PendingRequest],
        exc: BaseException,
        **fields,
    ) -> None:
        """Fail every still-pending future of *batch* with *exc*.

        The ``serve_error`` event names the request kind as
        ``request_kind`` (``kind`` is the event's own type); the futures
        are resolved even if recording the event fails, so no caller
        and no later request on the fingerprint is left waiting.
        """
        try:
            self._serve_error(fp, batch[0].kind, len(batch), exc, **fields)
        finally:
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _serve_error(
        self, fp: str, kind: str, batch_size: int, exc: BaseException, **fields
    ) -> None:
        """Record the ``serve_error`` event of one failed dispatch."""
        self.obs.event(
            "serve_error",
            error=type(exc).__name__,
            message=str(exc)[:200],
            fingerprint=fp,
            batch_size=batch_size,
            request_kind=kind,
            **fields,
        )

    def _record_spans(self, spans: Iterable[dict]) -> List[Dict[str, float]]:
        """Record *spans* now; return their (shared) stage dicts.

        *spans* is consumed only with recording enabled.  Each span's
        ``observer`` stage starts at ``0.0`` and is filled in place by
        :meth:`_deliver_telemetry` once the observer has run, which
        happens only after the futures resolve.  The key is present from
        the start, so the in-place update never resizes a dict a
        concurrent reader may be iterating.
        """
        if not self.obs.enabled:
            return []
        recorded = []
        for span in spans:
            stages = span["stages"]
            stages["observer"] = 0.0
            self.obs.span(span.pop("trace"), **span)
            recorded.append(stages)
        return recorded

    def _deliver_telemetry(
        self, observations: List[dict], span_stages: List[Dict[str, float]]
    ) -> None:
        """Run the observer, then fill its time into the batch's spans."""
        if not observations or self._observer is None:
            return
        started = time.perf_counter()
        self._notify(observations)
        observer_seconds = time.perf_counter() - started
        for stages in span_stages:
            stages["observer"] = observer_seconds

    def _notify(self, observations: List[dict]) -> None:
        """Hand a served batch's observations to the observer, if any.

        A raising observer bumps ``stats()["observer_errors"]`` and
        leaves a structured ``observer_error`` event with the exception
        type and the dropped batch's identity, so telemetry drops are
        diagnosable after the fact.
        """
        observer = self._observer
        if observer is None or not observations:
            return
        try:
            observer(observations)
        except Exception as exc:
            self.obs.observer_errors.inc()
            first = observations[0]
            self.obs.event(
                "observer_error",
                error=type(exc).__name__,
                message=str(exc)[:200],
                fingerprint=str(first.get("fingerprint", "")),
                batch_size=int(first.get("batch_size", len(observations))),
                observations=len(observations),
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _accounting(self, *, poll: bool) -> Dict[str, object]:
        """Tier hook: engine totals, cache counters, profiled matrices.

        *poll* asks for the freshest numbers (``stats()``); the gauge
        collector passes ``False`` and must not block on other
        processes.
        """
        return self._host.accounting()

    def _tier_stats(self, totals: Dict[str, object]) -> Dict[str, object]:
        """Tier hook: extra ``stats()`` blocks beyond the common view."""
        # present only when a disk tier is configured, so storage-free
        # deployments keep the cross-tier parity schema
        if self.storage is None:
            return {}
        return {"storage": self.storage.stats()}

    def _tier_gauges(self, registry, labels, totals) -> None:
        """Tier hook: gauges beyond the common engine/cache set."""
        if self.storage is None:
            return
        tier = self.storage.stats()
        for name in (
            "entries",
            "resident_bytes",
            "demotions",
            "promotions",
            "promote_misses",
            "tier_evictions",
            "bytes_written",
        ):
            registry.gauge(f"storage_{name}", labels=labels).set(tier[name])

    def _collect_gauges(self, registry) -> None:
        """Dump-time collector: publish engine/cache/backend gauges.

        This is how the engine fleet registers into the metrics registry
        without paying anything on the request path — the fold runs only
        when the registry is dumped (spiller tick, ``repro metrics``),
        never per request.
        """
        labels = {"tier": self.obs.tier}
        totals = self._accounting(poll=False)
        cache = totals["engine_cache"]
        for name in ("hits", "misses", "evictions", "size", "capacity"):
            registry.gauge(f"engine_cache_{name}", labels=labels).set(
                cache.get(name, 0)
            )
        engines_total = totals["engines"]
        registry.gauge("engine_requests", labels=labels).set(
            engines_total["requests_served"]
        )
        for kb, entry in engines_total["backends"].items():
            backend_labels = {**labels, "backend": kb}
            registry.gauge("backend_requests", labels=backend_labels).set(
                entry["requests"]
            )
            registry.gauge("backend_seconds", labels=backend_labels).set(
                entry["seconds"]
            )
        for name in ("epoch_advances", "carried_forward", "forced_retunes"):
            registry.gauge(
                "invalidations", labels={**labels, "reason": name}
            ).set(engines_total["invalidations"].get(name, 0))
        registry.gauge("profiled_matrices", labels=labels).set(
            totals["profiled_matrices"]
        )
        self._tier_gauges(registry, labels, totals)

    def stats(self) -> Dict[str, object]:
        """One dict with every service-level and engine-level counter.

        The common schema — request/batch/coalescing tallies,
        wall-latency aggregates (with log-bucket p50/p99), the engine
        cache's hit/miss/eviction numbers (``engine_cache``) and the
        summed :meth:`WorkloadEngine.stats` of every engine the tier has
        ever owned (``engines``) — is rendered by
        :func:`repro.obs.views.build_service_stats`, so the schema
        cannot drift between tiers.  This is the service's metrics
        endpoint — callers should consume it rather than poking
        individual attributes.
        """
        totals = self._accounting(poll=True)
        stats = build_service_stats(
            self.obs,
            space=self.space.name,
            workers=self.workers,
            max_batch=self.max_batch,
            model_info=self.model_info,
            engines_total=totals["engines"],
            engine_cache=totals["engine_cache"],
            profiled_matrices=totals["profiled_matrices"],
        )
        stats.update(self._tier_stats(totals))
        return stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def session(self, name: str = "") -> "Session":
        """A new client :class:`Session` bound to this service."""
        return Session(self, name=name)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        With ``wait=True`` (the default) every already-submitted request
        is dispatched before the method returns — in-flight drains
        finish on the pool, a blocking call served on its own thread
        finishes there, and any drain whose reschedule raced the
        shutdown falls back to running inline (see :meth:`_schedule`); a
        final sweep here catches queues whose drain task never started.
        With ``wait=False`` the pool is told to shut down without
        waiting and still-queued requests have their futures
        **cancelled**.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=wait)
        if wait:
            # a blocking call served on its own thread outlives the
            # pool shutdown
            with self._drains_idle:
                self._drains_idle.wait_for(lambda: self._drains_running == 0)
            for fp in self._pending.keys():
                self._drain_inline(fp)
        else:
            for request in self._pending.pop_all():
                request.future.cancel()

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Session:
    """A client handle on a :class:`TuningService`.

    Sessions are the programmatic API a client holds: they forward
    requests to the shared service (so all coalescing and caching is
    cross-session) while keeping per-client tallies — requests issued,
    wall latency observed — that a multi-client driver can report
    per client.  Sessions are cheap; create one per logical client.
    """

    def __init__(self, service: TuningService, *, name: str = "") -> None:
        self.service = service
        self.name = name
        #: Requests issued through this session (async and blocking).
        self.requests = 0
        #: Mutation requests issued through this session.
        self.updates = 0
        #: Blocking requests whose latency was observed (spmv/spmm).
        self.completed = 0
        self.latency_total = 0.0

    def submit(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ) -> "Future[ServiceResult]":
        """Asynchronous request; returns the service future."""
        self.requests += 1
        return self.service.submit(matrix, x, key=key, repetitions=repetitions)

    def spmv(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ) -> ServiceResult:
        """Blocking SpMV: ``y = A @ x`` through the service.

        Served like :meth:`TuningService.spmv`: on the calling thread,
        with no queue and no future, when the service is idle.
        """
        self.requests += 1
        result = self.service.spmv(matrix, x, key=key, repetitions=repetitions)
        self.completed += 1
        self.latency_total += result.latency_seconds
        return result

    def submit_update(
        self,
        matrix: MatrixLike,
        delta: MatrixDelta,
        *,
        key: Optional[str] = None,
    ) -> "Future[UpdateResult]":
        """Asynchronous mutation; returns the service future."""
        self.updates += 1
        return self.service.submit_update(matrix, delta, key=key)

    def update(
        self,
        matrix: MatrixLike,
        delta: MatrixDelta,
        *,
        key: Optional[str] = None,
    ) -> UpdateResult:
        """Blocking mutation: advance the matrix one epoch.

        The delta queues behind this key's already-submitted requests
        and is applied under the engine-cache shard lock, so SpMVs
        submitted before it serve the old epoch and SpMVs after it the
        new one; the returned :class:`UpdateResult` reports the epoch
        reached and whether the format decision was carried forward.
        """
        self.updates += 1
        return self.service.update(matrix, delta, key=key)

    def spmm(
        self,
        matrix: MatrixLike,
        X: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ) -> ServiceResult:
        """Blocking block SpMV: ``Y = A @ X`` for an ``(ncols, k)`` block."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(
                f"spmm operand must be 2-D, got ndim={X.ndim}"
            )
        return self.spmv(matrix, X, key=key, repetitions=repetitions)

    @property
    def mean_latency(self) -> float:
        """Mean wall latency of this session's blocking requests.

        Async :meth:`submit` futures are not folded in — the session
        never observes their completion — so the divisor is the count
        of blocking :meth:`spmv`/:meth:`spmm` calls only.
        """
        return self.latency_total / self.completed if self.completed else 0.0
