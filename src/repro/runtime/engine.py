"""Cached workload engine: serve many SpMV requests against one space.

Runtime layer 3.  The paper's economics — pay the tuning cost once,
amortise it over thousands of SpMV calls — only materialise if the serving
path actually reuses the expensive artefacts.  :class:`WorkloadEngine`
binds an :class:`~repro.backends.base.ExecutionSpace` (and optionally a
:class:`~repro.core.tuners.base.Tuner`) and memoises, per matrix
fingerprint:

* the :class:`~repro.machine.stats.MatrixStats` structural summary,
* the Table-I feature vector,
* the tuner's format decision (paying ``T_FE + T_PRED`` exactly once),
* the format-converted container serving the requests,
* the per-format profiling timings (:meth:`WorkloadEngine.profile_formats`),
  which the offline pipeline's profiling stage dispatches through.

Every cache records hits and misses (:class:`CacheCounters`) and every
modelled second is accounted per category (tuning / conversion / spmv), so
experiments can assert "the second request for a fingerprint recomputes
nothing" rather than hope for it.  Each request is served by
:meth:`WorkloadEngine.execute`, whose operand may be one vector or an
``(ncols, k)`` block run as one batched multi-vector SpMV through
:mod:`repro.runtime.batch`; coalescing concurrent requests into such a
block is the serving tier's job (:mod:`repro.service.coalesce`).
"""

from __future__ import annotations

import copy
import hashlib
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import FORMAT_IDS, SparseMatrix
from repro.formats.convert import convert
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.delta import MatrixDelta
from repro.formats.dia import DIAMatrix
from repro.formats.dynamic import DynamicMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hdc import HDCMatrix
from repro.formats.hyb import HYBMatrix
from repro.machine.cost_model import spmm_time_factor
from repro.machine.stats import MatrixStats
from repro.runtime.batch import (
    SERVING,
    check_operand,
    dispatch,
    have_accelerator,
)
from repro.runtime.epoch import (
    RedecisionPolicy,
    StreamState,
    StreamUpdate,
    matrix_epoch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import ExecutionSpace
    from repro.core.tuners.base import Tuner, TuningReport
    from repro.storage.tier import TierEntry

__all__ = [
    "CacheCounters",
    "EngineResult",
    "InvalidationCounters",
    "STREAM_THRESHOLD_BYTES",
    "WorkloadEngine",
    "matrix_fingerprint",
    "request_key",
]

MatrixLike = Union[SparseMatrix, DynamicMatrix]

#: Default size above which an mmap-backed CSR container is served by
#: row-block streaming instead of a whole-matrix kernel call (64 MiB —
#: below it a promoted container fits comfortably in page cache and the
#: single-call path is cheaper).
STREAM_THRESHOLD_BYTES = 64 << 20


def _defining_arrays(m: SparseMatrix) -> Tuple[np.ndarray, ...]:
    """The arrays that, with shape and format, fully determine *m*."""
    if isinstance(m, COOMatrix):
        return (m.row, m.col, m.data)
    if isinstance(m, CSRMatrix):
        return (m.row_ptr, m.col_idx, m.data)
    if isinstance(m, DIAMatrix):
        return (m.offsets, m.data)
    if isinstance(m, ELLMatrix):
        return (m.col_idx, m.data)
    if isinstance(m, HYBMatrix):
        return _defining_arrays(m.ell) + _defining_arrays(m.coo)
    if isinstance(m, HDCMatrix):
        return _defining_arrays(m.dia) + _defining_arrays(m.csr)
    raise ValidationError(
        f"cannot fingerprint unknown container type {type(m).__name__}"
    )


#: Content digest per concrete container object.  Containers are
#: immutable (their defining arrays are flagged read-only), so a digest
#: never goes stale; entries die with their container.
_DIGESTS: "weakref.WeakKeyDictionary[SparseMatrix, str]" = (
    weakref.WeakKeyDictionary()
)


def matrix_fingerprint(matrix: MatrixLike) -> str:
    """Stable content hash of a matrix in its active format.

    Hashes format name, shape and the defining arrays, so two containers
    holding identical arrays share a fingerprint while any structural or
    numerical difference separates them.  The same logical matrix stored
    in two *different* formats hashes differently — callers that want
    cross-format identity pass their own ``key`` to the engine instead.
    Index arrays hash as int64 whatever width a container stores them
    at, so a digest does not depend on it.  The ``O(nnz)`` hash runs
    once per container object; later calls return the memoised digest.
    """
    m = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
    digest = _DIGESTS.get(m)
    if digest is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{m.format}:{m.nrows}x{m.ncols}:".encode())
        for arr in _defining_arrays(m):
            if arr.dtype == np.int32:
                arr = arr.astype(np.int64)
            h.update(np.ascontiguousarray(arr).tobytes())
        digest = _DIGESTS[m] = h.hexdigest()
    return digest


def request_key(matrix: MatrixLike) -> str:
    """Default cache key for a request: epoch identity, else content hash.

    Epoch-stamped matrices are keyed by ``stable_id@epoch`` — version
    identity, no ``O(nnz)`` hashing — while plain containers fall back
    to :func:`matrix_fingerprint`.  Shared by the engine and the tuning
    service so a key derived in one layer always matches the other.
    """
    identity = matrix_epoch(matrix)
    if identity is not None:
        return identity.key
    return matrix_fingerprint(matrix)


@dataclass
class CacheCounters:
    """Hit/miss tallies for every memoised artefact of the engine."""

    stats_hits: int = 0
    stats_misses: int = 0
    feature_hits: int = 0
    feature_misses: int = 0
    decision_hits: int = 0
    decision_misses: int = 0
    conversion_hits: int = 0
    conversion_misses: int = 0
    profile_hits: int = 0
    profile_misses: int = 0

    @property
    def hits(self) -> int:
        """Total cache hits across all categories."""
        return (
            self.stats_hits
            + self.feature_hits
            + self.decision_hits
            + self.conversion_hits
            + self.profile_hits
        )

    @property
    def misses(self) -> int:
        """Total cache misses across all categories."""
        return (
            self.stats_misses
            + self.feature_misses
            + self.decision_misses
            + self.conversion_misses
            + self.profile_misses
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports / serialisation)."""
        return {
            "stats_hits": self.stats_hits,
            "stats_misses": self.stats_misses,
            "feature_hits": self.feature_hits,
            "feature_misses": self.feature_misses,
            "decision_hits": self.decision_hits,
            "decision_misses": self.decision_misses,
            "conversion_hits": self.conversion_hits,
            "conversion_misses": self.conversion_misses,
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
        }


@dataclass
class InvalidationCounters:
    """Epoch bookkeeping: what did matrix mutations cost (and save)?

    ``epoch_advances`` counts successful :meth:`WorkloadEngine.update`
    calls; each one either *carried forward* the prior format decision
    (and its converted container) or *forced a re-tune* because the
    incrementally maintained statistics drifted past the re-decision
    threshold.  Surfaced through ``WorkloadEngine.stats()`` and
    aggregated by ``TuningService.stats()``.
    """

    epoch_advances: int = 0
    carried_forward: int = 0
    forced_retunes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports / serialisation)."""
        return {
            "epoch_advances": self.epoch_advances,
            "carried_forward": self.carried_forward,
            "forced_retunes": self.forced_retunes,
        }


class EngineResult(NamedTuple):
    """Outcome of one served request.

    ``seconds`` is the modelled device time of the SpMV itself;
    ``overhead_seconds`` carries the tuning + conversion cost paid by this
    request (zero whenever the decision came from cache).  ``format``
    is the decided format, the one both are priced for; ``backend``
    names the kernel that ran the request
    (:data:`~repro.runtime.batch.SERVING`: ``scipy.csr``, ``scipy.dia``,
    ``scipy.coo``, or ``numpy`` without scipy), which for an ELL, HYB or
    HDC decision runs on a CSR container.  ``epoch`` is the matrix
    version that served the request — 0 for matrices that never
    mutated.
    """

    y: np.ndarray
    seconds: float
    overhead_seconds: float
    format: str
    fingerprint: str
    from_cache: bool
    epoch: int = 0
    backend: str = ""


class _Chain(NamedTuple):
    """One request's resolved artefacts (:meth:`WorkloadEngine._chain`)."""

    fp: str
    stats: MatrixStats
    prepared: SparseMatrix
    overhead: float
    cached: bool
    #: The decided format (``prepared`` is its served container).
    format: str


#: The engine's kernel calls, for a 1-D and for an ``(ncols, k)``
#: operand: :func:`repro.runtime.batch.dispatch` on an operand
#: :meth:`WorkloadEngine.execute` already checked.  The two names are the kernel
#: layer's entry points, the ones a tracer wraps (``perfbench/tracer.py``).
matvec = batched_spmv = dispatch


#: The SpMM traffic factor of a single-vector operand.
_ONE_VECTOR = spmm_time_factor(1)


def _backend_tally() -> "defaultdict[str, Dict[str, float]]":
    """Per-kernel request counts and modelled SpMV seconds, zero on first
    use."""
    return defaultdict(lambda: {"requests": 0, "seconds": 0.0})


class _Warm(NamedTuple):
    """A key's memoised warm chain (:attr:`WorkloadEngine._warm`).

    Everything here is fixed until the chain is dropped, which happens
    wherever the decision, the serving container, the stats or the
    epoch of the key change.
    """

    prepared: SparseMatrix
    #: The modelled single-SpMV seconds of the decided format.
    price: float
    ncols: int
    epoch: int
    #: Whether ``prepared`` is served by row-block streaming.
    streams: bool
    #: The decided format, which ``prepared`` serves.
    format: str
    #: The name of the kernel that runs ``prepared``.
    kernel: str


class WorkloadEngine:
    """Serve ``(matrix, x)`` SpMV requests with full artefact reuse.

    :meth:`execute` runs one request chain
    (fingerprint → stats → decision → serving container, each a
    counted cache lookup; a warm key resolves them with one lookup in
    :meth:`serve_warm`), reach the kernel through
    this module's :func:`matvec` or :func:`batched_spmv` with the
    operand checked against the serving container, and account each
    request in one step.

    Parameters
    ----------
    space:
        The execution space requests are priced against.
    tuner:
        Optional format tuner; when absent every matrix is served in its
        active format (decision overhead zero).
    stream_threshold_bytes:
        Size above which an mmap-backed CSR serving container is served
        by row-block streaming (:mod:`repro.storage.stream`) instead of
        one whole-matrix kernel call — the out-of-core path.  ``0``
        streams every mmap-backed CSR container; ``None`` disables
        streaming.  Streamed results are bitwise-identical to the
        non-streamed path.
    stream_block_bytes:
        Row-panel byte budget for the streaming path (``None`` uses
        :data:`repro.storage.stream.DEFAULT_BLOCK_BYTES`).
    """

    def __init__(
        self,
        space: "ExecutionSpace",
        tuner: Optional["Tuner"] = None,
        *,
        redecision: Optional[RedecisionPolicy] = None,
        stream_threshold_bytes: Optional[int] = STREAM_THRESHOLD_BYTES,
        stream_block_bytes: Optional[int] = None,
    ) -> None:
        self.space = space
        self.tuner = tuner
        #: Policy deciding when an epoch advance forces a re-tune
        #: (:meth:`update`); below its threshold the prior decision is
        #: carried forward.
        self.redecision = redecision if redecision is not None else RedecisionPolicy()
        #: Version stamp of the deployed model driving decisions ("-"
        #: when untracked); kept in lock-step with the tuner by
        #: :meth:`set_tuner` so results can attribute themselves to the
        #: exact model that decided their format.
        self.model_version = "-"
        self.counters = CacheCounters()
        #: Modelled seconds spent on this space, by category.
        self.seconds: Dict[str, float] = {
            "tuning": 0.0,
            "conversion": 0.0,
            "spmv": 0.0,
        }
        self.requests_served = 0
        #: Out-of-core serving policy (see the constructor parameters).
        self.stream_threshold_bytes = (
            int(stream_threshold_bytes)
            if stream_threshold_bytes is not None
            else None
        )
        self.stream_block_bytes = (
            int(stream_block_bytes) if stream_block_bytes is not None else None
        )
        #: Row-block streaming tallies: requests served by streaming,
        #: panels dispatched, and real wall seconds spent streaming.
        self.streaming: Dict[str, float] = {
            "requests": 0,
            "blocks": 0,
            "seconds": 0.0,
        }
        #: Request counts and modelled SpMV seconds by kernel name.
        self.backend_seconds = _backend_tally()
        self._stats: Dict[str, MatrixStats] = {}
        self._features: Dict[str, np.ndarray] = {}
        self._reports: Dict[str, "TuningReport"] = {}
        self._prepared: Dict[str, SparseMatrix] = {}
        self._format_times: Dict[str, Dict[str, float]] = {}
        #: Memoised warm chain per key (serving container, its
        #: single-SpMV price, column count and epoch), so a warm request
        #: resolves its artefacts with one lookup; dropped wherever the
        #: decision, the container, the stats or the epoch change (a
        #: promoted container re-seeds it, :meth:`adopt_prepared`, and
        #: so does a stream update, :meth:`update`).
        self._warm: Dict[str, _Warm] = {}
        self._streams: Dict[str, StreamState] = {}
        self.invalidations = InvalidationCounters()

    # ------------------------------------------------------------------
    # memoised artefacts
    # ------------------------------------------------------------------
    def fingerprint(self, matrix: MatrixLike, *, key: Optional[str] = None) -> str:
        """Cache key for *matrix*: caller ``key``, epoch identity, or hash.

        Epoch-stamped matrices (anything that went through
        :meth:`~repro.formats.base.SparseMatrix.with_updates`, or whose
        :attr:`~repro.formats.base.SparseMatrix.stable_id` was touched)
        are keyed by their :class:`~repro.runtime.epoch.MatrixEpoch` —
        ``stable_id@epoch`` — instead of hashing the defining arrays:
        version identity replaces content identity, so a mutation is a
        new key without an ``O(nnz)`` hash, and two epochs of one matrix
        can never collide in the cache.
        """
        return key if key is not None else request_key(matrix)

    def stats_for(
        self, matrix: MatrixLike, *, key: Optional[str] = None
    ) -> MatrixStats:
        """Memoised :class:`MatrixStats` for *matrix*."""
        fp = self.fingerprint(matrix, key=key)
        if fp in self._stats:
            self.counters.stats_hits += 1
            return self._stats[fp]
        self.counters.stats_misses += 1
        matrix = self._resolve(matrix, fp)
        concrete = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        stats = MatrixStats.from_matrix(concrete)
        self._stats[fp] = stats
        return stats

    def features_for(
        self, matrix: MatrixLike, *, key: Optional[str] = None
    ) -> np.ndarray:
        """Memoised Table-I feature vector for *matrix*."""
        from repro.core.features import extract_features_from_stats

        fp = self.fingerprint(matrix, key=key)
        if fp in self._features:
            self.counters.feature_hits += 1
            return self._features[fp]
        self.counters.feature_misses += 1
        vec = extract_features_from_stats(self.stats_for(matrix, key=fp))
        self._features[fp] = vec
        return vec

    def set_tuner(
        self, tuner: Optional["Tuner"], *, version: Optional[str] = None
    ) -> None:
        """Hot-swap the tuner; future requests re-decide, artefacts stay warm.

        Replaces the format tuner (and its :attr:`model_version` stamp)
        and invalidates the artefacts that depend on it — the memoised
        decisions and the format-converted containers — while keeping
        everything model-independent (stats, features, per-format
        profile timings) cached.  The caller is responsible for
        serialising the swap against concurrent serving (the tuning
        service swaps under its engine-cache shard locks, so an
        in-flight batch always finishes under one model and is stamped
        with that model's version).
        """
        self.tuner = tuner
        if version is not None:
            self.model_version = str(version)
        self._reports.clear()
        self._prepared.clear()
        self._warm.clear()
        # stream drift anchors pointed at old-model decisions; clearing
        # them re-anchors each stream at the new model's first decision
        # (the next update adopts the then-current stats snapshot)
        for state in self._streams.values():
            state.decided_stats = None

    def profile_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of every memoised per-format timing table, keyed by matrix.

        The adaptive telemetry layer treats these timings as the
        shadow-profiling baseline; the service folds this snapshot into
        its totals when an engine is evicted so the baseline survives
        the engine itself.
        """
        return {fp: dict(times) for fp, times in self._format_times.items()}

    def prime_stats(self, key: str, stats: MatrixStats) -> None:
        """Adopt externally computed *stats* under cache key *key*.

        Lets orchestrators that resolved stats elsewhere (a collection
        cache, a worker pool, an artifact store) share them with the
        engine without re-deriving them from a materialised matrix.
        """
        self._stats.setdefault(key, stats)

    def profile_formats(
        self,
        matrix: Optional[MatrixLike] = None,
        *,
        key: Optional[str] = None,
        stats: Optional[MatrixStats] = None,
    ) -> Dict[str, float]:
        """Memoised per-format single-SpMV timings (the profiling probe).

        The offline pipeline's profiling stage asks this once per
        (matrix, space); re-profiling the same fingerprint — a resumed
        run, a second suite sharing matrices — is a cache hit.  Accepts
        either a *matrix*, or ``key`` + ``stats`` when the caller already
        holds the structural summary (no materialisation needed).
        """
        if matrix is None and key is None:
            raise ValidationError(
                "profile_formats needs a matrix or an explicit key"
            )
        fp = key if matrix is None else self.fingerprint(matrix, key=key)
        if fp in self._format_times:
            self.counters.profile_hits += 1
            return dict(self._format_times[fp])
        self.counters.profile_misses += 1
        if stats is not None:
            self.prime_stats(fp, stats)
        elif matrix is None:
            raise ValidationError(
                "profile_formats with a bare key also needs stats"
            )
        times = self.space.time_all_formats(
            self.stats_for(matrix, key=fp) if stats is None else stats,
            matrix_key=fp,
        )
        self._format_times[fp] = dict(times)
        return dict(times)

    def decision_for(
        self, matrix: MatrixLike, *, key: Optional[str] = None
    ) -> "TuningReport":
        """Memoised tuner decision; pays ``T_FE + T_PRED`` once per matrix."""
        fp = self.fingerprint(matrix, key=key)
        if fp in self._reports:
            self.counters.decision_hits += 1
            return self._reports[fp]
        matrix = self._resolve(matrix, fp)
        return self._decide(matrix, fp, self.stats_for(matrix, key=fp))

    def _decide(
        self, matrix: MatrixLike, fp: str, stats: MatrixStats
    ) -> "TuningReport":
        """Decision lookup with *stats* already resolved (one count each)."""
        from repro.core.tuners.base import TuningReport

        if fp in self._reports:
            self.counters.decision_hits += 1
            return self._reports[fp]
        self.counters.decision_misses += 1
        if self.tuner is None:
            concrete = (
                matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
            )
            report = TuningReport(format_id=concrete.format_id)
        else:
            report = self.tuner.tune(matrix, self.space, stats=stats, matrix_key=fp)
        self.seconds["tuning"] += report.overhead_seconds
        self._reports[fp] = report
        return report

    def _prepared_for(
        self,
        matrix: MatrixLike,
        fp: str,
        report: "TuningReport",
        stats: MatrixStats,
    ) -> SparseMatrix:
        """Memoised container serving the decided format.

        The conversion is charged as the modelled system pays it, into
        the decided format; the container is the one that serves it on
        this host (:data:`~repro.runtime.batch.SERVING`), built by the
        key's :class:`~repro.runtime.epoch.StreamState` when it is a
        tracked stream.
        """
        if fp in self._prepared:
            self.counters.conversion_hits += 1
            return self._prepared[fp]
        self.counters.conversion_misses += 1
        concrete = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        target = report.format_name
        if concrete.format != target:
            self.seconds["conversion"] += self.space.time_conversion(
                stats, concrete.format, target
            )
        served = SERVING[target][0]
        state = self._streams.get(fp)
        if state is not None:
            concrete = state.prepared(served)
        elif concrete.format != served:
            concrete = convert(concrete, served)
        self._prepared[fp] = concrete
        return concrete

    def serving_container(self, key: str) -> Optional[SparseMatrix]:
        """The memoised serving container for *key*, or ``None`` before
        its first conversion."""
        return self._prepared.get(key)

    def demote_payload(
        self, key: str, prepared: SparseMatrix
    ) -> Dict[str, object]:
        """The decision metadata a tier demotion of *key*'s serving
        container *prepared* stores with it.

        The decided format, the :attr:`model_version` that decided it
        and the matrix statistics — enough for :meth:`adopt_prepared`
        on a fresh engine under the same model to restore the full
        first-request artefact chain without recomputing anything.
        """
        report = self._reports.get(key)
        meta: Dict[str, object] = {
            "format": prepared.format if report is None else report.format_name,
            "model_version": self.model_version,
        }
        stats = self._stats.get(key)
        if stats is not None:
            meta["stats"] = stats.to_dict()
        return meta

    def adopts(self, entry: "TierEntry") -> bool:
        """Whether a storage-tier *entry* is adopted as it is: the
        :meth:`demote_payload` metadata it was stored with names this
        engine's :attr:`model_version`, and its container serves the
        decided format (:data:`~repro.runtime.batch.SERVING`).  Reads
        the index entry only, so a promote can ask before mapping it."""
        decided = entry.extra.get("format", entry.format)
        return (
            entry.extra.get("model_version", "-") == self.model_version
            and SERVING.get(decided, ("",))[0] == entry.format
        )

    def adopt_prepared(
        self,
        key: str,
        container: SparseMatrix,
        *,
        stats: Optional[MatrixStats] = None,
        price: Optional[float] = None,
        format: Optional[str] = None,
    ) -> None:
        """Pre-seed the serving artefacts for *key* from a promoted container.

        The disk tier's promotion path: *container* (typically read-only
        mmap views re-attached by :meth:`repro.storage.tier.StorageTier
        .promote`) becomes the memoised serving container, and a
        decision pinning *format* (default: the container's own; a CSR
        container serves an ELL, HYB or HDC decision) is installed so
        the next request is a full cache hit — no stats pass, no tuner,
        no conversion.  *stats* (persisted with the demoted entry) restores
        the pricing statistics without an ``O(nnz)`` recompute over the
        mmapped arrays.  An existing decision that *container* serves
        is kept; any other is replaced, so a result is always labelled
        with a format its container serves.

        *price*, the space's single-SpMV seconds for *format* under
        *stats*, also seeds the key's warm chain, so the next request
        runs :meth:`serve_warm` — if *stats* are the ones the key holds;
        otherwise that request resolves and prices the chain itself.
        """
        from repro.core.tuners.base import TuningReport

        if stats is not None:
            self._stats.setdefault(key, stats)
        self._prepared[key] = container
        report = self._reports.get(key)
        if report is None or SERVING[report.format_name][0] != container.format:
            report = self._reports[key] = TuningReport(
                format_id=FORMAT_IDS[format or container.format]
            )
        if price is not None and stats is not None and self._stats[key] is stats:
            self._seed(key, container, price, report.format_name)
        else:
            self._warm.pop(key, None)

    def prepare(self, matrix: MatrixLike, *, key: Optional[str] = None) -> SparseMatrix:
        """Resolve the serving container for *matrix*: decide + convert.

        Pays the full first-request artefact chain — fingerprint, stats,
        features, tuner decision, format conversion — and memoises every
        step, so a subsequent :meth:`execute` only runs the kernel.  The
        warm-up entry point for latency-sensitive callers (and the
        from-scratch baseline the streaming benchmark times).
        """
        fp = self.fingerprint(matrix, key=key)
        stats = self.stats_for(matrix, key=fp)
        report = self._decide(matrix, fp, stats)
        return self._prepared_for(matrix, fp, report, stats)

    # ------------------------------------------------------------------
    # streaming: epoch advances without rebuilding the world
    # ------------------------------------------------------------------
    def track(self, matrix: MatrixLike, *, key: Optional[str] = None) -> str:
        """Register *matrix* as a mutable stream; returns its cache key.

        Tracking seeds the incremental statistics (row histogram +
        diagonal census) from the matrix's canonical COO view and pins
        that view as the authoritative content — every subsequent
        :meth:`update` merges its delta into it.  Idempotent per key.
        """
        concrete = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        fp = key if key is not None else concrete.stable_id
        if fp in self._streams:
            return fp
        state = StreamState(fp, concrete.epoch, concrete.to_coo())
        self._streams[fp] = state
        self._warm.pop(fp, None)  # resolved at the untracked epoch
        self._stats.setdefault(fp, state.inc.to_stats())
        return fp

    def epoch_of(self, key: str) -> int:
        """Current epoch of a tracked stream (0 for untracked keys)."""
        state = self._streams.get(key)
        return state.epoch if state is not None else 0

    def has_decision(self, key: str) -> bool:
        """True when a memoised tuner decision exists for *key*."""
        return key in self._reports

    def prime_decision(
        self, key: str, matrix: Optional[MatrixLike] = None
    ) -> None:
        """Recreate the tuner decision for *key*, with no accounting effect.

        The distributed tier's respawn path uses this while replaying a
        matrix's acknowledged mutation log: a delta that was applied
        while a serving decision existed must replay against one too,
        otherwise the rebuilt stream skips the drift bookkeeping (the
        no-decision early path in :meth:`update`) and its anchors
        diverge from the state the dead worker acknowledged.  The tuner
        is deterministic on the modelled spaces, so re-deriving the
        decision reproduces it.  No-op when a decision already exists;
        *matrix* is only needed for keys not yet tracked as streams.
        """
        if key in self._reports:
            return
        counters = copy.copy(self.counters)
        seconds = dict(self.seconds)
        invalidations = copy.copy(self.invalidations)
        try:
            state = self._streams.get(key)
            if state is not None:
                content = state.content()
                stats = self._stats.get(key)
                if stats is None:
                    stats = state.inc.to_stats()
            elif matrix is not None:
                content = (
                    matrix.concrete
                    if isinstance(matrix, DynamicMatrix)
                    else matrix
                )
                stats = self.stats_for(content, key=key)
            else:
                raise ValidationError(
                    f"unknown stream {key!r}: pass matrix= to prime a "
                    "decision for an untracked key"
                )
            self._decide(content, key, stats)
        finally:
            self.counters = counters
            self.seconds = seconds
            self.invalidations = invalidations

    def has_mutated_streams(self) -> bool:
        """True when any tracked stream has absorbed updates.

        Merged stream content exists nowhere but this engine — the
        caller's matrix is still the pre-update epoch — so an engine
        with mutated streams cannot be dropped and rebuilt without
        silently losing acknowledged mutations.  Engine caches use this
        to exempt such engines from eviction (a loop, not ``any`` over a
        generator: every eviction asks).
        """
        for state in self._streams.values():
            if state.updates > 0:
                return True
        return False

    def update(
        self,
        key: str,
        delta: MatrixDelta,
        *,
        matrix: Optional[MatrixLike] = None,
        replay: bool = False,
    ) -> StreamUpdate:
        """Advance a tracked matrix one epoch; keep the caches warm.

        The delta is merged into the stream's canonical base in
        ``O(nnz + k)`` (no re-canonicalisation, no content re-hash) and
        the incremental statistics absorb its structural effect in
        ``O(k)``.  The :attr:`redecision` policy then measures how far
        the refreshed statistics drifted from those the live decision
        was made against:

        * **below threshold** — the decision is *carried forward*: no
          features, no tuner, no modelled tuning/conversion charge; the
          serving container is rebuilt by
          :meth:`~repro.runtime.epoch.StreamState.prepared` (CSR and
          DIA from the maintained histograms, COO as the canonical
          view: no format conversion), and the per-format profile
          timings survive (they remain the shadow baseline);
        * **above threshold** — a *forced re-tune*: the decision,
          serving container and profile timings are invalidated and the
          tuner re-runs against the incrementally maintained stats
          (still no ``O(nnz)`` recompute); the container comes from the
          same builder, charged as a COO conversion.

        An update that leaves a decision also leaves the key's warm
        chain, re-seeded with the container and its single-SpMV price at
        the new stats, so the next request is served by
        :meth:`serve_warm` without resolving the stream content.

        ``matrix`` is only needed on the first update of an untracked
        key (it starts the stream).  Callers must serialise updates with
        concurrent serving per key — the tuning service does so under
        its engine-cache shard lock.

        ``replay=True`` applies the delta with full state effect but
        **no accounting effect**: cache counters, modelled seconds, and
        invalidation tallies are restored afterwards.  The distributed
        tier's respawn path replays a matrix's acknowledged mutation log
        through this flag — the dead incarnation already counted those
        applications (and its last-heartbeat snapshot folded them into
        the retired totals), so counting them again on the rebuilt
        engine would over-count fleet stats after every respawn.
        """
        if replay:
            counters = copy.copy(self.counters)
            seconds = dict(self.seconds)
            invalidations = copy.copy(self.invalidations)
            try:
                return self.update(key, delta, matrix=matrix)
            finally:
                self.counters = counters
                self.seconds = seconds
                self.invalidations = invalidations
        state = self._streams.get(key)
        if state is None:
            if matrix is None:
                raise ValidationError(
                    f"unknown stream {key!r}: pass matrix= on the first "
                    "update to start tracking"
                )
            self.track(matrix, key=key)
            state = self._streams[key]
        prev_stats = self._stats.get(key)
        state.merge(delta)
        self.invalidations.epoch_advances += 1
        new_stats = state.inc.to_stats()
        self._stats[key] = new_stats
        self._warm.pop(key, None)  # resolved against the old stats
        # features derive from stats in O(1): drop the stale vector and
        # let the next request rebuild it from the maintained stats
        self._features.pop(key, None)
        report = self._reports.get(key)
        if report is None:
            # no decision yet: the next request pays the usual first-time
            # cost against the (incrementally maintained) stats
            self._prepared.pop(key, None)
            return StreamUpdate(
                key=key,
                epoch=state.epoch,
                carried_forward=False,
                retuned=False,
                format=None,
                drift=0.0,
                nnz=state.inc.nnz,
                delta_size=len(delta),
                bandwidth=state.inc.bandwidth,
            )
        if state.decided_stats is None:
            # the live decision predates stream bookkeeping: its
            # reference population is the last pre-update snapshot
            state.decided_stats = prev_stats
        drift = self.redecision.drift(state.decided_stats, new_stats)
        retuned = self.redecision.should_retune(drift)
        if retuned:
            self._reports.pop(key, None)
            self._prepared.pop(key, None)
            self._format_times.pop(key, None)
            self.invalidations.forced_retunes += 1
            content = state.content()
            report = self._decide(content, key, new_stats)
            state.decided_stats = new_stats
            prepared = self._prepared_for(content, key, report, new_stats)
        else:
            self.invalidations.carried_forward += 1
            # decision, profile timings and modelled charges all carry
            # forward; only the serving container is rebuilt, from the
            # keyed arrays and the maintained histograms
            prepared = state.prepared(SERVING[report.format_name][0])
            self._prepared[key] = prepared
        fmt = report.format_name
        price = self.space.time_spmv(new_stats, fmt, matrix_key=key)
        self._seed(key, prepared, price, fmt)
        return StreamUpdate(
            key=key,
            epoch=state.epoch,
            carried_forward=not retuned,
            retuned=retuned,
            format=fmt,
            drift=drift,
            nnz=state.inc.nnz,
            delta_size=len(delta),
            bandwidth=state.inc.bandwidth,
        )

    def stream_base(self, key: str) -> Optional[COOMatrix]:
        """The authoritative canonical-COO content of a tracked stream."""
        state = self._streams.get(key)
        return state.content() if state is not None else None

    def _resolve(self, matrix: MatrixLike, fp: str) -> MatrixLike:
        """Swap a request's matrix for the stream content when tracked.

        Once a key has been mutated, the caller's container is a stale
        epoch; every artefact rebuild must come from the stream's merged
        base or a post-update cache miss would silently serve old data.
        """
        state = self._streams.get(fp)
        return state.content() if state is not None else matrix

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _should_stream(self, prepared: SparseMatrix) -> bool:
        """Whether *prepared* is served out-of-core by row-block streaming.

        Streaming applies to mmap-backed CSR containers at or above the
        :attr:`stream_threshold_bytes` floor — in-RAM containers and
        other formats keep the whole-matrix call path.
        """
        if (
            self.stream_threshold_bytes is None
            or not isinstance(prepared, CSRMatrix)
            or prepared.nbytes() < self.stream_threshold_bytes
        ):
            return False
        from repro.storage.stream import mmap_backed

        return mmap_backed(prepared)

    def _run_kernel(
        self, prepared: SparseMatrix, operand: np.ndarray
    ) -> np.ndarray:
        """One kernel call; mmap-backed CSR above threshold streams."""
        if self._should_stream(prepared):
            return self._stream_kernel(prepared, operand)
        if operand.ndim == 2:
            return batched_spmv(prepared, operand)
        return matvec(prepared, operand)

    def _stream_kernel(
        self, prepared: CSRMatrix, operand: np.ndarray
    ) -> np.ndarray:
        """Serve one request by row panels, bitwise-identical per path.

        Each configuration streams through the *same arithmetic* its
        whole-matrix counterpart uses, so results match bit for bit:

        * with scipy present — per-panel compiled operators; the
          compiled CSR kernel accumulates each row locally, so panel
          rows are exactly the rows of the full-matrix call;
        * otherwise — the carry-seeded prefix-sum replay of the NumPy
          reference kernel (see :mod:`repro.storage.stream`).
        """
        from repro.storage.stream import (
            iter_row_blocks,
            plan_block_rows,
            streaming_spmm,
            streaming_spmv,
        )

        started = time.perf_counter()
        step = plan_block_rows(prepared, self.stream_block_bytes)
        if have_accelerator():
            shape = (
                (prepared.nrows,)
                if operand.ndim == 1
                else (prepared.nrows, operand.shape[1])
            )
            y = np.empty(shape, dtype=np.float64)
            for i0, i1, panel in iter_row_blocks(prepared, step):
                y[i0:i1] = matvec(panel, operand)
        elif operand.ndim == 2:
            y = streaming_spmm(prepared, operand, block_rows=step)
        else:
            y = streaming_spmv(prepared, operand, block_rows=step)
        self.streaming["requests"] += 1
        self.streaming["blocks"] += -(-prepared.nrows // step)
        self.streaming["seconds"] += time.perf_counter() - started
        return y

    def _chain(self, matrix: MatrixLike, fp: str) -> _Chain:
        """Resolve one request's artefacts up to the kernel call.

        Each of stats, decision and serving container is one cache
        lookup (a miss pays and memoises it).  ``overhead`` is the
        tuning + conversion cost this request paid (zero on warm
        caches); ``cached`` whether the decision already existed.
        """
        matrix = self._resolve(matrix, fp)
        cached = fp in self._reports
        before = self.seconds["tuning"] + self.seconds["conversion"]
        stats = self.stats_for(matrix, key=fp)
        report = self._decide(matrix, fp, stats)
        prepared = self._prepared_for(matrix, fp, report, stats)
        overhead = (self.seconds["tuning"] + self.seconds["conversion"]) - before
        return _Chain(fp, stats, prepared, overhead, cached, report.format_name)

    def _seed(
        self, key: str, prepared: SparseMatrix, price: float, format: str
    ) -> _Warm:
        """Memoise *key*'s warm chain: *prepared* serving the decided
        *format* at its single-SpMV *price*."""
        warm = self._warm[key] = _Warm(
            prepared,
            price,
            prepared.ncols,
            self.epoch_of(key),
            self._should_stream(prepared),
            format,
            SERVING[prepared.format][1],
        )
        return warm

    def has_chain(self, key: str) -> bool:
        """True when *key* has a warm chain: its next request resolves
        every artefact with one lookup and pays no tuning or conversion."""
        return key in self._warm

    def serve_warm(
        self,
        fp: str,
        operand: np.ndarray,
        repetitions: int = 1,
        requests: int = 1,
    ) -> Optional[EngineResult]:
        """Serve one kernel call from *fp*'s warm chain, or return ``None``.

        The warm step: one lookup of :attr:`_warm` resolves the serving
        container, its price and its epoch, counted as the three hits
        the separate lookups would count; the O(1) shape check against
        that container comes first, so a mismatched *operand* (already a
        float64 array) raises before anything is counted or run.
        ``None`` — nothing counted — when *fp* has no warm chain or its
        container is streamed.  The kernel is reached through this
        module's :func:`matvec` / :func:`batched_spmv`, looked up when
        the call is made.
        """
        warm = self._warm.get(fp)
        if warm is None or warm.streams:
            return None
        check_operand(operand, warm.ncols)
        counters = self.counters
        counters.stats_hits += 1
        counters.decision_hits += 1
        counters.conversion_hits += 1
        if operand.ndim == 2:
            y = batched_spmv(warm.prepared, operand)
            factor = spmm_time_factor(max(1, operand.shape[1]))
        else:
            y = matvec(warm.prepared, operand)
            factor = _ONE_VECTOR
        seconds = repetitions * factor * warm.price
        self.seconds["spmv"] += seconds
        self.requests_served += requests
        backend = self.backend_seconds[warm.kernel]
        backend["requests"] += requests
        backend["seconds"] += seconds
        return EngineResult(
            y, seconds, 0.0, warm.format, fp, True, warm.epoch, warm.kernel
        )

    def _served(
        self,
        chain: _Chain,
        y: np.ndarray,
        operand: np.ndarray,
        repetitions: int,
        requests: int,
    ) -> EngineResult:
        """Account one kernel call resolved by :meth:`_chain`; wrap its result.

        The modelled SpMV seconds are the decided format's single-SpMV
        price scaled by ``repetitions`` and by the SpMM traffic factor of
        the operand's column count.  The price is asked of the space
        once per ``(key, serving container)``; it is memoised with the
        chain in :attr:`_warm`, which this also (re)fills.
        """
        fp = chain.fp
        warm = self._warm.get(fp)
        if warm is None:
            warm = self._seed(
                fp,
                chain.prepared,
                self.space.time_spmv(chain.stats, chain.format, matrix_key=fp),
                chain.format,
            )
        n_vectors = operand.shape[1] if operand.ndim == 2 else 1
        seconds = repetitions * spmm_time_factor(max(1, n_vectors)) * warm.price
        self.seconds["spmv"] += seconds
        self.requests_served += requests
        backend = self.backend_seconds[warm.kernel]
        backend["requests"] += requests
        backend["seconds"] += seconds
        return EngineResult(
            y=y,
            seconds=seconds,
            overhead_seconds=chain.overhead,
            format=chain.format,
            fingerprint=fp,
            from_cache=chain.cached,
            epoch=warm.epoch,
            backend=warm.kernel,
        )

    def execute(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
        requests: int = 1,
    ) -> EngineResult:
        """Serve one request: tune (cached), convert (cached), run, account.

        ``x`` may be a length-``ncols`` vector or an ``(ncols, k)`` block;
        ``repetitions`` scales the modelled SpMV seconds (iterative
        workloads run the same product many times) and ``requests`` is
        how many requests the call serves (the columns of a coalesced
        block), which ``requests_served`` and the per-tier attribution
        count.  ``x`` is checked against the serving container the
        request resolves to — under a warm *key* that is the key's
        cached container, whatever *matrix* is passed — so a malformed
        or mismatched ``x`` raises
        :class:`~repro.errors.ShapeError` or
        :class:`~repro.errors.ValidationError` before any kernel runs.
        The check is O(1); a front end that already ran
        :func:`~repro.runtime.batch.validate_operand` pays no copy.  A
        warm key is served by :meth:`serve_warm`.
        """
        fp = self.fingerprint(matrix, key=key)
        operand = np.ascontiguousarray(x, dtype=np.float64)
        result = self.serve_warm(fp, operand, repetitions, requests)
        if result is not None:
            return result
        chain = self._chain(matrix, fp)
        check_operand(operand, chain.prepared.ncols)
        y = self._run_kernel(chain.prepared, operand)
        return self._served(chain, y, operand, repetitions, requests)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Every engine counter in one dict — the metrics surface.

        Callers (the service's metrics endpoint, the CLI, dashboards)
        should consume this rather than poking ``counters`` attributes:

        * ``requests_served`` / ``unique_matrices`` — request-stream
          tallies;
        * ``counters`` — the per-cache hit/miss breakdown
          (:meth:`CacheCounters.as_dict`);
        * ``hits`` / ``misses`` / ``hit_rate`` — the cross-cache totals;
        * ``seconds`` — modelled time by category
          (tuning / conversion / spmv);
        * ``backends`` — request counts and modelled SpMV seconds by
          the name of the kernel that ran them;
        * ``invalidations`` — epoch bookkeeping for mutable matrices
          (epoch advances, carried-forward decisions, forced re-tunes;
          :meth:`InvalidationCounters.as_dict`) plus the number of live
          ``streams``.

        The dict is a snapshot: mutating it never affects the engine.
        """
        return {
            "space": self.space.name,
            "requests_served": self.requests_served,
            "unique_matrices": len(self._reports),
            "counters": self.counters.as_dict(),
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "hit_rate": self.counters.hit_rate,
            "seconds": dict(self.seconds),
            "backends": {kb: dict(v) for kb, v in self.backend_seconds.items()},
            "streaming": dict(self.streaming),
            "invalidations": self.invalidations.as_dict(),
            "streams": len(self._streams),
        }

    def reset_accounting(self) -> None:
        """Zero the counters and time accounting; caches stay warm."""
        self.counters = CacheCounters()
        self.seconds = {
            "tuning": 0.0,
            "conversion": 0.0,
            "spmv": 0.0,
        }
        self.requests_served = 0
        self.backend_seconds = _backend_tally()
        self.streaming = {"requests": 0, "blocks": 0, "seconds": 0.0}
