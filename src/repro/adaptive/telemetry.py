"""Per-request telemetry: the adaptive loop's sensory memory.

Adaptive layer 1.  The serving path already measures everything a
feedback tuner needs — matrix features, the chosen format, wall latency,
and (on shadow-probed batches) the rival per-format timings.
:class:`TelemetryLog` is where those observations live: a bounded,
thread-safe ring buffer fed by the
:class:`~repro.service.service.TuningService` observer hook, with an
optional disk spill so evicted observations are archived (JSON lines)
instead of lost.

An :class:`Observation` whose ``shadow_times`` are present knows its own
ground truth: :attr:`Observation.shadow_best` is the measured-fastest
format and :attr:`Observation.mispredicted` compares it against the
format the model actually chose — the signal the
:class:`~repro.adaptive.drift.DriftMonitor` and
:class:`~repro.adaptive.retrain.Retrainer` both feed on.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.errors import ValidationError

__all__ = ["Observation", "TelemetryLog"]


@dataclass(frozen=True)
class Observation:
    """One served request, as recorded by the telemetry feed.

    ``features`` is the Table-I feature vector of the served matrix (the
    engine's cached copy); ``shadow_times`` carries the rival per-format
    timings on shadow-probed batches and is ``None`` otherwise.
    ``backend`` names the kernel tier (:mod:`repro.kernels`) that
    executed the request.  ``epoch`` is the matrix version the request was
    served against (0 = never mutated) — trace-grade provenance, so a
    replayed observation stream can be aligned against the update
    barriers of the trace that produced it.
    """

    fingerprint: str
    format: str
    seconds: float
    latency_seconds: float
    batch_size: int
    model_version: str = ""
    backend: str = "numpy"
    epoch: int = 0
    features: Optional[np.ndarray] = None
    shadow_times: Optional[Dict[str, float]] = None
    sequence: int = field(default=-1, compare=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Observation":
        """Build from a service observer dict (or a spilled JSON record)."""
        features = payload.get("features")
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
        shadow = payload.get("shadow_times")
        return cls(
            fingerprint=str(payload["fingerprint"]),
            format=str(payload["format"]),
            seconds=float(payload.get("seconds", 0.0)),
            latency_seconds=float(payload.get("latency_seconds", 0.0)),
            batch_size=int(payload.get("batch_size", 1)),
            model_version=str(payload.get("model_version", "")),
            backend=str(payload.get("backend", "numpy")),
            epoch=int(payload.get("epoch", 0)),
            features=features,
            shadow_times=dict(shadow) if shadow is not None else None,
            sequence=int(payload.get("sequence", -1)),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (used by the disk spill)."""
        return {
            "fingerprint": self.fingerprint,
            "format": self.format,
            "seconds": self.seconds,
            "latency_seconds": self.latency_seconds,
            "batch_size": self.batch_size,
            "model_version": self.model_version,
            "backend": self.backend,
            "epoch": self.epoch,
            "features": (
                None if self.features is None else
                [float(v) for v in self.features]
            ),
            "shadow_times": self.shadow_times,
            "sequence": self.sequence,
        }

    # ------------------------------------------------------------------
    @property
    def shadow_best(self) -> Optional[str]:
        """Measured-fastest rival format (``None`` without shadow times)."""
        if not self.shadow_times:
            return None
        return min(self.shadow_times, key=self.shadow_times.get)

    @property
    def mispredicted(self) -> Optional[bool]:
        """Did the model's format lose to a shadow rival? (``None`` = unknown)."""
        best = self.shadow_best
        if best is None:
            return None
        return best != self.format


class TelemetryLog:
    """Bounded, thread-safe, disk-spillable buffer of observations.

    Parameters
    ----------
    capacity:
        Maximum observations held in memory; beyond it the oldest are
        evicted (spilled to disk when *spill_path* is set, dropped and
        counted otherwise).
    spill_path:
        Optional JSONL archive for evicted observations.  Appended
        atomically per line under the log's lock; read back with
        :meth:`iter_spilled`.

    Every mutation happens under one internal lock, so many service
    worker threads can record concurrently; counters (``recorded`` /
    ``spilled`` / ``dropped`` / ``shadowed`` / ``mispredicts``) are
    exposed through :meth:`stats`.
    """

    def __init__(
        self, capacity: int = 4096, *, spill_path: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.spill_path = str(spill_path) if spill_path is not None else None
        self._buffer: Deque[Observation] = deque()
        self._lock = threading.Lock()
        # disk appends happen under their own lock, never the buffer's:
        # a slow spill must not stall every serving worker's record()
        self._spill_lock = threading.Lock()
        self._sequence = 0
        self.recorded = 0
        self.spilled = 0
        self.dropped = 0
        self.shadowed = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------
    def record(self, observation) -> Observation:
        """Append one observation (an :class:`Observation` or a dict).

        Returns the stored :class:`Observation` (sequence-stamped).
        When the buffer is full the oldest record is evicted: appended
        to *spill_path* when configured, dropped (and counted) when not.
        """
        if isinstance(observation, Observation):
            # copy before stamping: the caller's object must not change
            # (it may be re-recorded, or shared with another log)
            stamped = replace(observation)
        else:
            stamped = Observation.from_dict(observation)
        with self._lock:
            # stamp the (owned) copy in place: sequence is excluded from
            # equality and the record path runs on serving workers
            object.__setattr__(stamped, "sequence", self._sequence)
            self._sequence += 1
            self.recorded += 1
            if stamped.shadow_times is not None:
                self.shadowed += 1
                if stamped.mispredicted:
                    self.mispredicts += 1
            self._buffer.append(stamped)
            evicted: List[Observation] = []
            while len(self._buffer) > self.capacity:
                evicted.append(self._buffer.popleft())
            if evicted and self.spill_path is None:
                self.dropped += len(evicted)
        if evicted and self.spill_path is not None:
            # the buffer lock is released: concurrent evictors may
            # interleave whole batches, so the archive is only
            # near-sorted — readers needing strict order sort by the
            # sequence stamp (dataset_from_records already does)
            with self._spill_lock:
                with open(self.spill_path, "a", encoding="utf-8") as fh:
                    for obs in evicted:
                        fh.write(json.dumps(obs.to_dict()) + "\n")
            with self._lock:
                self.spilled += len(evicted)
        return stamped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def snapshot(self) -> List[Observation]:
        """Copy of the in-memory buffer, oldest first."""
        with self._lock:
            return list(self._buffer)

    def window(self, n: int) -> List[Observation]:
        """The most recent *n* in-memory observations, oldest first."""
        if n < 0:
            raise ValidationError(f"window size must be >= 0, got {n}")
        with self._lock:
            if n >= len(self._buffer):
                return list(self._buffer)
            return list(self._buffer)[-n:]

    def shadowed_records(self, n: Optional[int] = None) -> List[Observation]:
        """In-memory observations carrying shadow timings (latest *n*).

        These are the trainable records: each knows its features and its
        measured-optimal format, so the retrainer consumes exactly this
        list.
        """
        records = [o for o in self.snapshot() if o.shadow_times is not None]
        if n is not None:
            records = records[-n:]
        return records

    def clear(self) -> int:
        """Drop the in-memory buffer (spill archive untouched)."""
        with self._lock:
            n = len(self._buffer)
            self._buffer.clear()
            return n

    # ------------------------------------------------------------------
    def iter_spilled(self) -> Iterator[Observation]:
        """Read back the spill archive, oldest first."""
        if self.spill_path is None or not os.path.exists(self.spill_path):
            return iter(())
        with open(self.spill_path, "r", encoding="utf-8") as fh:
            payloads = [json.loads(line) for line in fh if line.strip()]
        return (Observation.from_dict(p) for p in payloads)

    def stats(self) -> Dict[str, object]:
        """Counters + occupancy in one dict (the telemetry endpoint)."""
        with self._lock:
            shadowed = self.shadowed
            return {
                "capacity": self.capacity,
                "size": len(self._buffer),
                "recorded": self.recorded,
                "spilled": self.spilled,
                "dropped": self.dropped,
                "shadowed": shadowed,
                "mispredicts": self.mispredicts,
                "mispredict_rate": (
                    self.mispredicts / shadowed if shadowed else 0.0
                ),
                "spill_path": self.spill_path,
            }
