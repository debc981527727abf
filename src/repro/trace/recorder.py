"""Capture live service traffic into a replayable trace.

Trace layer 2.  :class:`TraceRecorder` attaches to a running
:class:`~repro.service.service.TuningService` or
:class:`~repro.distributed.gateway.DistributedService` and records every
request, update barrier, model promotion and injected worker kill into a
:class:`~repro.trace.format.TraceWriter`:

* **Requests and updates** are captured at submission time through
  :class:`RecordingSession` (a drop-in for
  :class:`~repro.service.service.Session`): the operand content, arrival
  timestamp and global submission order are recorded under the
  recorder's lock *around* the underlying submit, so the recorded
  ``seq`` order is exactly the order the service observed — the property
  deterministic replay depends on.  Result digests (``y``), epochs and
  formats are filled in asynchronously by future callbacks.
* **Batch telemetry** rides the service's observer hook: the recorder
  chains in front of any installed observer (and keeps forwarding to
  it), counting served batches/observations into the header.
* **Model promotions** are captured by wrapping
  ``service.promote_model`` for the recorder's lifetime.
* **Worker kills** arrive through the distributed gateway's
  ``set_kill_listener`` hook; each kill is recorded with an *anchor*
  key (a recorded matrix the killed worker owns) so replay can re-aim
  the kill at the same worker under any fleet size.

A recorder also stands in for its service: any attribute it does not
define passes through, so :func:`~repro.trace.replay.replay_trace` driving a recorder
records a generated workload (:func:`~repro.trace.workloads.record_workload`).
Call :meth:`TraceRecorder.finish` to wait for in-flight results, detach
every hook and write the trace directory.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TraceError
from repro.formats.delta import MatrixDelta
from repro.formats.dynamic import DynamicMatrix
from repro.runtime.engine import request_key
from repro.trace.format import RecordedTrace, TraceWriter, array_digest

__all__ = ["TraceRecorder", "RecordingSession"]


class TraceRecorder:
    """Records a live service run into a replayable trace directory.

    Parameters
    ----------
    service:
        The service to record — in-process or distributed; the recorder
        keys on the common session/observer/promote surface and uses the
        kill-listener hook only where the service offers one.
    name / source:
        Stamped into the trace header (reporting + provenance only).
    seed:
        The workload generator's seed, if any — recorded so a replay
        report can name the traffic's origin.
    """

    def __init__(
        self,
        service,
        *,
        name: str = "trace",
        source: str = "live",
        seed: int = 0,
    ) -> None:
        self.service = service
        space = getattr(service, "space", None)
        kind = "distributed" if hasattr(service, "worker_of") else "inproc"
        self._writer = TraceWriter(
            name=name,
            source=source,
            space={
                "system": space.system.name if space is not None else "",
                "backend": space.backend if space is not None else "",
            },
            tuner=type(service.tuner).__name__ if service.tuner else "",
            service={
                "kind": kind,
                "workers": int(getattr(service, "workers", 0)),
            },
            seed=seed,
        )
        self._lock = threading.RLock()
        self._t0 = time.perf_counter()
        self._seq = 0
        self._futures: List = []
        self._finished = False
        self.observed_batches = 0
        self.observed_requests = 0
        self._attach()

    # ------------------------------------------------------------------
    # hook management
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        self._prev_observer = self.service._observer
        # keep the installed bound-method objects: attribute access mints
        # a fresh bound method per lookup, so detach must compare against
        # the exact instances that were installed
        self._observe_hook = self._observe
        self.service.set_observer(self._observe_hook)
        self._orig_promote = self.service.promote_model
        self.service.promote_model = self._promote_and_record
        if hasattr(self.service, "set_kill_listener"):
            self.service.set_kill_listener(self._on_kill)

    def detach(self) -> None:
        """Restore every hook; the service keeps serving unrecorded."""
        if self.service._observer is self._observe_hook:
            self.service.set_observer(self._prev_observer)
        if self.service.promote_model == self._promote_and_record:
            # remove the instance attribute to re-expose the bound method
            del self.service.promote_model
        if hasattr(self.service, "set_kill_listener"):
            self.service.set_kill_listener(None)

    def __getattr__(self, name: str):
        # the recorder stands in for its service (``replay_trace(recorder,
        # trace)`` records a generated workload): what the recorder does
        # not define passes through, and the hooks capture the rest
        if name == "service":  # not set yet (copy, failed __init__)
            raise AttributeError(name)
        return getattr(self.service, name)

    # ------------------------------------------------------------------
    def session(self, name: str = "") -> "RecordingSession":
        """A recording client session (drop-in for ``service.session``)."""
        with self._lock:
            self._writer.add_session(name)
        return RecordingSession(self, self.service.session(name), name)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _next(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _ensure_matrix(self, key: str, matrix) -> None:
        if self._writer.has_matrix(key):
            return
        concrete = (
            matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
        )
        self._writer.add_matrix(key, concrete.to_coo())

    # ------------------------------------------------------------------
    # capture: requests and updates
    # ------------------------------------------------------------------
    def record_submit(
        self,
        session,
        session_name: str,
        matrix,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        repetitions: int = 1,
    ):
        """Record one request and submit it; returns the service future.

        The lock is held across seq assignment *and* the underlying
        submit, so recorded order == the service's per-fingerprint FIFO
        order (epochs and barriers replay identically).
        """
        operand = np.ascontiguousarray(x, dtype=np.float64)
        with self._lock:
            if self._finished:
                raise TraceError("recorder already finished")
            fp = key if key is not None else request_key(matrix)
            self._ensure_matrix(fp, matrix)
            seq = self._next()
            event = self._writer.add_event({
                "seq": seq,
                "t": self._now(),
                "kind": "spmv",
                "session": session_name,
                "key": fp,
                "x": self._writer.add_operand(seq, operand),
                "x_digest": array_digest(operand),
                "shape": [int(n) for n in operand.shape],
                "repetitions": int(repetitions),
                "ok": False,
            })
            future = session.submit(
                matrix, operand, key=fp, repetitions=repetitions
            )
            self._futures.append((event, future, "spmv"))
        return future

    def record_update(
        self,
        session,
        session_name: str,
        matrix,
        delta: MatrixDelta,
        *,
        key: Optional[str] = None,
    ):
        """Record one update barrier and submit it; returns the future."""
        with self._lock:
            if self._finished:
                raise TraceError("recorder already finished")
            fp = key if key is not None else request_key(matrix)
            self._ensure_matrix(fp, matrix)
            seq = self._next()
            event = self._writer.add_event({
                "seq": seq,
                "t": self._now(),
                "kind": "update",
                "session": session_name,
                "key": fp,
                "delta": self._writer.add_delta(seq, delta),
                "ops": int(len(delta)),
                "ok": False,
            })
            session.updates += 1
            future = self.service.submit_update(matrix, delta, key=fp)
            self._futures.append((event, future, "update"))
        return future

    def _complete_spmv(self, event: Dict[str, object], future) -> None:
        exc = future.exception()
        if exc is not None:
            event["ok"] = False
            event["error"] = f"{type(exc).__name__}: {exc}"
            return
        result = future.result()
        event["ok"] = True
        event["y_digest"] = array_digest(result.y)
        event["epoch"] = int(result.epoch)
        event["format"] = result.format
        event["backend"] = result.backend
        event["batch_size"] = int(result.batch_size)
        event["latency_seconds"] = float(result.latency_seconds)
        event["model_version"] = result.model_version
        if result.trace_id:
            # observability span ID — correlates a replayed event with
            # the original run's span timeline (optional field, absent
            # on traces captured before spans existed)
            event["trace_id"] = result.trace_id

    def _complete_update(self, event: Dict[str, object], future) -> None:
        exc = future.exception()
        if exc is not None:
            event["ok"] = False
            event["error"] = f"{type(exc).__name__}: {exc}"
            return
        result = future.result()
        event["ok"] = True
        event["epoch"] = int(result.epoch)
        event["carried_forward"] = bool(result.carried_forward)
        event["retuned"] = bool(result.retuned)
        event["format"] = result.format
        event["drift"] = float(result.drift)
        event["nnz"] = int(result.nnz)
        event["latency_seconds"] = float(result.latency_seconds)
        if result.trace_id:
            event["trace_id"] = result.trace_id

    # ------------------------------------------------------------------
    # capture: promotions, kills, batch telemetry
    # ------------------------------------------------------------------
    def _promote_and_record(
        self, tuner, *, version: str, source: str = "", algorithm: str = ""
    ):
        with self._lock:
            self._writer.add_event({
                "seq": self._next(),
                "t": self._now(),
                "kind": "promote",
                "session": "",
                "version": str(version),
                "algorithm": algorithm or type(tuner).__name__,
                "tuner": type(tuner).__name__,
            })
        # outside the lock: a distributed promotion blocks on worker acks
        # whose receiver threads may be feeding the observer hook
        return self._orig_promote(
            tuner, version=version, source=source, algorithm=algorithm
        )

    def _on_kill(self, index: int, pid: Optional[int]) -> None:
        with self._lock:
            anchor = None
            worker_of = getattr(self.service, "worker_of", None)
            if worker_of is not None:
                for key in self._writer.matrix_keys():
                    if worker_of(key) == index:
                        anchor = key
                        break
            self._writer.add_event({
                "seq": self._next(),
                "t": self._now(),
                "kind": "kill",
                "session": "",
                "worker": int(index),
                "anchor": anchor,
            })

    def _observe(self, observations: List[dict]) -> None:
        with self._lock:
            self.observed_batches += 1
            self.observed_requests += len(observations)
        if self._prev_observer is not None:
            self._prev_observer(observations)

    # ------------------------------------------------------------------
    def finish(self, path, *, timeout: float = 120.0) -> RecordedTrace:
        """Wait for in-flight results, detach and write the trace."""
        with self._lock:
            self._finished = True
            futures = list(self._futures)
        done, not_done = wait(
            [f for _, f, _ in futures], timeout=timeout
        )
        if not_done:
            raise TraceError(
                f"{len(not_done)} recorded requests still pending after "
                f"{timeout}s; cannot write a complete trace"
            )
        # fill result fields here, synchronously: Future.set_result wakes
        # waiters *before* running done-callbacks, so only an explicit
        # post-wait pass guarantees every event is complete
        for event, future, kind in futures:
            if kind == "spmv":
                self._complete_spmv(event, future)
            else:
                self._complete_update(event, future)
        self.detach()
        with self._lock:
            latencies = [
                float(e["latency_seconds"])
                for e in self._writer.events
                if e["kind"] == "spmv" and e.get("ok")
            ]
            self._writer.recorded = {
                "wall_seconds": self._now(),
                "mean_latency_seconds": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
                "observed_batches": self.observed_batches,
                "observed_requests": self.observed_requests,
            }
            self._writer.write(path)
        return RecordedTrace.load(path)


class RecordingSession:
    """A client session whose traffic is captured by a recorder.

    Mirrors the :class:`~repro.service.service.Session` API (submit /
    spmv / spmm / update / submit_update) and keeps the underlying
    session's per-client tallies; the wrapped session is available as
    ``.session``.
    """

    def __init__(
        self, recorder: TraceRecorder, session, name: str = ""
    ) -> None:
        self._recorder = recorder
        self.session = session
        self.name = name

    def submit(self, matrix, x, *, key=None, repetitions: int = 1):
        """Asynchronous recorded request; returns the service future."""
        return self._recorder.record_submit(
            self.session, self.name, matrix, x,
            key=key, repetitions=repetitions,
        )

    def spmv(self, matrix, x, *, key=None, repetitions: int = 1):
        """Blocking recorded SpMV."""
        result = self.submit(
            matrix, x, key=key, repetitions=repetitions
        ).result()
        self.session.completed += 1
        self.session.latency_total += result.latency_seconds
        return result

    def spmm(self, matrix, X, *, key=None, repetitions: int = 1):
        """Blocking recorded block SpMV (``X`` is an ``(ncols, k)`` block)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise TraceError(f"spmm operand must be 2-D, got ndim={X.ndim}")
        return self.spmv(matrix, X, key=key, repetitions=repetitions)

    def submit_update(self, matrix, delta, *, key=None):
        """Asynchronous recorded update barrier; returns the future."""
        return self._recorder.record_update(
            self.session, self.name, matrix, delta, key=key
        )

    def update(self, matrix, delta, *, key=None):
        """Blocking recorded update barrier."""
        return self.submit_update(matrix, delta, key=key).result()

    @property
    def requests(self) -> int:
        return self.session.requests

    @property
    def updates(self) -> int:
        return self.session.updates
