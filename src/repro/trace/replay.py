"""The one workload driver: replay a trace against any service tier.

Trace layer 3.  :func:`replay_trace` drives a
:class:`~repro.trace.format.RecordedTrace` — recorded from a live run,
or built by a generator in :mod:`repro.trace.workloads` — against a
live service:

* **Deterministic scheduling** — one dispatcher thread submits every
  event asynchronously in recorded global order (``seq``).  The
  services' per-fingerprint queues are FIFO, so per-matrix request
  order, update barriers and epoch attribution replay exactly as
  recorded, while the worker pool still overlaps and coalesces requests
  across fingerprints exactly as live traffic would.
* **Virtual-clock pacing** — at speed ``1x``/``10x``/``100x`` the
  dispatcher sleeps until each event's recorded arrival offset (scaled)
  before submitting; ``max`` submits as fast as the services accept —
  the throughput mode; a trace of ``spmv`` events only then has
  nothing to order across sessions, so each session submits from its
  own client thread instead.  Pacing and client threads shift wall time
  only: every result is identical at every speed.
* **Bitwise verification** — every replayed result is digested with the
  same :func:`~repro.trace.format.array_digest` the recorder used and
  compared against the recorded ``y_digest`` (plus epoch and format);
  mismatches are itemised in the report.
* **Fault re-injection** — recorded ``kill`` events re-kill the worker
  owning the recorded *anchor* key (stable under any fleet size);
  promotions re-promote the serving tuner under the event's version,
  after a barrier.  Both are skipped (and counted as skipped) on tiers
  without the hook.

The :class:`TraceReplayReport`'s :meth:`~TraceReplayReport.deterministic`
block — per-request digests, epochs, formats — is the replay oracle: two
replays of the same trace must produce byte-identical blocks, whatever
the tier, worker count or speed.  Wall timings live outside the block.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import CancelledError, TimeoutError, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import TraceError, ValidationError
from repro.trace.format import RecordedTrace, array_digest, load_trace

__all__ = ["SPEEDS", "TraceReplayReport", "replay_trace"]

#: CLI speed names -> arrival-time scale factor (``None`` = no pacing).
SPEEDS: Dict[str, Optional[float]] = {
    "1x": 1.0,
    "10x": 10.0,
    "100x": 100.0,
    "max": None,
}

#: spmv-result fields compared (and reported) per replayed request.
_SPMV_FIELDS = ("y_digest", "epoch", "format")
_UPDATE_FIELDS = ("epoch", "carried_forward", "retuned", "format", "drift")


@dataclass
class TraceReplayReport:
    """Outcome of one trace replay.

    Everything derived from result *content* lives in
    :meth:`deterministic`; wall-clock numbers (``wall_seconds``,
    latencies, ``service_stats``) sit alongside for reporting and are
    excluded from :attr:`results_digest`.
    """

    trace_name: str
    trace_fingerprint: str
    speed: str
    requests: int = 0
    updates: int = 0
    verified: int = 0
    mismatches: List[Dict[str, object]] = field(default_factory=list)
    lost: int = 0
    kills_injected: int = 0
    kills_skipped: int = 0
    promotions_applied: int = 0
    promotions_skipped: int = 0
    records: List[Dict[str, object]] = field(default_factory=list, repr=False)
    wall_seconds: float = 0.0
    #: per-request latencies of the served SpMVs, in seq order
    latencies: List[float] = field(default_factory=list, repr=False)
    recorded_wall_seconds: float = 0.0
    recorded_mean_latency_seconds: float = 0.0
    service_stats: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        """Did every verified result match and every request complete?"""
        return not self.mismatches and self.lost == 0

    def deterministic(self) -> Dict[str, object]:
        """The content-only view: identical across conforming replays."""
        return {
            "trace_fingerprint": self.trace_fingerprint,
            "requests": self.requests,
            "updates": self.updates,
            "records": self.records,
        }

    @property
    def results_digest(self) -> str:
        """Digest of :meth:`deterministic` — the one-line replay oracle."""
        payload = json.dumps(
            self.deterministic(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.blake2b(payload, digest_size=16).hexdigest()

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_latency_seconds(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def to_dict(self) -> Dict[str, object]:
        """JSON view (the CLI's ``BENCH_replay.json`` payload)."""
        return {
            "trace": self.trace_name,
            "trace_fingerprint": self.trace_fingerprint,
            "speed": self.speed,
            "requests": self.requests,
            "updates": self.updates,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "lost": self.lost,
            "kills_injected": self.kills_injected,
            "kills_skipped": self.kills_skipped,
            "promotions_applied": self.promotions_applied,
            "promotions_skipped": self.promotions_skipped,
            "ok": self.ok,
            "results_digest": self.results_digest,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "mean_latency_seconds": self.mean_latency_seconds,
            "recorded_wall_seconds": self.recorded_wall_seconds,
            "recorded_mean_latency_seconds": self.recorded_mean_latency_seconds,
        }


def _resolve_speed(speed: Union[str, float, None]) -> Optional[float]:
    if speed is None:
        return None
    if isinstance(speed, str):
        if speed not in SPEEDS:
            raise ValidationError(
                f"unknown replay speed {speed!r}; expected one of "
                f"{sorted(SPEEDS)}"
            )
        return SPEEDS[speed]
    factor = float(speed)
    if factor <= 0:
        raise ValidationError(f"replay speed must be > 0, got {factor}")
    return factor


def _submit_by_session(
    service, trace, matrices, events, deadline
) -> List[tuple]:
    """Submit each session's ``spmv`` events from its own client thread.

    Every thread submits its session's requests in ``seq`` order, all
    asynchronously, then waits (until *deadline*) on its own futures,
    as a live client does — so sessions overlap and same-matrix
    requests coalesce across them.  Returns ``(event, future)`` pairs in
    ``seq`` order.
    """
    by_session: Dict[str, List[tuple]] = {}
    for event in events:
        key = str(event["key"])
        by_session.setdefault(str(event.get("session", "")), []).append(
            (event, matrices[key], key, int(event.get("repetitions", 1)))
        )
    pending: List[tuple] = []
    errors: List[BaseException] = []

    def client(name: str, requests: List[tuple]) -> None:
        try:
            session = service.session(name)
            futures = [
                (event, session.submit(
                    matrix, trace.operand(event), key=key, repetitions=reps
                ))
                for event, matrix, key, reps in requests
            ]
            pending.extend(futures)
            for _, future in futures:
                try:
                    future.exception(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except (CancelledError, TimeoutError):
                    pass  # counted as lost when results are collected
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=item, name=f"replay-{item[0]}")
        for item in by_session.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sorted(pending, key=lambda item: item[0]["seq"])


def replay_trace(
    service,
    trace: Union[RecordedTrace, str],
    *,
    speed: Union[str, float, None] = "max",
    verify: bool = True,
    inject_kills: bool = True,
    apply_promotions: bool = True,
    timeout: float = 300.0,
) -> TraceReplayReport:
    """Drive *trace* against *service*; verify recorded results bitwise.

    The one workload driver.  *service* may be any tier exposing the
    session/submit surface (:class:`~repro.service.service.TuningService`,
    :class:`~repro.distributed.gateway.DistributedService`, an
    adaptive-wrapped service) or a
    :class:`~repro.trace.recorder.TraceRecorder`, which stands in for the
    service it records.  *trace* is a recorded trace (or its directory)
    or a generated one (:mod:`repro.trace.workloads`); recorded results,
    where present, are verified.  Every wait — promotion barriers and
    the final collection — shares one deadline *timeout* seconds after
    the last event's scheduled arrival (the start, at ``max`` speed); a
    request unresolved by then counts as lost.
    """
    if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
        trace = load_trace(trace)
    factor = _resolve_speed(speed)
    if isinstance(speed, str):
        speed_label = speed
    else:
        speed_label = "max" if factor is None else f"{factor}x"

    matrices = trace.matrices()
    events = sorted(trace.events, key=lambda e: e["seq"])
    sessions: Dict[str, object] = {}
    pending: List[tuple] = []

    def session_for(event):
        name = str(event.get("session", ""))
        if name not in sessions:
            sessions[name] = service.session(name)
        return sessions[name]

    def quiesce() -> None:
        remaining = max(0.0, deadline - time.monotonic())
        wait([future for _, future in pending], timeout=remaining)

    report = TraceReplayReport(
        trace_name=trace.name,
        trace_fingerprint=trace.fingerprint,
        speed=speed_label,
    )
    recorded = trace.header.get("recorded", {})
    report.recorded_wall_seconds = float(recorded.get("wall_seconds", 0.0))
    report.recorded_mean_latency_seconds = float(
        recorded.get("mean_latency_seconds", 0.0)
    )

    t_base = float(events[0].get("t", 0.0)) if events else 0.0
    # the clock for *timeout* starts at the last scheduled arrival, so
    # pacing never eats into it
    paced = 0.0
    if factor is not None and events:
        paced = (float(events[-1].get("t", 0.0)) - t_base) / factor
    deadline = time.monotonic() + paced + timeout
    t0 = time.perf_counter()
    if factor is None and all(e["kind"] == "spmv" for e in events):
        # nothing to order across sessions: each session is a client
        # submitting from its own thread
        pending = _submit_by_session(
            service, trace, matrices, events, deadline
        )
    else:
        for event in events:
            if factor is not None:
                target = (float(event.get("t", 0.0)) - t_base) / factor
                delay = target - (time.perf_counter() - t0)
                if delay > 1e-4:
                    time.sleep(delay)
            kind = event["kind"]
            if kind == "spmv":
                key = str(event["key"])
                future = session_for(event).submit(
                    matrices[key],
                    trace.operand(event),
                    key=key,
                    repetitions=int(event.get("repetitions", 1)),
                )
                pending.append((event, future))
            elif kind == "update":
                key = str(event["key"])
                future = session_for(event).submit_update(
                    matrices[key], trace.delta(event), key=key
                )
                pending.append((event, future))
            elif kind == "kill":
                anchor = event.get("anchor")
                if (
                    inject_kills
                    and anchor
                    and hasattr(service, "kill_worker")
                    and hasattr(service, "worker_of")
                ):
                    service.kill_worker(service.worker_of(str(anchor)))
                    report.kills_injected += 1
                else:
                    report.kills_skipped += 1
            elif kind == "promote":
                if apply_promotions and hasattr(service, "promote_model"):
                    # A promotion is a barrier, like an update: the live swap
                    # reset every engine's stream drift anchor after earlier
                    # events had drained, so replay must quiesce before
                    # re-promoting — otherwise queued pre-promote events
                    # re-anchor streams after the reset and later updates
                    # see phantom drift.  Unresolved futures count as lost
                    # when results are collected.
                    quiesce()
                    service.promote_model(
                        service.tuner,
                        version=str(event.get("version", "")),
                        algorithm=str(event.get("algorithm", "")),
                    )
                    report.promotions_applied += 1
                else:
                    report.promotions_skipped += 1
            else:  # pragma: no cover - load_trace already rejects these
                raise TraceError(f"unknown event kind {kind!r}")

    quiesce()
    report.wall_seconds = time.perf_counter() - t0
    for event, future in pending:
        kind = event["kind"]
        record: Dict[str, object] = {
            "seq": int(event["seq"]),
            "kind": kind,
            "key": str(event["key"]),
        }
        try:
            result = future.result(timeout=0)
        except Exception as exc:  # failed, cancelled or past the deadline
            report.lost += 1
            record["error"] = f"{type(exc).__name__}: {exc}"
            report.records.append(record)
            continue
        if kind == "spmv":
            report.requests += 1
            report.latencies.append(float(result.latency_seconds))
            record["y_digest"] = array_digest(result.y)
            record["epoch"] = int(result.epoch)
            record["format"] = result.format
        else:
            report.updates += 1
            record["epoch"] = int(result.epoch)
            record["carried_forward"] = bool(result.carried_forward)
            record["retuned"] = bool(result.retuned)
            record["format"] = result.format
            record["drift"] = float(result.drift)
        report.records.append(record)
        if verify and event.get("ok"):
            fields = _SPMV_FIELDS if kind == "spmv" else _UPDATE_FIELDS
            compared = False
            for field_name in fields:
                if field_name not in event:
                    continue
                compared = True
                if record.get(field_name) != event[field_name]:
                    report.mismatches.append({
                        "seq": int(event["seq"]),
                        "key": str(event["key"]),
                        "field": field_name,
                        "recorded": event[field_name],
                        "replayed": record.get(field_name),
                    })
            if compared:
                report.verified += 1
    report.service_stats = service.stats()
    return report
