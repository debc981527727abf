"""Trace capture + deterministic replay: traffic as a regression corpus.

Recorded traffic is the only ground truth a serving system has.  This
package turns a live run of the tuning service — any tier — into a
versioned on-disk *trace* (JSONL events + npz arrays + content
fingerprint) and re-drives it deterministically against any other
configuration, verifying every result bitwise against the recording:

* :mod:`~repro.trace.format` — the on-disk schema
  (:data:`~repro.trace.format.TRACE_VERSION`), reader/writer and the
  :func:`~repro.trace.format.validate_trace` checker behind
  ``tools/check_trace.py``;
* :mod:`~repro.trace.recorder` — :class:`TraceRecorder` /
  :class:`RecordingSession`, capture hooks over the live service
  (observer chain, promote wrap, distributed kill listener);
* :mod:`~repro.trace.replay` — :func:`replay_trace` and
  :class:`TraceReplayReport`, the one workload driver: virtual-clock
  pacing or full speed, with bitwise verification;
* :mod:`~repro.trace.workloads` — the workload generators
  (:func:`workload_trace`, :func:`spmv_trace`, the shared
  :func:`hot_cold_keys` draw), :func:`record_workload` (the canonical
  seeded workload behind ``repro record`` and the golden corpus) and
  :func:`service_for_trace`.

See ``docs/replay.md`` for the format spec and CLI walkthrough;
``tests/trace/golden/`` holds the committed regression corpus.
"""

from repro.trace.format import (
    TRACE_VERSION,
    RecordedTrace,
    TraceWriter,
    array_digest,
    load_trace,
    trace_fingerprint,
    validate_trace,
)
from repro.trace.recorder import RecordingSession, TraceRecorder
from repro.trace.replay import SPEEDS, TraceReplayReport, replay_trace
from repro.trace.workloads import (
    hot_cold_keys,
    record_workload,
    service_for_trace,
    spmv_trace,
    workload_trace,
)

__all__ = [
    "TRACE_VERSION",
    "SPEEDS",
    "RecordedTrace",
    "RecordingSession",
    "TraceRecorder",
    "TraceReplayReport",
    "TraceWriter",
    "array_digest",
    "hot_cold_keys",
    "load_trace",
    "record_workload",
    "replay_trace",
    "service_for_trace",
    "spmv_trace",
    "trace_fingerprint",
    "validate_trace",
    "workload_trace",
]
