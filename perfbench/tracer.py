"""In-memory spans around the calls the benchmark makes into each layer.

The tracer patches a fixed set of public functions and methods of the
``repro`` package with thin wrappers that record one span per call:
layer, operation, start, end, the span that caused it on the same
thread, and the benchmark phase it ran in.  Nothing inside the program
is edited; uninstalling restores the original attributes, so an
untraced phase in the same process runs the unmodified code.

Spans stay in a list until :meth:`Tracer.write` dumps them as JSON
lines.  :meth:`Tracer.summary` folds them into count, busy time and
self time per layer, where self time is busy time minus the part of it
covered by child spans of other layers.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    layer: str
    op: str
    phase: str
    thread: int
    start: float
    end: float = 0.0
    nbytes: int = 0
    hit: Optional[bool] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    nbytes: int = 0
    hits: int = 0


def _kernel_bytes(args, result) -> int:
    """Bytes a kernel call reads and writes, computed from array sizes."""
    matrix, operand = args[0], args[1]
    concrete = getattr(matrix, "concrete", matrix)
    return int(concrete.nbytes()) + int(operand.nbytes) + int(result.nbytes)


class Tracer:
    """Record spans around patched ``repro`` entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, layer: str, op: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(
            span_id=next(self._ids),
            parent=stack[-1] if stack else None,
            layer=layer,
            op=op,
            phase=self.phase,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, op: str):
        """Record a span around benchmark-side code."""
        span = self._open(layer, op)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, layer: str, op: str, *,
             nbytes: Optional[Callable] = None,
             hit: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(layer, op)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if nbytes is not None:
                span.nbytes = nbytes(args, result)
            if hit is not None:
                span.hit = hit(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch the layer entry points the benchmark reaches."""
        import repro.runtime.engine as engine_mod
        import repro.service.service as service_mod
        from repro.core.tuners.ml import MLTuner
        from repro.storage.tier import StorageTier

        if self._patches:
            return
        self.wrap(service_mod.TuningService, "submit", "service", "submit")
        self.wrap(service_mod.TuningService, "submit_update", "service",
                  "submit_update")
        # request_key is imported by name into both modules
        self.wrap(service_mod, "request_key", "runtime", "fingerprint")
        self.wrap(engine_mod, "request_key", "runtime", "fingerprint")
        self.wrap(engine_mod.WorkloadEngine, "update", "runtime", "update")
        self.wrap(MLTuner, "tune", "core", "decide")
        self.wrap(engine_mod, "convert", "formats", "convert")
        self.wrap(engine_mod, "matvec", "kernel", "spmv",
                  nbytes=_kernel_bytes)
        self.wrap(engine_mod, "batched_spmv", "kernel", "spmm",
                  nbytes=_kernel_bytes)
        self.wrap(StorageTier, "promote", "storage", "promote",
                  hit=lambda result: result is not None)
        self.wrap(StorageTier, "demote", "storage", "demote")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self, phase: Optional[str] = None) -> Dict[str, LayerStats]:
        """Count, busy and self time per ``layer.op`` for one phase."""
        spans = [s for s in self.spans if phase is None or s.phase == phase]
        by_id = {s.span_id: s for s in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is not None and parent.layer != s.layer:
                child_time[parent.span_id] += s.seconds
        out: Dict[str, LayerStats] = defaultdict(LayerStats)
        for s in spans:
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is not None and parent.layer == s.layer:
                continue  # nested call of the same layer: counted once
            st = out[f"{s.layer}.{s.op}"]
            st.calls += 1
            st.busy += s.seconds
            st.self_time += s.seconds - child_time[s.span_id]
            st.nbytes += s.nbytes
            st.hits += bool(s.hit)
        return dict(out)

    def write(self, path: str, header: Dict[str, object]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
