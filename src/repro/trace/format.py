"""Versioned on-disk trace format: JSONL events + npz arrays + fingerprint.

Trace layer 1.  A recorded trace is a directory of three files:

``trace.json``
    The header: format version, where the trace came from (space, tuner,
    serving tier, seed), the matrix key table, event counts, the
    recorded run's wall/latency summary, and the content
    :func:`fingerprint` over the other two files.
``events.jsonl``
    One JSON object per line, one line per event, in global submission
    order (``seq``).  Event kinds: ``spmv`` (one request, operand +
    recorded result digest), ``update`` (a :class:`MatrixDelta`
    barrier), ``kill`` (an injected worker kill), ``promote`` (a model
    promotion/rollback).
``arrays.npz``
    Every array the events reference, compressed: matrix content
    (``m<i>_row/col/data/shape``, indexed by position in the header's
    ``matrices`` table), request operands (``x<seq>``) and delta arrays
    (``d<seq>_row/col/value/op``).

The fingerprint is a blake2b digest over the raw ``events.jsonl`` bytes
plus every npz array's dtype/shape/bytes (sorted by name), so it is
stable across re-compression and independent of the header file itself.
Bump :data:`TRACE_VERSION` whenever the schema changes shape; readers
reject traces from a different major version rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import TraceError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.delta import MatrixDelta

__all__ = [
    "TRACE_VERSION",
    "HEADER_FILE",
    "EVENTS_FILE",
    "ARRAYS_FILE",
    "EVENT_KINDS",
    "array_digest",
    "trace_fingerprint",
    "TraceWriter",
    "RecordedTrace",
    "load_trace",
    "validate_trace",
]

#: On-disk schema version.  Readers refuse other versions.
TRACE_VERSION = 1

HEADER_FILE = "trace.json"
EVENTS_FILE = "events.jsonl"
ARRAYS_FILE = "arrays.npz"

EVENT_KINDS = ("spmv", "update", "kill", "promote")

_FINGERPRINT_SALT = b"repro-trace-v1"


def array_digest(arr: np.ndarray) -> str:
    """Content digest of one array: dtype + shape + raw bytes (blake2b)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(arr.dtype.str.encode())
    h.update(repr(tuple(arr.shape)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def trace_fingerprint(
    events_bytes: bytes, arrays: Mapping[str, np.ndarray]
) -> str:
    """Content fingerprint over the event log and every referenced array.

    Computed from decoded array content (not zip bytes), so the same
    trace re-saved under a different compression level keeps its
    fingerprint.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(_FINGERPRINT_SALT)
    h.update(events_bytes)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(b"\0")
        h.update(array_digest(arrays[name]).encode())
    return h.hexdigest()


def _dump_event(event: Mapping[str, object]) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class TraceWriter:
    """Accumulates events + arrays and writes a trace directory.

    The writer is not thread-safe; the recorder serialises access.
    Events may be appended as mutable dicts and filled in later (result
    digests arrive from future callbacks) — they are serialised only at
    :meth:`write` time.
    """

    def __init__(
        self,
        *,
        name: str = "trace",
        source: str = "live",
        space: Optional[Dict[str, str]] = None,
        tuner: str = "",
        service: Optional[Dict[str, object]] = None,
        seed: int = 0,
    ) -> None:
        self.name = str(name)
        self.source = str(source)
        self.space = dict(space or {})
        self.tuner = str(tuner)
        self.service = dict(service or {})
        self.seed = int(seed)
        self.events: List[Dict[str, object]] = []
        self.arrays: Dict[str, np.ndarray] = {}
        self.sessions: List[str] = []
        self.recorded: Dict[str, float] = {}
        self._matrix_index: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def matrix_keys(self) -> List[str]:
        """Matrix keys in registration order (the header table order)."""
        return sorted(self._matrix_index, key=self._matrix_index.get)

    def has_matrix(self, key: str) -> bool:
        return key in self._matrix_index

    def add_matrix(self, key: str, coo: COOMatrix) -> int:
        """Register a matrix's epoch-0 content; idempotent per key."""
        if key in self._matrix_index:
            return self._matrix_index[key]
        index = len(self._matrix_index)
        self._matrix_index[key] = index
        self.arrays[f"m{index}_row"] = np.asarray(coo.row)
        self.arrays[f"m{index}_col"] = np.asarray(coo.col)
        self.arrays[f"m{index}_data"] = np.asarray(coo.data)
        self.arrays[f"m{index}_shape"] = np.asarray(
            [coo.nrows, coo.ncols], dtype=np.int64
        )
        return index

    def add_operand(self, seq: int, x: np.ndarray) -> str:
        ref = f"x{seq}"
        self.arrays[ref] = np.ascontiguousarray(x, dtype=np.float64)
        return ref

    def add_delta(self, seq: int, delta: MatrixDelta) -> str:
        ref = f"d{seq}"
        self.arrays[f"{ref}_row"] = np.asarray(delta.row)
        self.arrays[f"{ref}_col"] = np.asarray(delta.col)
        self.arrays[f"{ref}_value"] = np.asarray(delta.value)
        self.arrays[f"{ref}_op"] = np.asarray(delta.op)
        return ref

    def add_event(self, event: Dict[str, object]) -> Dict[str, object]:
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            raise TraceError(
                f"unknown trace event kind {kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        self.events.append(event)
        return event

    def add_session(self, name: str) -> None:
        if name not in self.sessions:
            self.sessions.append(name)

    # ------------------------------------------------------------------
    def _header(
        self, events: List[Dict[str, object]], matrices: List[str]
    ) -> Dict[str, object]:
        kinds = [e["kind"] for e in events]
        return {
            "version": TRACE_VERSION,
            "name": self.name,
            "source": self.source,
            "space": self.space,
            "tuner": self.tuner,
            "service": self.service,
            "seed": self.seed,
            "sessions": list(self.sessions),
            "matrices": matrices,
            "counts": {
                "events": len(events),
                "requests": kinds.count("spmv"),
                "updates": kinds.count("update"),
                "kills": kinds.count("kill"),
                "promotions": kinds.count("promote"),
            },
            "recorded": dict(self.recorded),
        }

    def trace(
        self, matrices: Mapping[str, SparseMatrix]
    ) -> "RecordedTrace":
        """The accumulated events over *matrices* as an in-memory trace.

        Workload generators build their traces this way: no path, no
        fingerprint, the generator's own containers as the matrices, and
        ``spmv`` events without an ``x`` ref draw their operand from
        ``(seed, seq)`` on demand (see :meth:`RecordedTrace.operand`).
        """
        events = sorted(self.events, key=lambda e: e["seq"])
        return RecordedTrace(
            path=None,
            header=self._header(events, list(matrices)),
            events=events,
            arrays=self.arrays,
            containers=dict(matrices),
        )

    def write(self, path) -> str:
        """Write ``trace.json`` / ``events.jsonl`` / ``arrays.npz``."""
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        events = sorted(self.events, key=lambda e: e["seq"])
        events_bytes = (
            "".join(_dump_event(e) + "\n" for e in events)
        ).encode()
        with open(os.path.join(path, EVENTS_FILE), "wb") as fh:
            fh.write(events_bytes)
        with open(os.path.join(path, ARRAYS_FILE), "wb") as fh:
            np.savez_compressed(fh, **self.arrays)
        header = self._header(events, self.matrix_keys())
        header["fingerprint"] = trace_fingerprint(events_bytes, self.arrays)
        with open(os.path.join(path, HEADER_FILE), "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


@dataclass
class RecordedTrace:
    """One workload: header + seq-ordered events + arrays.

    The single trace type, for two uses.  A trace loaded from a
    directory (:meth:`load`) carries its ``path``, the recorded operands
    and the recorded results that replay verifies against.  A trace
    built by a workload generator (:mod:`repro.trace.workloads`) has no
    path and no results: its matrices are the generator's immutable
    ``containers``, and its operands are drawn on demand.
    """

    path: Optional[str]
    header: Dict[str, object]
    events: List[Dict[str, object]] = field(repr=False)
    arrays: Dict[str, np.ndarray] = field(repr=False)
    containers: Dict[str, SparseMatrix] = field(
        default_factory=dict, repr=False
    )
    #: operands :meth:`materialize` drew, by ``seq``
    _drawn: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> "RecordedTrace":
        path = os.fspath(path)
        header_path = os.path.join(path, HEADER_FILE)
        if not os.path.isfile(header_path):
            raise TraceError(f"not a trace directory (no {HEADER_FILE}): {path}")
        with open(header_path) as fh:
            header = json.load(fh)
        version = header.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"trace {path} has format version {version!r}; this reader "
                f"understands version {TRACE_VERSION}"
            )
        with open(os.path.join(path, EVENTS_FILE)) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        with np.load(os.path.join(path, ARRAYS_FILE)) as npz:
            arrays = {name: npz[name] for name in npz.files}
        return cls(path=path, header=header, events=events, arrays=arrays)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return str(self.header.get("name", ""))

    @property
    def seed(self) -> int:
        return int(self.header.get("seed", 0))

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))

    @property
    def space(self) -> Dict[str, str]:
        return dict(self.header.get("space", {}))

    @property
    def counts(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self.header.get("counts", {}).items()}

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def matrix_keys(self) -> List[str]:
        return [str(k) for k in self.header.get("matrices", [])]

    def matrix(self, key: str) -> SparseMatrix:
        """One matrix's epoch-0 content.

        A loaded trace rebuilds a fresh :class:`COOMatrix` from its
        arrays; a generated trace returns its own container, which is
        immutable (an update advances it into epoch-stamped successors),
        so every replay can share it.
        """
        if key in self.containers:
            return self.containers[key]
        keys = self.matrix_keys()
        if key not in keys:
            raise TraceError(f"trace {self.name!r} has no matrix {key!r}")
        index = keys.index(key)
        shape = self.arrays[f"m{index}_shape"]
        return COOMatrix(
            int(shape[0]),
            int(shape[1]),
            self.arrays[f"m{index}_row"].copy(),
            self.arrays[f"m{index}_col"].copy(),
            self.arrays[f"m{index}_data"].copy(),
        )

    def matrices(self) -> Dict[str, SparseMatrix]:
        """All matrices by key (see :meth:`matrix`)."""
        return {key: self.matrix(key) for key in self.matrix_keys()}

    def operand(self, event: Mapping[str, object]) -> np.ndarray:
        """The operand of one ``spmv`` event.

        A recorded event names its stored operand (``x``), returned as a
        fresh copy.  A generated one is drawn from ``(seed, seq)`` here,
        so a long generated trace never holds every operand in memory —
        unless :meth:`materialize` drew it already, in which case that
        array is returned as is (shared, so not to be modified).
        """
        if "x" not in event:
            seq = int(event["seq"])
            if seq in self._drawn:
                return self._drawn[seq]
            rng = np.random.default_rng((self.seed, seq))
            return rng.standard_normal(tuple(event["shape"]))
        ref = str(event["x"])
        if ref not in self.arrays:
            raise TraceError(
                f"trace {self.name!r} event seq={event.get('seq')} "
                f"references missing operand array {ref!r}"
            )
        return self.arrays[ref].copy()

    def materialize(self) -> "RecordedTrace":
        """Draw every on-demand operand now (same values); returns self.

        Benchmarks call this before a timed replay so operand generation
        (and copying) stays out of the measured window.
        """
        for event in self.events:
            if event["kind"] == "spmv" and "x" not in event:
                self._drawn[int(event["seq"])] = self.operand(event)
        return self

    def delta(self, event: Mapping[str, object]) -> MatrixDelta:
        """The recorded :class:`MatrixDelta` of one ``update`` event."""
        ref = str(event["delta"])
        try:
            return MatrixDelta(
                self.arrays[f"{ref}_row"].copy(),
                self.arrays[f"{ref}_col"].copy(),
                self.arrays[f"{ref}_value"].copy(),
                self.arrays[f"{ref}_op"].copy(),
            )
        except KeyError as exc:
            raise TraceError(
                f"trace {self.name!r} event seq={event.get('seq')} "
                f"references missing delta arrays {ref!r}"
            ) from exc


def load_trace(path) -> RecordedTrace:
    """Load a trace directory (see :class:`RecordedTrace.load`)."""
    return RecordedTrace.load(path)


# ----------------------------------------------------------------------
# validation (tools/check_trace.py and the replay CLI both call this)
# ----------------------------------------------------------------------
_HEADER_REQUIRED = (
    "version", "name", "source", "space", "seed", "matrices", "counts",
    "fingerprint",
)

_EVENT_REQUIRED: Dict[str, tuple] = {
    "spmv": ("session", "key", "x", "x_digest", "shape", "repetitions"),
    "update": ("session", "key", "delta", "ops"),
    "kill": ("worker",),
    "promote": ("version",),
}


def validate_trace(path) -> List[str]:
    """Schema + fingerprint check of a trace directory.

    Returns a list of problems (empty = valid).  Unlike
    :class:`RecordedTrace.load`, this never raises on malformed content —
    every defect becomes a message, so a CI validator can report all of
    them at once.
    """
    problems: List[str] = []
    path = os.fspath(path)
    for fname in (HEADER_FILE, EVENTS_FILE, ARRAYS_FILE):
        if not os.path.isfile(os.path.join(path, fname)):
            problems.append(f"missing file: {fname}")
    if problems:
        return problems

    try:
        with open(os.path.join(path, HEADER_FILE)) as fh:
            header = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{HEADER_FILE}: unreadable ({exc})"]
    if not isinstance(header, dict):
        return [f"{HEADER_FILE}: expected a JSON object"]
    for key in _HEADER_REQUIRED:
        if key not in header:
            problems.append(f"{HEADER_FILE}: missing field {key!r}")
    if header.get("version") != TRACE_VERSION:
        problems.append(
            f"{HEADER_FILE}: version {header.get('version')!r} != "
            f"supported {TRACE_VERSION}"
        )

    try:
        with open(os.path.join(path, EVENTS_FILE), "rb") as fh:
            events_bytes = fh.read()
        events = [
            json.loads(line)
            for line in events_bytes.decode().splitlines()
            if line.strip()
        ]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return problems + [f"{EVENTS_FILE}: unreadable ({exc})"]

    try:
        with np.load(os.path.join(path, ARRAYS_FILE)) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except Exception as exc:  # zipfile/npy corruption surfaces many ways
        return problems + [f"{ARRAYS_FILE}: unreadable ({exc})"]

    # fingerprint before anything else: a tampered trace fails fast
    expected = trace_fingerprint(events_bytes, arrays)
    if header.get("fingerprint") != expected:
        problems.append(
            f"fingerprint mismatch: header says "
            f"{header.get('fingerprint')!r}, content is {expected!r}"
        )

    matrices = [str(k) for k in header.get("matrices", [])]
    for index, key in enumerate(matrices):
        missing = [
            f"m{index}_{part}"
            for part in ("row", "col", "data", "shape")
            if f"m{index}_{part}" not in arrays
        ]
        if missing:
            problems.append(f"matrix {key!r}: missing arrays {missing}")

    referenced = set()
    for index in range(len(matrices)):
        referenced.update(
            f"m{index}_{part}" for part in ("row", "col", "data", "shape")
        )
    counts = {kind: 0 for kind in EVENT_KINDS}
    last_seq = -1
    last_t = -1.0
    for lineno, event in enumerate(events, start=1):
        where = f"{EVENTS_FILE}:{lineno}"
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        counts[kind] += 1
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                f"{where}: seq {seq!r} not strictly increasing "
                f"(previous {last_seq})"
            )
        else:
            last_seq = seq
        t = event.get("t")
        if not isinstance(t, (int, float)) or t < last_t:
            problems.append(
                f"{where}: t {t!r} not non-decreasing (previous {last_t})"
            )
        else:
            last_t = float(t)
        for field_name in _EVENT_REQUIRED[kind]:
            if field_name not in event:
                problems.append(
                    f"{where}: {kind} event missing field {field_name!r}"
                )
        key = event.get("key")
        if kind in ("spmv", "update") and key not in matrices:
            problems.append(
                f"{where}: key {key!r} not in the header matrix table"
            )
        if kind == "spmv" and "x" in event:
            ref = str(event["x"])
            referenced.add(ref)
            if ref not in arrays:
                problems.append(f"{where}: operand array {ref!r} missing")
            elif event.get("x_digest") != array_digest(arrays[ref]):
                problems.append(
                    f"{where}: operand digest mismatch for {ref!r}"
                )
        if kind == "update" and "delta" in event:
            ref = str(event["delta"])
            parts = [f"{ref}_{p}" for p in ("row", "col", "value", "op")]
            referenced.update(parts)
            missing = [p for p in parts if p not in arrays]
            if missing:
                problems.append(f"{where}: delta arrays missing {missing}")
            elif "ops" in event and int(event["ops"]) != int(
                arrays[f"{ref}_row"].shape[0]
            ):
                problems.append(
                    f"{where}: ops={event['ops']} but delta has "
                    f"{int(arrays[f'{ref}_row'].shape[0])} entries"
                )
    orphans = sorted(set(arrays) - referenced)
    if orphans:
        problems.append(f"{ARRAYS_FILE}: unreferenced arrays {orphans}")

    declared = header.get("counts", {})
    for kind, label in (
        ("spmv", "requests"), ("update", "updates"),
        ("kill", "kills"), ("promote", "promotions"),
    ):
        if label in declared and int(declared[label]) != counts[kind]:
            problems.append(
                f"{HEADER_FILE}: counts[{label!r}]={declared[label]} but "
                f"{EVENTS_FILE} has {counts[kind]}"
            )
    if "events" in declared and int(declared["events"]) != len(events):
        problems.append(
            f"{HEADER_FILE}: counts['events']={declared['events']} but "
            f"{EVENTS_FILE} has {len(events)} lines"
        )
    return problems
