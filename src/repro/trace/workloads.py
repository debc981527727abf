"""Workload generators: every workload is ``(params, seed) -> trace``.

Trace layer 0 (the traffic side).  A generator builds an in-memory
:class:`~repro.trace.format.RecordedTrace` — ``spmv`` / ``update`` /
``kill`` / ``promote`` events over named matrices, with no path and no
recorded results — and :func:`~repro.trace.replay.replay_trace` drives
it against any tier.  Operands are drawn from ``(seed, seq)`` on demand,
so a long trace never holds every operand in memory.

* :func:`hot_cold_keys` — the one request-key draw every generator
  shares: ~80% of traffic hits the first half of the matrices;
* :func:`spmv_trace` — a plain request stream over given matrices;
* :func:`workload_trace` — the hot/cold corpus workload (a
  :class:`~repro.datasets.collection.MatrixCollection` corpus, a stored
  suite's corpus, or a compact fixed corpus), optionally mixed with an
  evolving matrix's update barriers, SpMM blocks, a model promotion and
  a worker kill;
* :func:`record_workload` — generate, then drive under a
  :class:`~repro.trace.recorder.TraceRecorder`: the canonical recorded
  workload behind ``repro record``, the golden-trace generator
  (``tools/make_golden_traces.py``) and the property tests.

The drifting before/after populations of the adaptive loop are built
from the same pieces in :func:`repro.adaptive.workload.drifting_trace`.
:func:`service_for_trace` builds a service matching a trace header's
space/tuner for replay.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.tuners.run_first import RunFirstTuner
from repro.datasets.collection import MatrixCollection
from repro.datasets.evolving import generate_evolving
from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.trace.format import RecordedTrace, TraceWriter
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay_trace

__all__ = [
    "hot_cold_keys",
    "record_workload",
    "service_for_trace",
    "spmv_trace",
    "workload_trace",
]

#: Compact evolving-family parameters for recorded traces (the stock
#: defaults build matrices too large to commit as golden fixtures).
_FAMILY_PARAMS: Dict[str, Dict[str, object]] = {
    "growing_rmat": {"scale": 6, "edges_per_epoch": 48},
    "widening_band": {"n": 96},
    "decaying_stencil": {"nx": 10},
}

#: The ``compact=True`` corpus: small fixed generator calls spanning the
#: structural spectrum (banded / stencil / power-law / uniform), a few
#: hundred rows each, so a committed golden trace stays tens of KiB.
_COMPACT_CORPUS = (
    ("banded", {"n": 192, "half_bandwidth": 3}),
    ("stencil_2d", {"nx": 14, "points": 5}),
    ("powerlaw", {"n": 160, "avg_row_nnz": 6.0}),
    ("uniform_random", {"n": 128, "avg_row_nnz": 8.0}),
    ("block_diagonal", {"n": 144, "block": 12}),
    ("hypersparse", {"n": 200, "density": 0.15}),
)


def _compact_matrices(n_matrices: int, seed: int) -> Dict[str, SparseMatrix]:
    from repro.datasets.generators import generate_family

    matrices: Dict[str, SparseMatrix] = {}
    for i in range(n_matrices):
        family, params = _COMPACT_CORPUS[i % len(_COMPACT_CORPUS)]
        matrices[f"{family}_{i}"] = generate_family(
            family, seed=seed + i, **params
        )
    return matrices


def hot_cold_keys(
    names: Sequence[str], requests: int, rng: np.random.Generator
) -> List[str]:
    """Zipf-ish key sequence: ~80% of traffic hits the first half of *names*."""
    names = list(names)
    hot = names[: max(1, len(names) // 2)]
    keys = []
    for _ in range(requests):
        pool = hot if rng.random() < 0.8 else names
        keys.append(pool[int(rng.integers(0, len(pool)))])
    return keys


def _writer(name: str, source: str, seed: int, sessions: int) -> TraceWriter:
    if sessions < 1:
        raise ValidationError(f"sessions must be >= 1, got {sessions}")
    writer = TraceWriter(name=name, source=source, seed=seed)
    for s in range(sessions):
        writer.add_session(f"s{s}")
    return writer


def _spmv_event(
    seq: int, session: int, key: str, shape: Sequence[int]
) -> Dict[str, object]:
    return {
        "seq": seq,
        "kind": "spmv",
        "session": f"s{session}",
        "key": key,
        "shape": [int(n) for n in shape],
        "repetitions": 1,
    }


def spmv_trace(
    matrices: Mapping[str, SparseMatrix],
    keys: Sequence[str],
    *,
    seed: int = 0,
    sessions: int = 1,
    source: str = "synthetic",
) -> RecordedTrace:
    """A request stream: request *i* is ``matrices[keys[i]] @ x_i``.

    Requests round-robin across *sessions*; ``x_i`` is drawn from
    ``(seed, i)`` when the replay submits it.
    """
    writer = _writer("trace", source, seed, sessions)
    for i, key in enumerate(keys):
        writer.add_event(
            _spmv_event(i, i % sessions, key, (matrices[key].ncols,))
        )
    return writer.trace(matrices)


def workload_trace(
    n_matrices: int = 8,
    requests: int = 64,
    *,
    seed: int = 42,
    sessions: int = 1,
    collection: Optional[MatrixCollection] = None,
    compact: bool = False,
    family: Optional[str] = None,
    updates: int = 0,
    spmm_every: int = 0,
    promote_at: int = 0,
    kill_at: int = 0,
    kill_with_update: bool = False,
    name: str = "trace",
    source: str = "synthetic",
) -> RecordedTrace:
    """The hot/cold corpus workload, optionally mixed with mutations.

    Parameters
    ----------
    n_matrices / requests:
        Corpus size and SpMV/SpMM requests (updates, kills and
        promotions are extra events on top); traffic is hot/cold skewed
        across the corpus.
    sessions:
        Client sessions the requests round-robin across.
    collection:
        Draw the corpus from this :class:`MatrixCollection` (e.g. a
        stored suite's ``spec.corpus.build()``) instead of a fresh one
        seeded with *seed*.
    compact:
        Draw the corpus from a fixed set of small generator calls
        (hundreds of rows) instead — committed golden traces use this
        so the on-disk corpus stays tens of KiB.
    family / updates:
        With a *family*, one evolving matrix joins the corpus and its
        first *updates* deltas are interleaved as update barriers,
        evenly spaced through the request stream.
    spmm_every:
        Every ``spmm_every``-th request is a 4-column block SpMM
        (``0`` = vectors only).
    promote_at:
        After that many requests, promote the serving model under
        version ``"v2-replay"``.
    kill_at / kill_with_update:
        After ``kill_at`` requests, kill the worker owning the evolving
        (or first) matrix — or right after an update barrier for it
        with *kill_with_update*, so the kill lands while the barrier is
        in flight.  Tiers without a kill hook skip it.
    """
    if requests < 1:
        raise ValidationError(f"requests must be >= 1, got {requests}")
    if updates and not family:
        raise ValidationError("updates need an evolving family")
    writer = _writer(name, source, seed, sessions)

    if compact:
        matrices = _compact_matrices(n_matrices, seed)
    else:
        if collection is None:
            collection = MatrixCollection(n_matrices=n_matrices, seed=seed)
        matrices = {
            s.name: collection.generate(s)
            for s in collection.subset(n_matrices)
        }
    deltas = []
    evolving = None
    if family is not None:
        params = dict(_FAMILY_PARAMS.get(family, {}))
        params["epochs"] = max(updates, 1)
        stream = generate_evolving(family, seed=seed, **params)
        evolving = f"evolving:{stream.name}"
        matrices[evolving] = stream.initial
        deltas = list(stream.deltas[:updates])
    keys = hot_cold_keys(list(matrices), requests, np.random.default_rng(seed))
    update_every = requests // (len(deltas) + 1) if deltas else 0
    kill_key = evolving or next(iter(matrices))
    events = writer.events
    next_delta = 0
    killed = False

    def add_update(session: int) -> None:
        nonlocal next_delta
        seq = len(events)
        delta = deltas[next_delta]
        next_delta += 1
        writer.add_event({
            "seq": seq,
            "kind": "update",
            "session": f"s{session}",
            "key": evolving,
            "delta": writer.add_delta(seq, delta),
            "ops": int(len(delta)),
        })

    def add_kill() -> None:
        nonlocal killed
        if not killed:
            writer.add_event(
                {"seq": len(events), "kind": "kill", "anchor": kill_key}
            )
            killed = True

    for i, key in enumerate(keys):
        if (
            update_every
            and next_delta < len(deltas)
            and i > 0
            and i % update_every == 0
        ):
            add_update(i % sessions)
            if kill_with_update:
                add_kill()
        ncols = matrices[key].ncols
        block = spmm_every and (i + 1) % spmm_every == 0
        writer.add_event(_spmv_event(
            len(events), i % sessions, key, (ncols, 4) if block else (ncols,)
        ))
        if promote_at and i + 1 == promote_at:
            writer.add_event(
                {"seq": len(events), "kind": "promote", "version": "v2-replay"}
            )
        if kill_at and i + 1 == kill_at:
            add_kill()
    # deltas the spacing left over trail as barriers
    while next_delta < len(deltas):
        add_update(0)
    return writer.trace(matrices)


def record_workload(
    service, out, *, timeout: float = 120.0, **params
) -> RecordedTrace:
    """Drive *service* with ``workload_trace(**params)``; record to *out*.

    The generated workload is replayed through a
    :class:`~repro.trace.recorder.TraceRecorder` standing in for
    *service*, so the recording holds every operand, every result and
    every promotion and kill exactly as the service observed them.
    Defaults differ from :func:`workload_trace`'s: a small 32-request,
    2-session workload over 4 matrices.
    """
    params = {"requests": 32, "sessions": 2, "n_matrices": 4, **params}
    trace = workload_trace(**params)
    recorder = TraceRecorder(
        service,
        name=trace.name,
        source=str(trace.header["source"]),
        seed=trace.seed,
    )
    replay_trace(recorder, trace, timeout=timeout)
    return recorder.finish(out, timeout=timeout)


def service_for_trace(
    trace: RecordedTrace,
    kind: str = "inproc",
    *,
    workers: Optional[int] = None,
    tuner=None,
    **kwargs,
):
    """A service matching *trace*'s recorded space, ready for replay.

    *trace* may be a :class:`RecordedTrace` or a trace directory path.
    ``kind`` names the tier (:func:`repro.service.replay.service_class`):
    ``"inproc"`` (default 2 threads) or ``"distributed"`` (default 4
    worker processes).  The tuner defaults to a fresh
    :class:`~repro.core.tuners.run_first.RunFirstTuner` — deterministic
    on the modelled spaces, which is what recorded traces are captured
    with; pass *tuner* to replay under a different model.
    """
    from repro.backends import make_space
    from repro.service.replay import service_class

    cls = service_class(kind)
    if not isinstance(trace, RecordedTrace):
        trace = RecordedTrace.load(trace)
    space_info = trace.space
    space = make_space(
        space_info.get("system", "cirrus"),
        space_info.get("backend", "serial"),
    )
    return cls(
        space,
        RunFirstTuner() if tuner is None else tuner,
        workers=workers or (4 if kind == "distributed" else 2),
        **kwargs,
    )
