"""The warm step: a blocking request on an idle service, served in place.

``TuningService.spmv`` on an idle in-process service serves its request
on the calling thread with one engine lease, and on a warm key resolves
its whole artefact chain with one lookup of the engine's chain memo.
These tests pin two properties of that shortcut:

* **no stale chain** — after every point that invalidates the memo (a
  carried-forward and a re-deciding update, a model promotion, a tier
  promote, an eviction, and a container adopted over a warm key) the
  next blocking call
  returns ``y``, ``seconds``, ``epoch``, ``format`` and ``backend``
  exactly as a fresh engine brought to the same state does;
* **same books as the queue** — N blocking calls and the same N
  requests through asynchronous ``submit`` produce identical results
  (but for latency and trace id), ``stats()`` counters, engine totals,
  per-tier attribution, engine-cache hits and span key sets; and
  under an eight-thread stress mixing blocking SpMVs with updates every
  thread sees non-decreasing epochs with exact answers.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners.base import Tuner, TuningReport
from repro.formats import FORMAT_IDS, COOMatrix, MatrixDelta
from repro.formats.convert import convert
from repro.runtime.engine import WorkloadEngine
from repro.runtime.epoch import RedecisionPolicy
from repro.service import TuningService
from repro.service.accounting import ENGINE_TOTAL_KEYS

TIMEOUT = 20
FIELDS = (
    "y",
    "seconds",
    "overhead_seconds",
    "format",
    "fingerprint",
    "from_cache",
    "batch_size",
    "model_version",
    "epoch",
    "backend",
)


class _SettableTuner(Tuner):
    """Serves whatever ``format_name`` says at decision time."""

    def __init__(self, format_name: str) -> None:
        self.format_name = format_name

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        return TuningReport(
            format_id=FORMAT_IDS[self.format_name],
            t_prediction=1e-6,
        )


@pytest.fixture
def space():
    # the default cost model's noise is keyed by matrix key and format,
    # so a stale price reads differently from a fresh one
    return make_space("cirrus", "serial")


@pytest.fixture
def banded():
    n = 40
    dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
    dense += np.diag(np.full(n - 1, -1.0), -1)
    return COOMatrix.from_dense(dense)


def _same(got, want):
    """``got`` (a ServiceResult) equals ``want`` (an EngineResult)."""
    assert np.array_equal(got.y, want.y)
    assert got.seconds == want.seconds
    assert got.epoch == want.epoch
    assert got.format == want.format
    assert got.backend == want.backend


def _warm(service, matrix, x, key):
    """Two blocking calls: the second runs the short chain."""
    service.spmv(matrix, x, key=key)
    service.spmv(matrix, x, key=key)
    with service._host.engines.lease(key) as engine:
        assert engine.has_chain(key)


class TestNoStaleChain:
    """The next blocking call after each invalidation matches a fresh
    engine brought to the same state, bit for bit."""

    @pytest.mark.parametrize("retune", [False, True], ids=["carried", "redecided"])
    def test_update(self, space, banded, rng, retune):
        policy = RedecisionPolicy(threshold=1e-9 if retune else 1e9)
        tuner = _SettableTuner("CSR")
        x = rng.standard_normal(banded.ncols)
        delta = MatrixDelta.sets([0, 5], [banded.ncols - 1, 7], [0.5, 2.0])
        with TuningService(space, tuner, redecision=policy) as service:
            _warm(service, banded, x, "m")
            tuner.format_name = "COO"  # only a re-decision picks it up
            upd = service.update(banded, delta, key="m")
            assert upd.retuned is retune
            got = service.spmv(banded, x, key="m")
        # a fresh engine decides on the updated matrix: the format the
        # service carried forward or re-decided
        reference = WorkloadEngine(
            space, _SettableTuner("COO" if retune else "CSR"), redecision=policy
        )
        reference.update("m", delta, matrix=banded)
        want = reference.execute(banded, x, key="m")
        assert want.format == ("COO" if retune else "CSR")
        assert want.epoch == 1
        _same(got, want)

    def test_promote_model(self, space, banded, rng):
        x = rng.standard_normal(banded.ncols)
        with TuningService(space, _SettableTuner("CSR")) as service:
            _warm(service, banded, x, "m")
            service.promote_model(_SettableTuner("DIA"), version="v2")
            got = service.spmv(banded, x, key="m")
        want = WorkloadEngine(space, _SettableTuner("DIA")).execute(
            banded, x, key="m"
        )
        assert want.format == "DIA"
        _same(got, want)
        assert got.model_version == "v2"

    def test_tier_promote(self, space, banded, rng, tmp_path):
        x = rng.standard_normal(banded.ncols)
        other = COOMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
        with TuningService(
            space,
            _SettableTuner("ELL"),
            capacity=1,
            storage_dir=str(tmp_path),
        ) as service:
            _warm(service, banded, x, "m")
            service.spmv(other, x, key="o")  # evicts (demotes) "m"
            got = service.spmv(banded, x, key="m")  # promotes it back
            assert service.stats()["storage"]["promotions"] == 1
        want = WorkloadEngine(space, _SettableTuner("ELL")).execute(
            banded, x, key="m"
        )
        _same(got, want)

    def test_eviction(self, space, banded, rng):
        x = rng.standard_normal(banded.ncols)
        other = COOMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
        tuner = _SettableTuner("CSR")
        with TuningService(space, tuner, capacity=1) as service:
            _warm(service, banded, x, "m")
            service.spmv(other, x, key="o")  # evicts "m"
            tuner.format_name = "HYB"  # a rebuilt engine re-decides
            got = service.spmv(banded, x, key="m")
            assert service.stats()["engine_cache"]["evictions"] == 2
        want = WorkloadEngine(space, _SettableTuner("HYB")).execute(
            banded, x, key="m"
        )
        _same(got, want)

    def test_adopted_container(self, space, banded, rng):
        x = rng.standard_normal(banded.ncols)
        adopted = convert(banded, "ELL")
        with TuningService(space, _SettableTuner("CSR")) as service:
            _warm(service, banded, x, "m")
            with service._host.engines.lease("m") as engine:
                engine.adopt_prepared("m", adopted)
            got = service.spmv(banded, x, key="m")
        reference = WorkloadEngine(space, _SettableTuner("CSR"))
        reference.adopt_prepared("m", adopted)
        want = reference.execute(banded, x, key="m")
        assert want.format == "ELL"
        _same(got, want)


def _queued(service):
    """Serve like ``spmv`` through asynchronous ``submit``."""

    def spmv(matrix, x, *, key=None, repetitions=1):
        future = service.submit(matrix, x, key=key, repetitions=repetitions)
        return future.result(timeout=TIMEOUT)

    return spmv


def _books(service):
    """What must match between the warm and the queued path."""
    stats = service.stats()
    counters = {
        name: stats[name]
        for name in (
            "requests_submitted",
            "requests_served",
            "updates_served",
            "batches",
            "coalesced_batches",
            "coalesced_requests",
            "shadow_probes",
            "observer_errors",
            "backends",
            "invalidations",
            "profiled_matrices",
        )
    }
    counters["engines"] = {key: stats["engines"][key] for key in ENGINE_TOTAL_KEYS}
    counters["engine_cache"] = {
        key: stats["engine_cache"][key] for key in ("hits", "misses", "evictions")
    }
    spans = [
        (sorted(span), sorted(span["stages"]))
        for span in service.obs.spans.tail(1 << 10)
    ]
    return counters, spans


@pytest.mark.parametrize(
    "shape,repetitions",
    [("vector", 1), ("block", 1), ("vector", 3)],
    ids=["1d", "ncols_k", "repetitions"],
)
def test_warm_and_queued_paths_keep_the_same_books(
    space, banded, shape, repetitions
):
    gen = np.random.default_rng(5)
    n_requests = 6
    operands = [
        gen.standard_normal(
            banded.ncols if shape == "vector" else (banded.ncols, 3)
        )
        for _ in range(n_requests)
    ]
    keys = ["a", "b", "a", "a", "b", "a"]
    outcomes = []
    for queued in (False, True):
        with TuningService(space, _SettableTuner("HYB"), workers=1) as service:
            serve = _queued(service) if queued else service.spmv
            results = [
                serve(banded, x, key=key, repetitions=repetitions)
                for key, x in zip(keys, operands)
            ]
            outcomes.append((results, _books(service)))
    (warm, warm_books), (queued, queued_books) = outcomes
    for got, want in zip(warm, queued):
        for name in FIELDS:
            if name == "y":
                assert np.array_equal(got.y, want.y)
            else:
                assert getattr(got, name) == getattr(want, name), name
    assert warm_books == queued_books
    assert warm_books[0]["requests_served"] == n_requests
    assert warm_books[0]["engine_cache"]["hits"] == n_requests - 2


def test_stress_blocking_calls_and_updates(space, banded):
    """Eight threads on two cores with a tiny switch interval: one
    thread mixes blocking updates into its SpMVs, the others only read.
    Each thread's epochs never go back, every answer equals the
    reference of its epoch, and the running-drain count returns to 0."""
    clients, rounds, n_updates = 8, 40, 12
    policy = RedecisionPolicy(threshold=0.05)  # some updates re-decide
    x = np.random.default_rng(9).standard_normal(banded.ncols)
    deltas = [
        MatrixDelta.sets([e % banded.nrows], [(3 * e + 1) % banded.ncols], [1.0 + e])
        for e in range(n_updates)
    ]
    reference = WorkloadEngine(space, _SettableTuner("CSR"), redecision=policy)
    expected = [reference.execute(banded, x, key="s").y]
    for delta in deltas:
        reference.update("s", delta, matrix=banded)
        expected.append(reference.execute(banded, x, key="s").y)

    service = TuningService(
        space, _SettableTuner("CSR"), workers=2, redecision=policy
    )
    seen = [[] for _ in range(clients)]
    errors = []

    def client(c):
        try:
            pending = list(deltas) if c == 0 else []
            for r in range(rounds):
                if pending and r % 3 == 1:
                    service.update(banded, pending.pop(0), key="s")
                result = service.spmv(banded, x, key="s")
                seen[c].append(result.epoch)
                if not np.array_equal(result.y, expected[result.epoch]):
                    errors.append((c, r, result.epoch))
        except Exception as exc:  # reported below, never swallowed
            errors.append((c, repr(exc)))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    closer = threading.Thread(target=service.close)
    closer.start()
    closer.join(TIMEOUT)
    assert not closer.is_alive()
    assert errors == []
    for epochs in seen:
        assert epochs == sorted(epochs)
    assert seen[0][-1] == n_updates
    assert service._drains_running == 0
    stats = service.stats()
    assert stats["requests_served"] == clients * rounds + n_updates
    assert stats["updates_served"] == n_updates


def test_warm_blocking_call_is_at_most_thirty_python_calls(space, banded):
    """One warm ``Session.spmv`` makes at most 30 Python-frame calls
    (counted with ``sys.setprofile``, no timing): the warm step is one
    shard-lock region around one kernel call."""
    x = np.random.default_rng(2).standard_normal(banded.ncols)
    with TuningService(space, _SettableTuner("DIA")) as service:
        session = service.session("s")
        _warm(service, banded, x, "m")
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = session.spmv(banded, x, key="m")
        finally:
            sys.setprofile(None)
    assert result.format == "DIA" and result.from_cache
    assert len(calls) <= 30, calls


def test_promotions_racing_warm_calls_never_serve_a_stale_chain(space, banded):
    """One thread makes warm blocking calls while another promotes two
    tuners deciding different formats, back and forth: every result's
    ``(model_version, format, seconds, y)`` is that of exactly one model."""
    x = np.random.default_rng(4).standard_normal(banded.ncols)
    formats = {"v-csr": "CSR", "v-dia": "DIA"}
    want = {
        version: WorkloadEngine(space, _SettableTuner(fmt)).execute(
            banded, x, key="m"
        )
        for version, fmt in formats.items()
    }
    service = TuningService(space, _SettableTuner("CSR"), workers=1)
    service.set_model_info(version="v-csr")
    _warm(service, banded, x, "m")
    done = threading.Event()
    results, errors = [], []

    def caller():
        try:
            while not done.is_set():
                results.append(service.spmv(banded, x, key="m"))
        except Exception as exc:  # reported below, never swallowed
            errors.append(repr(exc))

    thread = threading.Thread(target=caller)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        for i in range(40):
            version = "v-dia" if i % 2 == 0 else "v-csr"
            service.promote_model(_SettableTuner(formats[version]), version=version)
            # let the caller re-warm the key and serve warm calls
            served = len(results)
            while len(results) < served + 3 and thread.is_alive():
                time.sleep(1e-4)
    finally:
        done.set()
        thread.join(TIMEOUT)
        sys.setswitchinterval(switch)
        service.close()
    assert not thread.is_alive()
    assert errors == []
    assert {r.model_version for r in results} == set(formats)
    assert {r.batch_size for r in results} == {1}
    for result in results:
        expected = want[result.model_version]
        assert result.format == expected.format
        assert result.seconds == expected.seconds
        assert np.array_equal(result.y, expected.y)


def test_wrong_length_operand_on_a_warm_key_raises_before_the_kernel(
    space, rng, monkeypatch
):
    """The warm step checks the operand against the served container:
    a length-30 operand for a key serving a 40-column matrix raises
    ``ShapeError`` before any kernel runs, and leaves the service idle,
    so the next call is served on the caller's thread again."""
    import repro.runtime.engine as engine_module
    from repro.errors import ShapeError

    def tridiagonal(n):
        dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
        return COOMatrix.from_dense(dense)

    wide, narrow = tridiagonal(40), tridiagonal(30)
    kernel_threads = []
    matvec = engine_module.matvec

    def traced(matrix, operand):
        kernel_threads.append(threading.get_ident())
        return matvec(matrix, operand)

    monkeypatch.setattr(engine_module, "matvec", traced)
    x = rng.standard_normal(40)
    with TuningService(space, _SettableTuner("CSR"), workers=1) as service:
        _warm(service, wide, x, "m")
        del kernel_threads[:]
        with pytest.raises(ShapeError):
            service.spmv(narrow, np.ones(30), key="m")
        assert kernel_threads == []
        assert service._drains_running == 0
        result = service.spmv(wide, x, key="m")
    assert kernel_threads == [threading.get_ident()]
    assert np.allclose(result.y, wide.to_dense() @ x)


def test_shard_memo_holds_only_live_keys(space, banded, rng):
    """Every lease memoises its key's shard; evicting a key drops it,
    so the memo never holds more keys than the cache capacity."""
    x = rng.standard_normal(banded.ncols)
    capacity = 4
    with TuningService(
        space, _SettableTuner("CSR"), capacity=capacity, shards=2
    ) as service:
        cache = service.engines
        for i in range(60):
            service.spmv(banded, x, key=f"k{i}")
            assert len(cache.live) <= capacity
        assert set(cache.live) == {
            key for shard in cache._shards for key in shard.entries
        }
        assert service.stats()["engine_cache"]["evictions"] == 60 - capacity
