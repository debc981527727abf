"""Caller-runs dispatch: a blocking call on an idle service serves itself.

``TuningService.spmv`` and ``update`` wait for their result anyway, so
when no drain of any fingerprint is running and no observer is
installed, the drain runs on the calling thread instead of on the
worker pool.  These tests pin the rule and its edges:

* on an idle service a blocking request is served on the caller's
  thread, through the blocking serve step (``EngineHost.serve_one``);
* an asynchronous ``submit`` still goes to the pool;
* while a drain is in flight, a blocking call for another matrix goes
  to the pool and same-matrix requests coalesce behind the drain;
* with an observer installed every drain runs on the pool, and so does
  the observer;
* a dispatch that raises fails the caller's future instead of raising
  from ``submit``, and leaves the service idle again;
* ``close`` waits for a drain running on a caller's thread;
* under an eight-client stress the running-drain count stays exact;
* the distributed tier keeps the pool path.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.distributed import DistributedService
from repro.formats import COOMatrix, MatrixDelta
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService

TIMEOUT = 10


@pytest.fixture
def space():
    return make_space("cirrus", "serial")


@pytest.fixture
def matrix(dense_small):
    return COOMatrix.from_dense(dense_small)


@pytest.fixture
def service(space):
    with TuningService(space, RunFirstTuner(), workers=2) as service:
        yield service


def _spy_serve(service, *, hold=None):
    """Record the serving thread of every batch on ``service``.

    Both serve entry points are spied: the pool's ``serve`` and the
    blocking ``serve_one``.  With *hold* = ``(key, entered, release)``
    the first batch for *key* sets *entered* and then blocks until
    *release* is set, keeping its drain in flight.
    """
    calls = []

    def spied(serve):
        def spy(fp, matrix, work, *args, **kwargs):
            calls.append((fp, threading.get_ident()))
            if hold is not None and fp == hold[0] and not hold[1].is_set():
                hold[1].set()
                assert hold[2].wait(TIMEOUT)
            return serve(fp, matrix, work, *args, **kwargs)

        return spy

    service._host.serve = spied(service._host.serve)
    service._host.serve_one = spied(service._host.serve_one)
    return calls


def _spy_submit(service):
    """Record every blocking serve step's outcome as a resolved future,
    and whether it ran on the thread that installed the spy."""
    serve_one = service._host.serve_one
    caller = threading.get_ident()
    returned = []

    def spy(*args, **kwargs):
        future = Future()
        try:
            served = serve_one(*args, **kwargs)
        except Exception as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(served[0])
        finally:
            returned.append((future, threading.get_ident() == caller))
        return served

    service._host.serve_one = spy
    return returned


def test_idle_blocking_request_runs_on_the_calling_thread(
    service, space, matrix, rng
):
    calls = _spy_serve(service)
    returned = _spy_submit(service)
    x = rng.standard_normal(matrix.ncols)
    first = service.spmv(matrix, x, key="m")
    second = service.session("c").spmv(matrix, x, key="m")
    me = threading.get_ident()
    assert calls == [("m", me), ("m", me)]
    # the future was already resolved when submit handed it back
    assert [done for _, done in returned] == [True, True]
    reference = WorkloadEngine(space, RunFirstTuner())
    for result in (first, second):
        expected = reference.execute(matrix, x, key="m")
        assert np.array_equal(result.y, expected.y)
        assert result.seconds == expected.seconds
        assert result.batch_size == 1
    assert service.stats()["requests_served"] == 2


def test_idle_blocking_update_runs_on_the_calling_thread(
    service, matrix, rng
):
    service.spmv(matrix, rng.standard_normal(matrix.ncols), key="m")
    host = service._host
    update = host.update
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return update(*args, **kwargs)

    host.update = spy
    result = service.update(matrix, MatrixDelta.sets([0], [1], [0.5]), key="m")
    assert threads == [threading.get_ident()]
    assert result.epoch == 1


def test_asynchronous_submit_goes_to_the_pool(service, matrix, rng):
    calls = _spy_serve(service)
    future = service.submit(matrix, rng.standard_normal(matrix.ncols), key="m")
    future.result(timeout=TIMEOUT)
    ((fp, served_on),) = calls
    assert fp == "m" and served_on != threading.get_ident()


def test_busy_service_sends_blocking_calls_to_the_pool_and_coalesces(
    service, matrix, rng
):
    entered, release = threading.Event(), threading.Event()
    calls = _spy_serve(service, hold=("held", entered, release))
    x = rng.standard_normal(matrix.ncols)
    held = {}

    def caller():
        held["ident"] = threading.get_ident()
        held["result"] = service.spmv(matrix, x, key="held")

    thread = threading.Thread(target=caller)
    thread.start()
    try:
        assert entered.wait(TIMEOUT)
        # a drain is in flight: another matrix is served by the pool ...
        other = service.spmv(matrix, x, key="other")
        # ... and same-matrix requests queue behind the held drain
        queued = [
            service.submit(matrix, rng.standard_normal(matrix.ncols), key="held")
            for _ in range(3)
        ]
    finally:
        release.set()
        thread.join(TIMEOUT)
    assert not thread.is_alive()
    results = [f.result(timeout=TIMEOUT) for f in queued]
    me = threading.get_ident()
    assert calls[0] == ("held", held["ident"])  # the idle caller ran it
    assert held["result"].batch_size == 1
    served = dict(calls[1:])
    assert served["other"] not in (me, held["ident"])
    assert served["held"] not in (me, held["ident"])
    assert other.batch_size == 1
    assert [r.batch_size for r in results] == [3, 3, 3]
    assert service.stats()["coalesced_batches"] == 1


def test_observer_keeps_every_drain_on_the_pool(service, matrix, rng):
    calls = _spy_serve(service)
    observed = []
    service.set_observer(
        lambda batch: observed.append((threading.get_ident(), len(batch)))
    )
    service.spmv(matrix, rng.standard_normal(matrix.ncols), key="m")
    service.close()  # the observer runs after the future resolves
    me = threading.get_ident()
    ((_, served_on),) = calls
    assert served_on != me
    assert [n for _, n in observed] == [1]
    assert observed[0][0] != me


def test_failing_dispatch_fails_the_future_not_submit(service, matrix, rng):
    returned = _spy_submit(service)
    serve = service._host._serve_leased

    def broken(*args, **kwargs):
        raise RuntimeError("kernel exploded")

    service._host._serve_leased = broken
    x = rng.standard_normal(matrix.ncols)
    with pytest.raises(RuntimeError, match="kernel exploded"):
        service.spmv(matrix, x, key="m")
    ((future, done),) = returned
    assert done and isinstance(future.exception(), RuntimeError)
    # the service is idle again: the next call is served on this thread
    service._host._serve_leased = serve
    calls = _spy_serve(service)
    assert service.spmv(matrix, x, key="m").batch_size == 1
    assert calls == [("m", threading.get_ident())]


def test_close_waits_for_a_drain_on_a_calling_thread(space, matrix, rng):
    service = TuningService(space, workers=1)
    entered, release = threading.Event(), threading.Event()
    _spy_serve(service, hold=("m", entered, release))
    x = rng.standard_normal(matrix.ncols)
    held = {}
    caller = threading.Thread(
        target=lambda: held.update(result=service.spmv(matrix, x, key="m"))
    )
    caller.start()
    assert entered.wait(TIMEOUT)
    queued = service.submit(matrix, x, key="m")
    closer = threading.Thread(target=service.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive()  # the held drain is still running
    release.set()
    closer.join(TIMEOUT)
    caller.join(TIMEOUT)
    assert not closer.is_alive()
    assert queued.result(timeout=0).batch_size == 1
    assert held["result"].batch_size == 1
    assert service.stats()["requests_served"] == 2


def test_stress_keeps_the_drain_count_exact(space, dense_small):
    """Eight clients on two cores, blocking and asynchronous, with a
    tiny switch interval: every answer is exact, at most one drain runs
    on a caller's thread and at most ``workers + 1`` at all, and the
    running-drain count returns to zero (a lost update would leave
    ``close`` waiting forever)."""
    workers, clients, rounds = 2, 8, 30
    matrices = {
        f"k{i}": COOMatrix.from_dense(dense_small * (i + 1)) for i in range(3)
    }
    gen = np.random.default_rng(3)
    work = [
        [(f"k{(c + r) % 3}", gen.standard_normal(12)) for r in range(rounds)]
        for c in range(clients)
    ]
    reference = WorkloadEngine(space)
    expected = [
        [reference.execute(matrices[k], x, key=k).y for k, x in jobs]
        for jobs in work
    ]
    service = TuningService(space, workers=workers)
    lock = threading.Lock()
    running = {"caller": 0, "all": 0}
    peak = dict(running)

    def spied(serve):
        def spy(*args, **kwargs):
            on_pool = threading.current_thread().name.startswith(
                "repro-service"
            )
            kinds = ("all",) if on_pool else ("all", "caller")
            with lock:
                for kind in kinds:
                    running[kind] += 1
                    peak[kind] = max(peak[kind], running[kind])
            try:
                return serve(*args, **kwargs)
            finally:
                with lock:
                    for kind in kinds:
                        running[kind] -= 1

        return spy

    service._host.serve = spied(service._host.serve)
    service._host.serve_one = spied(service._host.serve_one)
    mismatches = []

    def client(c):
        for (key, x), want in zip(work[c], expected[c]):
            if c % 2:
                got = service.spmv(matrices[key], x, key=key)
            else:
                got = service.submit(matrices[key], x, key=key).result(TIMEOUT)
            if not np.array_equal(got.y, want):
                mismatches.append((c, key))

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
    assert mismatches == []
    assert service._drains_running == 0
    assert service.stats()["requests_served"] == clients * rounds
    assert peak["caller"] == 1
    assert peak["all"] <= workers + 1


def test_distributed_tier_keeps_the_pool_path():
    assert TuningService._caller_runs
    assert not DistributedService._caller_runs
