"""Worker death and recovery: respawn, replay, retry, accounting.

The failure model under test: SIGKILL one worker mid-traffic and assert
that (a) every in-flight request on the dead shard completes with the
correct bits, (b) requests on surviving workers are untouched, (c) the
replacement rebuilds mutated matrix state exactly (epoch stamps and
output bits reproduce), and (d) the dead incarnation's accounting is
folded into gateway ``stats()`` the way eviction folding works in the
single-process tier.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import RunFirstTuner
from repro.formats.delta import MatrixDelta


class _SlowTuner(RunFirstTuner):
    """Tuner whose decision outlasts the test's heartbeat timeout.

    Runs worker-side only (the gateway never tunes), so the first
    request for a fingerprint pins that worker in one long operation —
    the busy-worker shape the heartbeat thread must survive.
    """

    def tune(self, matrix, space, **kwargs):
        time.sleep(1.2)
        return super().tune(matrix, space, **kwargs)


def keys_per_worker(gateway, count_each: int = 1):
    """Fingerprints guaranteed to cover every worker."""
    found = {w: [] for w in range(gateway.workers)}
    i = 0
    while any(len(v) < count_each for v in found.values()):
        key = f"probe-{i}"
        owner = gateway.worker_of(key)
        if len(found[owner]) < count_each:
            found[owner].append(key)
        i += 1
    return found


class TestKillRecovery:
    def test_inflight_requests_survive_worker_kill(
        self, gateway, matrix_a, rng
    ):
        xs = [rng.random(matrix_a.ncols) for _ in range(20)]
        target = gateway.worker_of("A")
        futures = [gateway.submit(matrix_a, x, key="A") for x in xs]
        assert gateway.kill_worker(target) is not None
        for future, x in zip(futures, xs):
            result = future.result(timeout=60)
            assert np.array_equal(result.y, matrix_a.spmv(x))
        stats = gateway.stats()["distributed"]
        assert stats["dead_workers"] == 1
        assert stats["supervisor"]["respawns"] == 1

    def test_surviving_shards_undisturbed(
        self, gateway, matrix_a, matrix_b, rng
    ):
        per_worker = keys_per_worker(gateway)
        victim = 0
        survivor_key = per_worker[1][0]
        victim_key = per_worker[0][0]
        x_b = rng.random(matrix_b.ncols)
        survivor_future = gateway.submit(matrix_b, x_b, key=survivor_key)
        victim_futures = [
            gateway.submit(matrix_a, rng.random(matrix_a.ncols),
                           key=victim_key)
            for _ in range(4)
        ]
        gateway.kill_worker(victim)
        # the survivor's request resolves against an untouched worker
        assert np.array_equal(
            survivor_future.result(timeout=60).y, matrix_b.spmv(x_b)
        )
        for future in victim_futures:
            future.result(timeout=60)
        assert gateway.supervisor.handle(1).incarnation == 0
        assert gateway.supervisor.handle(0).incarnation == 1

    def test_mutated_state_replays_exactly(self, gateway, matrix_a, rng):
        delta1 = MatrixDelta.sets([0, 1], [0, 1], [3.0, -2.0])
        delta2 = MatrixDelta.adds([2], [2], [0.5])
        assert gateway.update(matrix_a, delta1, key="A").epoch == 1
        assert gateway.update(matrix_a, delta2, key="A").epoch == 2
        x = rng.random(matrix_a.ncols)
        before = gateway.spmv(matrix_a, x, key="A")
        assert before.epoch == 2
        gateway.kill_worker(gateway.worker_of("A"))
        after = gateway.spmv(matrix_a, x, key="A")
        # the respawned worker replayed the acked delta log: same epoch,
        # same bits
        assert after.epoch == 2
        assert np.array_equal(after.y, before.y)

    def test_replayed_log_rebuilds_drift_anchors(self, rng, wait_until):
        """Post-respawn updates must see the same drift chain as no-kill.

        A delta acked while a serving decision existed carries
        ``had_decision`` in the gateway log; the respawn replay primes
        the (deterministic) decision before applying it, so the rebuilt
        stream's drift anchor matches the dead worker's.  Without that,
        the replayed update takes the no-decision early path and the
        next live update reports drift 0.0 / carried_forward False
        instead of the recorded chain — the trace-replay golden
        ``kill-during-update`` flakes on exactly this.
        """
        from repro.backends import make_space
        from repro.distributed import DistributedService
        from repro.formats import COOMatrix
        from repro.formats.dynamic import DynamicMatrix

        dense = np.eye(32) + (rng.random((32, 32)) < 0.15)
        delta1 = MatrixDelta.sets(
            [0, 9, 17], [31, 4, 22], [2.0, -1.0, 3.0]
        )
        delta2 = MatrixDelta.sets(
            [5, 11, 29, 2], [8, 30, 1, 19], [1.5, 2.5, -2.0, 4.0]
        )

        def chain(kill):
            matrix = DynamicMatrix(COOMatrix.from_dense(dense))
            with DistributedService(
                make_space("cirrus", "serial"), RunFirstTuner(), workers=2
            ) as service:
                service.spmv(matrix, np.ones(32), key="evolving")
                u1 = service.update(matrix, delta1, key="evolving")
                if kill:
                    service.kill_worker(service.worker_of("evolving"))
                    wait_until(
                        lambda: service.supervisor.handle(
                            service.worker_of("evolving")
                        ).incarnation == 1
                    )
                u2 = service.update(matrix, delta2, key="evolving")
                return [
                    (u.epoch, u.drift, u.carried_forward, u.retuned)
                    for u in (u1, u2)
                ]

        assert chain(kill=True) == chain(kill=False)

    def test_unacked_update_applies_exactly_once(
        self, gateway, matrix_a, rng
    ):
        """An update in flight during the kill must not double-apply."""
        x = rng.random(matrix_a.ncols)
        futures = [gateway.submit(matrix_a, x, key="A") for _ in range(8)]
        update = gateway.submit_update(
            matrix_a, MatrixDelta.adds([0], [0], [1.0]), key="A"
        )
        gateway.kill_worker(gateway.worker_of("A"))
        assert update.result(timeout=60).epoch == 1
        for future in futures:
            future.result(timeout=60)
        # a second kill replays the (now acked) log: still epoch 1
        gateway.kill_worker(gateway.worker_of("A"))
        assert gateway.spmv(matrix_a, x, key="A").epoch == 1

    def test_parked_sender_cannot_double_deliver(
        self, gateway, matrix_a, rng
    ):
        """An entry the respawn replay delivered must dedupe on retry.

        Simulates the death-gate race: a sender that registered its
        entry, parked on the closed gate, and woke after the respawn
        replay already re-sent the backlog calls ``_send_entry`` again
        on an entry marked sent to the current incarnation — the second
        send must be a no-op, or an update's delta applies twice.
        """
        from concurrent.futures import Future

        from repro.distributed.gateway import _Inflight
        from repro.service.coalesce import PendingRequest

        x = rng.random(matrix_a.ncols)
        assert gateway.spmv(matrix_a, x, key="A").epoch == 0
        target = gateway.worker_of("A")
        delta = MatrixDelta.adds([0], [0], [1.0])
        future = Future()
        request = PendingRequest(
            matrix_a, None, 1, future, kind="update", delta=delta
        )
        msg_id = next(gateway._msg_ids)
        entry = _Inflight(
            msg_id, "update", target, fp="A", batch=[request],
            message=("update", msg_id, "A", delta),
        )
        with gateway._inflight_lock:
            gateway._inflight[msg_id] = entry
        gateway._send_entry(entry)  # the replay's delivery
        assert future.result(timeout=60).epoch == 1
        gateway._send_entry(entry)  # the parked sender waking up
        # FIFO order on the worker pipe: had the duplicate been sent,
        # this SpMV would observe epoch 2
        assert gateway.spmv(matrix_a, x, key="A").epoch == 1

    def test_retried_requests_are_counted(self, gateway, matrix_a, rng):
        futures = [
            gateway.submit(matrix_a, rng.random(matrix_a.ncols), key="A")
            for _ in range(12)
        ]
        gateway.kill_worker(gateway.worker_of("A"))
        for future in futures:
            future.result(timeout=60)
        assert gateway.stats()["distributed"]["retried_requests"] >= 0
        assert gateway.stats()["distributed"]["dead_workers"] == 1


class TestDeadWorkerAccounting:
    def test_dead_incarnation_folds_into_engines_totals(
        self, gateway, matrix_a, rng, wait_until
    ):
        target = gateway.worker_of("A")
        for _ in range(6):
            gateway.spmv(matrix_a, rng.random(matrix_a.ncols), key="A")
        # wait for a heartbeat to carry the accounting snapshot over
        wait_until(
            lambda: gateway.supervisor.handle(target)
            .last_snapshot.get("requests_served", 0) >= 6
        )
        gateway.kill_worker(target)
        wait_until(
            lambda: gateway.stats()["distributed"]["dead_workers"] == 1
        )
        stats = gateway.stats()
        # the pre-kill engine accounting survived the incarnation
        assert stats["engines"]["requests_served"] >= 6

    def test_respawned_worker_reports_fresh_backends(
        self, gateway, matrix_a, rng, wait_until
    ):
        target = gateway.worker_of("A")
        gateway.spmv(matrix_a, rng.random(matrix_a.ncols), key="A")
        gateway.kill_worker(target)
        wait_until(lambda: gateway.supervisor.handle(target).ready.is_set())
        backends = gateway.stats()["distributed"]["worker_backends"][target]
        assert "numpy" in backends

    def test_respawn_replay_does_not_double_count_invalidations(
        self, gateway, matrix_a, rng, wait_until
    ):
        """Replayed deltas must not recount already-folded accounting.

        The dead incarnation counted the original applications and its
        last-heartbeat snapshot folded them into retired totals; the
        replacement's replay runs with ``replay=True``, so fleet
        ``stats()`` keeps matching single-process accounting.
        """
        target = gateway.worker_of("A")
        for _ in range(3):
            gateway.update(
                matrix_a, MatrixDelta.adds([0], [0], [1.0]), key="A"
            )
        # wait for a heartbeat to carry the 3 applications over
        wait_until(
            lambda: gateway.supervisor.handle(target)
            .last_snapshot.get("engines", {})
            .get("invalidations", {})
            .get("epoch_advances", 0) >= 3
        )
        gateway.kill_worker(target)
        wait_until(
            lambda: gateway.stats()["distributed"]["dead_workers"] == 1
        )
        # the replacement replayed the acked log: same epoch...
        x = rng.random(matrix_a.ncols)
        assert gateway.spmv(matrix_a, x, key="A").epoch == 3
        # ...but the replayed applications are counted exactly once
        assert gateway.stats()["invalidations"]["epoch_advances"] == 3


class TestBusyWorkerLiveness:
    def test_long_operation_outlasting_timeout_is_not_killed(
        self, space, matrix_a, rng
    ):
        """A busy worker must keep heartbeating, not get SIGKILLed.

        The first request's tune takes longer than the heartbeat
        timeout and produces no intermediate reply; the worker's
        dedicated heartbeat thread keeps it alive.  Without it the
        monitor kills the healthy worker, the respawn replays the same
        long operation, and the fleet livelocks on kill/respawn.
        """
        from repro.distributed import DistributedService

        service = DistributedService(
            space,
            _SlowTuner(),
            workers=2,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
            shm_slot_bytes=1 << 14,
            shm_slots=32,
        )
        try:
            x = rng.random(matrix_a.ncols)
            result = service.spmv(matrix_a, x, key="A")
            assert np.array_equal(result.y, matrix_a.spmv(x))
            stats = service.stats()["distributed"]
            assert stats["dead_workers"] == 0
            assert stats["supervisor"]["kills"] == 0
            assert stats["supervisor"]["respawns"] == 0
        finally:
            service.close()


def _idle_worker(config, conn):
    """Stands in for ``worker_main``: waits for the shutdown message."""
    try:
        conn.recv()
    except EOFError:
        pass


class TestSpawnRace:
    def test_shutdown_before_reader_starts(self, monkeypatch):
        """A shutdown that lands between building a worker's reader thread
        and starting it neither joins the unstarted thread nor leaves the
        reader without its pipe end.

        ``Thread.start`` is patched so that ``shutdown()`` runs first,
        which makes the interleaving deterministic.
        """
        import threading

        from repro.distributed import supervisor as supervisor_mod

        monkeypatch.setattr(supervisor_mod, "worker_main", _idle_worker)
        sup = supervisor_mod.Supervisor(
            lambda index: None,
            on_message=lambda *args: None,
            on_death=lambda *args: None,
            on_respawn=lambda *args: None,
        )
        handle = supervisor_mod.WorkerHandle(0)
        sup._handles = [handle]
        errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: errors.append(args.exc_value)
        )
        start = threading.Thread.start
        readers = []

        def shutdown_first(thread):
            if thread.name.startswith("repro-dist-reader"):
                readers.append(thread)
                sup.shutdown(timeout=10.0)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", shutdown_first)
        sup._spawn(handle)
        monkeypatch.setattr(threading.Thread, "start", start)
        (reader,) = readers
        reader.join(5.0)
        assert not reader.is_alive()
        assert errors == []
        assert handle.reader is reader
        assert handle.conn is None and handle.dead
        assert not handle.process.is_alive()
