"""Worker-process lifecycle for the distributed tier.

The :class:`Supervisor` owns the fleet: it spawns each worker with its
own duplex control pipe, runs one reader thread per worker (delivering
every protocol message to the gateway's callback), and watches two
independent death signals:

* the **process sentinel** — the primary signal.  With the ``fork``
  start method sibling workers inherit each other's pipe fds, so a dead
  worker's pipe does not reliably reach EOF; the OS-level sentinel
  (``Process.sentinel``) fires regardless;
* **heartbeat staleness** — covers the hung-but-alive case: a worker
  that stops beating for ``heartbeat_timeout`` seconds is killed, which
  then trips the sentinel path.

Death handling is per-worker and idempotent (guarded by an incarnation
counter): the dead incarnation's last-heartbeat snapshot is handed to
``on_death`` (the gateway folds it into retired accounting, exactly as
cache eviction folds an evicted engine), a fresh incarnation is spawned
on a fresh pipe, and ``on_respawn`` lets the gateway replay state and
re-send the dead worker's pending requests.  Workers on other shards
never notice: their pipes, engines, and in-flight batches are untouched.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.distributed.worker import WorkerConfig, worker_main

__all__ = ["Supervisor", "WorkerHandle"]

_POLL_SECONDS = 0.02


def _mp_context():
    """The ``fork`` context where available (Linux), else the default.

    Fork keeps worker boot cheap and lets :class:`WorkerConfig` carry
    arbitrary (unpicklable) tuner/space objects by copy-on-write.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerHandle:
    """One worker slot: current process, pipe, and liveness bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        #: reader thread of the current incarnation; it alone closes
        #: the incarnation's pipe end (see ``Supervisor._read_loop``)
        self.reader: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.incarnation = 0
        self.ready = threading.Event()
        self.last_heartbeat = 0.0
        self.last_snapshot: Dict[str, object] = {}
        self.backends: Dict[str, object] = {}
        self.dead = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class Supervisor:
    """Spawn, watch, and respawn the worker fleet.

    Parameters
    ----------
    make_config:
        ``make_config(index) -> WorkerConfig`` factory; called for every
        spawn, including respawns.
    on_message:
        ``on_message(index, incarnation, message)`` — every non-heartbeat
        protocol message a worker sends, delivered on that worker's
        reader thread.
    on_death:
        ``on_death(index, snapshot)`` — a worker incarnation died;
        *snapshot* is its last heartbeat accounting (possibly empty).
        Runs before the respawn.
    on_respawn:
        ``on_respawn(index)`` — the replacement incarnation is up
        (pipe connected, messages will be processed in send order); the
        gateway replays matrices, the deployed model, and pending work.
    """

    def __init__(
        self,
        make_config: Callable[[int], WorkerConfig],
        *,
        on_message: Callable[[int, int, tuple], None],
        on_death: Callable[[int, Dict[str, object]], None],
        on_respawn: Callable[[int], None],
        heartbeat_timeout: float = 10.0,
    ) -> None:
        self._make_config = make_config
        self._on_message = on_message
        self._on_death = on_death
        self._on_respawn = on_respawn
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._ctx = _mp_context()
        self._handles: List[WorkerHandle] = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self.respawns = 0
        self.kills = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, n: int, *, ready_timeout: float = 60.0) -> None:
        """Spawn *n* workers and wait for every ready message."""
        self._handles = [WorkerHandle(i) for i in range(n)]
        for handle in self._handles:
            self._spawn(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="repro-dist-monitor",
            daemon=True,
        )
        self._monitor.start()
        deadline = time.monotonic() + ready_timeout
        for handle in self._handles:
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.ready.wait(remaining):
                raise TimeoutError(
                    f"worker {handle.index} not ready after {ready_timeout}s"
                )

    def _spawn(self, handle: WorkerHandle) -> None:
        config = self._make_config(handle.index)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, child_conn),
            name=f"repro-worker-{handle.index}",
            daemon=True,
        )
        incarnation = handle.incarnation
        process.start()
        child_conn.close()  # the worker's end lives in the worker only
        # publish the process and the reader only once each is joinable
        # — a concurrent shutdown() must never see a constructed-but-not-
        # started Process or Thread; the reader owns its pipe end from
        # the start, so a shutdown nulling handle.conn cannot take it
        handle.conn = parent_conn
        handle.process = process
        handle.last_heartbeat = time.monotonic()
        handle.dead = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle, incarnation, parent_conn),
            name=f"repro-dist-reader-{handle.index}",
            daemon=True,
        )
        reader.start()
        handle.reader = reader

    def handles(self) -> List[WorkerHandle]:
        return list(self._handles)

    def handle(self, index: int) -> WorkerHandle:
        return self._handles[index]

    def send(self, index: int, message, *, expect: Optional[int] = None) -> bool:
        """Ship one control message; ``False`` if the worker is down.

        ``Connection.send`` is not thread-safe, so each handle
        serialises senders through its own lock (the request path, the
        promote broadcast, and the stats poll all share the pipe).

        ``expect`` pins the send to one incarnation: if the worker was
        replaced since the caller observed that incarnation number the
        send is refused rather than delivered to a replacement that
        never saw the caller's preceding state messages.
        """
        handle = self._handles[index]
        with handle.send_lock:
            if handle.dead or handle.conn is None:
                return False
            if expect is not None and handle.incarnation != expect:
                return False
            try:
                handle.conn.send(message)
                return True
            except (OSError, ValueError, BrokenPipeError):
                return False  # sentinel path will pick the death up

    def kill(self, index: int) -> Optional[int]:
        """Forcibly SIGKILL one worker (failure-injection hook).

        Returns the killed pid; recovery then follows the normal death
        path — fold, respawn, replay.
        """
        handle = self._handles[index]
        process = handle.process
        if process is None or not process.is_alive():
            return None
        self.kills += 1
        pid = process.pid
        process.kill()
        return pid

    def shutdown(self, *, timeout: float = 10.0) -> None:
        """Stop every worker: polite shutdown, then terminate, then kill."""
        self._closing.set()
        for handle in self._handles:
            self.send(handle.index, ("shutdown",))
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            try:
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join(1.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(1.0)
            except (AssertionError, ValueError):
                # a respawn raced the shutdown and the process handle is
                # mid-replacement; _closing is set, so no further spawn
                # follows and the daemon flag reaps the straggler
                pass
        for handle in self._handles:
            with handle.send_lock:
                handle.dead = True
                handle.conn = None
            reader = handle.reader
            if reader is not None and reader is not threading.current_thread():
                reader.join(1.0)  # it closes the pipe end

    # ------------------------------------------------------------------
    # watching
    # ------------------------------------------------------------------
    def _read_loop(self, handle: WorkerHandle, incarnation: int, conn) -> None:
        """Deliver one incarnation's messages until it dies or is replaced.

        The reader is the only thread that reads this incarnation's pipe
        end *conn*, and the only one that closes it.  A close from another
        thread can land while the reader sits in ``recv`` with the file
        descriptor already fetched; the respawn's new pipe then reuses
        that descriptor number, and the stale read steals bytes from the
        replacement's stream, which desynchronises its framing and
        silently stops its reader.
        """
        try:
            # death handling and shutdown mark the handle dead; a dying
            # incarnation's buffered replies are dropped, because its
            # in-flight requests are re-sent to the replacement
            while not handle.dead and handle.incarnation == incarnation:
                try:
                    if not conn.poll(_POLL_SECONDS):
                        continue
                    message = conn.recv()
                except (EOFError, OSError, ValueError, TypeError):
                    return  # pipe gone — the sentinel path owns recovery
                if handle.dead or handle.incarnation != incarnation:
                    return
                kind = message[0]
                if kind == "heartbeat":
                    handle.last_heartbeat = time.monotonic()
                    handle.last_snapshot = message[2]
                elif kind == "ready":
                    handle.last_heartbeat = time.monotonic()
                    handle.backends = message[2]
                    handle.ready.set()
                    self._on_message(handle.index, incarnation, message)
                else:
                    handle.last_heartbeat = time.monotonic()
                    self._on_message(handle.index, incarnation, message)
        finally:
            with handle.send_lock:  # never under a sender mid-write
                conn.close()

    def _monitor_loop(self) -> None:
        """Sentinel + heartbeat watchdog; respawns dead incarnations."""
        while not self._closing.is_set():
            sentinels = {
                handle.process.sentinel: handle
                for handle in self._handles
                if handle.process is not None and not handle.dead
            }
            if not sentinels:
                time.sleep(_POLL_SECONDS)
                continue
            fired = multiprocessing.connection.wait(
                list(sentinels), timeout=0.1
            )
            now = time.monotonic()
            dead = [sentinels[s] for s in fired]
            for handle in sentinels.values():
                if handle in dead:
                    continue
                # Staleness only applies after boot: a replacement busy
                # re-warming kernels has not started heartbeating yet,
                # and killing it mid-boot would loop forever on a slow
                # machine.  Pre-ready hangs are caught by the sentinel.
                if not handle.ready.is_set():
                    continue
                if now - handle.last_heartbeat > self.heartbeat_timeout:
                    # alive but silent: treat a hung worker as dead
                    self.kill(handle.index)
            for handle in dead:
                if self._closing.is_set():
                    return
                self._handle_death(handle)

    def _handle_death(self, handle: WorkerHandle) -> None:
        """Fold, respawn, replay — other workers are never touched."""
        if handle.dead:
            return
        handle.dead = True
        handle.ready.clear()
        process = handle.process
        if process is not None:
            process.join(1.0)
        with handle.send_lock:
            handle.conn = None  # its reader closes it on the way out
        try:
            self._on_death(handle.index, dict(handle.last_snapshot))
        except Exception:
            pass  # accounting must not block recovery
        if self._closing.is_set():
            return
        with self._lock:
            handle.incarnation += 1
            handle.last_snapshot = {}
            self.respawns += 1
            self._spawn(handle)
        try:
            self._on_respawn(handle.index)
        except Exception:
            pass

    def stats(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "workers": len(self._handles),
            "respawns": self.respawns,
            "kills": self.kills,
            "alive": sum(
                1
                for handle in self._handles
                if handle.process is not None
                and handle.process.is_alive()
            ),
            "incarnations": [h.incarnation for h in self._handles],
            "heartbeat_age_seconds": [
                round(now - h.last_heartbeat, 3) for h in self._handles
            ],
        }
