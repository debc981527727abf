"""Satellite S3: shared-memory hygiene across the gateway lifecycle.

Each scenario runs in a child interpreter so that (a) the gateway's
whole process tree — workers, resource tracker — starts from scratch
and is torn down completely, and (b) resource-tracker complaints
(``KeyError`` tracebacks, "leaked shared_memory objects" warnings)
land on a stderr we can actually inspect.  After the child exits, no
``/dev/shm`` entry with the pool's prefix may remain and stderr must
be free of tracker noise.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.distributed.shm import SEGMENT_PREFIX

_SCENARIO = """
import numpy as np

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.distributed import DistributedService
from repro.formats import COOMatrix

rng = np.random.default_rng(7)
matrix = COOMatrix.from_dense(rng.random((16, 16)))

service = DistributedService(
    make_space("cirrus", "serial"),
    RunFirstTuner(),
    workers=2,
    heartbeat_interval=0.05,
    shm_slot_bytes=1 << 12,
    shm_slots=8,
)
futures = [
    service.submit(matrix, rng.random(16), key="H") for _ in range(16)
]
# oversize payload: exercises the dedicated-segment path too
big = rng.random((16, 64))
futures.append(service.submit(matrix, big, key="H"))
{mid_trace}
for future in futures:
    future.result(timeout=60)
service.close()
print("SCENARIO-OK")
"""

_KILL_LINE = 'service.kill_worker(service.worker_of("H"))'


def shm_entries() -> set:
    return {
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


def run_scenario(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


@pytest.mark.parametrize(
    "mid_trace",
    ["", _KILL_LINE],
    ids=["clean-shutdown", "kill-one-worker"],
)
def test_no_shm_leaks_and_no_tracker_noise(mid_trace):
    before = shm_entries()
    proc = run_scenario(_SCENARIO.format(mid_trace=mid_trace))
    assert proc.returncode == 0, proc.stderr
    assert "SCENARIO-OK" in proc.stdout
    leaked = shm_entries() - before
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
    for marker in ("resource_tracker", "KeyError", "Traceback", "leaked"):
        assert marker not in proc.stderr, proc.stderr


_ORPHAN_SCENARIO = """
import sys
import time

import numpy as np

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.distributed import DistributedService
from repro.formats import COOMatrix

matrix = COOMatrix.from_dense(np.random.default_rng(3).random((16, 16)))
service = DistributedService(
    make_space("cirrus", "serial"), RunFirstTuner(), workers=2
)
service.spmv(matrix, np.ones(16), key="O")
pids = [service.supervisor.handle(i).pid for i in range(service.workers)]
print("PIDS", *pids, flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether *pid* exists and has not exited (zombies count as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_gateway_is_killed(tmp_path):
    """A SIGKILLed gateway leaves no orphaned workers behind.

    Forked siblings hold each other's pipe ends open, so a worker never
    reads EOF from a dead gateway; it must notice being re-parented.
    """
    import signal
    import time

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCENARIO],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=env,
        )
    pids = []
    try:
        line = proc.stdout.readline()
        assert line.startswith("PIDS"), (
            line + (tmp_path / "stderr.txt").read_text()
        )
        pids = [int(p) for p in line.split()[1:]]
        assert len(pids) == 2 and all(_running(p) for p in pids)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        survivors = [p for p in pids if _running(p)]
        assert not survivors, f"orphaned workers still running: {survivors}"
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
