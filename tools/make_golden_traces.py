#!/usr/bin/env python
"""Regenerate the golden-trace regression corpus under tests/trace/golden.

Three small recorded traces, each exercising a different slice of the
serving stack, all captured through
:func:`repro.trace.workloads.record_workload` with pinned seeds:

``steady-state``
    Mixed-session hot/cold traffic over a static corpus on the
    in-process tier — the baseline coalescing/caching path.
``adaptive-drift``
    An evolving matrix (``decaying_stencil``) whose update barriers
    interleave with traffic, plus a mid-run model promotion — the
    adaptive/mutation path.
``kill-during-update``
    Recorded from a 4-worker distributed service; a worker is SIGKILLed
    immediately after an update barrier is submitted, so the kill lands
    mid-barrier — the fault-recovery path (replays with zero lost
    requests).

Traces are deliberately tiny (tens of requests, compact matrices) so the
corpus stays a few hundred kilobytes in git.  Regenerating rewrites the
directories in place; the traces' *replayed results* are deterministic,
but the recorded wall timings (and hence the fingerprints) change per
recording — commit regenerated traces only when the schema or workload
definition changes.

Usage: python tools/make_golden_traces.py [out_dir]
"""

from __future__ import annotations

import os
import shutil
import sys

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

GOLDEN_DIR = os.path.join(_REPO_ROOT, "tests", "trace", "golden")


def make_steady_state(out: str):
    from repro.backends import make_space
    from repro.core.tuners.run_first import RunFirstTuner
    from repro.service import TuningService
    from repro.trace import record_workload

    with TuningService(
        make_space("cirrus", "serial"), RunFirstTuner(), workers=2
    ) as service:
        return record_workload(
            service, out,
            name="steady-state",
            source="golden",
            requests=24,
            sessions=3,
            n_matrices=4,
            seed=1301,
            compact=True,
        )


def make_adaptive_drift(out: str):
    from repro.backends import make_space
    from repro.core.tuners.run_first import RunFirstTuner
    from repro.service import TuningService
    from repro.trace import record_workload

    with TuningService(
        make_space("cirrus", "serial"), RunFirstTuner(), workers=2
    ) as service:
        return record_workload(
            service, out,
            name="adaptive-drift",
            source="golden",
            requests=24,
            sessions=2,
            n_matrices=3,
            seed=1302,
            family="decaying_stencil",
            updates=4,
            promote_at=12,
            compact=True,
        )


def make_kill_during_update(out: str):
    from repro.backends import make_space
    from repro.core.tuners.run_first import RunFirstTuner
    from repro.distributed import DistributedService
    from repro.trace import record_workload

    with DistributedService(
        make_space("cirrus", "serial"), RunFirstTuner(), workers=4
    ) as service:
        return record_workload(
            service, out,
            name="kill-during-update",
            source="golden",
            requests=28,
            sessions=3,
            n_matrices=3,
            seed=1303,
            family="growing_rmat",
            updates=3,
            kill_with_update=True,
            compact=True,
        )


GOLDENS = {
    "steady-state": make_steady_state,
    "adaptive-drift": make_adaptive_drift,
    "kill-during-update": make_kill_during_update,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    base = os.path.abspath(argv[0]) if argv else GOLDEN_DIR
    os.makedirs(base, exist_ok=True)
    for name, make in GOLDENS.items():
        out = os.path.join(base, name)
        if os.path.isdir(out):
            shutil.rmtree(out)
        trace = make(out)
        counts = trace.counts
        size = sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        )
        print(f"{name:<22} {counts['requests']:>3} requests "
              f"{counts['updates']:>2} updates {counts['kills']} kills "
              f"{counts['promotions']} promotions  "
              f"{size / 1024:.0f} KiB  fingerprint {trace.fingerprint}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
