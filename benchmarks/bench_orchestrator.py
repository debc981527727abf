"""Experiment-orchestrator benchmarks: parallel profiling + store resume.

Two acceptance properties of the experiments layer:

* profiling the benchmark corpus through the orchestrator with ``jobs=4``
  is measurably faster than the serial ``run_profile_stage`` call
  (matrix generation fans out across a process pool) — asserted when the
  machine actually has multiple CPUs, reported either way;
* a repeated identical ``repro run`` completes with **zero** matrix
  generations, served entirely from the artifact store (asserted via the
  collection's stats/generation counters — deterministic, always on).

Scale with ``REPRO_BENCH_MATRICES`` (default 300) like the other
benchmarks; results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time

from repro.backends import make_space
from repro.datasets import MatrixCollection
from repro.experiments import (
    ArtifactStore,
    CorpusSpec,
    ExperimentOrchestrator,
    ExperimentSpec,
    TargetSpec,
    run_profile_stage,
)

from benchmarks.conftest import bench_scale, bench_seed, write_result

JOBS = 4


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def test_parallel_profile_speedup():
    """Orchestrated profiling with a worker pool vs the serial path."""
    spaces = [make_space("cirrus", "serial"), make_space("p3", "cuda")]
    n = bench_scale()

    serial_coll = MatrixCollection(n_matrices=n, seed=bench_seed())
    t0 = time.perf_counter()
    serial = run_profile_stage(serial_coll, spaces)
    t_serial = time.perf_counter() - t0

    parallel_coll = MatrixCollection(n_matrices=n, seed=bench_seed())
    t0 = time.perf_counter()
    parallel = run_profile_stage(parallel_coll, spaces, jobs=JOBS)
    t_parallel = time.perf_counter() - t0

    # identical labels and timings regardless of the execution strategy
    assert parallel.times == serial.times
    assert parallel.optimal == serial.optimal

    cpus = _cpus()
    speedup = t_serial / t_parallel if t_parallel else float("inf")
    lines = [
        f"parallel profiling, {n} matrices x {len(spaces)} spaces "
        f"({cpus} CPUs visible)",
        "-" * 66,
        f"{'serial run_profile_stage':<38} {t_serial:8.2f} s",
        f"{'orchestrator, jobs=' + str(JOBS):<38} {t_parallel:8.2f} s",
        f"{'speedup':<38} {speedup:8.2f} x",
        "",
    ]
    write_result("orchestrator_parallel_profiling.txt", "\n".join(lines))
    if cpus >= 2:
        assert t_parallel < t_serial / 1.15, (
            f"jobs={JOBS} profiling not measurably faster: "
            f"{t_parallel:.2f}s vs serial {t_serial:.2f}s on {cpus} CPUs"
        )


def test_repeat_run_is_served_from_store(tmp_path):
    """Second identical run: zero generations, all stages from the store."""
    n = min(60, bench_scale())
    spec = ExperimentSpec(
        name="bench-resume",
        corpus=CorpusSpec(n_matrices=n, seed=bench_seed()),
        targets=(TargetSpec("cirrus", "serial"),),
        algorithms=("random_forest",),
        grid={"n_estimators": [4], "max_depth": [8]},
        cv=3,
    )
    store = ArtifactStore(tmp_path / "store")

    first_coll = MatrixCollection(n_matrices=n, seed=bench_seed())
    t0 = time.perf_counter()
    first = ExperimentOrchestrator(spec, store, collection=first_coll).run()
    t_first = time.perf_counter() - t0
    assert first_coll.stats_computed == n
    assert not first.all_cached

    second_coll = MatrixCollection(n_matrices=n, seed=bench_seed())
    t0 = time.perf_counter()
    second = ExperimentOrchestrator(spec, store, collection=second_coll).run()
    t_second = time.perf_counter() - t0

    # the acceptance assertions: nothing regenerated, everything cached
    assert second_coll.stats_computed == 0
    assert second.all_cached
    assert second.report == first.report

    lines = [
        f"resumable run, {n} matrices, 1 space, SMALL-like grid",
        "-" * 66,
        f"{'first run (cold store)':<38} {t_first:8.2f} s",
        f"{'second run (all artifacts cached)':<38} {t_second:8.2f} s",
        f"{'matrices generated on second run':<38} "
        f"{second_coll.stats_computed:8d}",
        "",
    ]
    write_result("orchestrator_resume.txt", "\n".join(lines))
    assert t_second < t_first
