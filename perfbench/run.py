"""End-to-end and per-layer benchmark of the tuning service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 18 --trace 0

A run starts ``PROCESSES`` fresh Python processes one after another.
Each generates its inputs from ``--seed`` (and its own index), computes
scipy references, and then sets up from scratch: the offline pipeline
(profile -> dataset -> train -> export) on ``examples/specs/ci_smoke.json``
into a fresh store, a service built from the exported model, and one
request per workload matrix.  It then drives that service in a closed
loop for its share of ``--seconds``, timing each operation on the
process's CPU clock (all of its threads share one core).  Every 1,000
operations it times scipy's CSR product on the workload's matrices,
and the end-to-end figures are stated in units of that product, so a
change of the shared host's speed cancels out.  Every result is
checked against its reference.  This process pools what the
children measured and prints, as the last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any operation failed or a child could not run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` records
spans around each layer's entry points during set-up and during the
second half of each child's timed phase (the first half runs untraced;
the throughput difference is the tracing overhead), prints count, busy
and self time per layer, writes the spans to ``.perfbench/spans/`` and
reports the per-layer metrics.  ``README.md`` describes both sets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, fields

from tracer import LayerStats

#: Fresh processes per run, each with one set-up and an equal share of
#: the timed phase; a process could draw a slow stretch of the shared
#: host as a whole.  ``setup_s`` is the median of their set-ups.
PROCESSES = 3
SPEC = os.path.join("examples", "specs", "ci_smoke.json")
WORK_DIR = ".perfbench"
#: Untimed run of the workload between set-up and the timed phase.
WARMUP_S = 1.0
#: Wall-time limit of one child beyond its timed phase; the default
#: run ends well within 180 s.
CHILD_OVERHEAD_S = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one child process: set up once, drive the service, report raw data
# ----------------------------------------------------------------------
def environment() -> dict:
    """What the numbers depend on besides the code: recorded per result."""
    import numpy
    import scipy

    from repro.kernels import available_backends, default_backend

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backends": list(available_backends()),
        "default_kernel_backend": default_backend(),
    }


def set_up(workload, spec, tmp: str, tracer):
    """One set-up from a fresh store to a warmed service."""
    from repro.experiments import ArtifactStore, ExperimentOrchestrator
    from repro.service.replay import service_for_suite

    store = os.path.join(tmp, "store")
    t0 = time.perf_counter()
    result = ExperimentOrchestrator(spec, ArtifactStore(store)).run(
        until="export"
    )
    t1 = time.perf_counter()
    service = service_for_suite(
        store, **workload.service_kwargs(os.path.join(tmp, "tier"))
    )
    t2 = time.perf_counter()
    if tracer is not None:
        with tracer.span("setup", "warmup"):
            touch = workload.first_touch(service)
    else:
        touch = workload.first_touch(service)
    t3 = time.perf_counter()
    stage = {o.stage: o.seconds for o in result.outcomes}
    return service, {
        "setup_s": t3 - t0,
        "profile_s": stage["profile"],
        "train_s": stage["train"],
        "start_s": t2 - t1,
        "warmup_s": t3 - t2,
        "touch_ops": touch.ops,
        "touch_failed": touch.failed,
    }


def phase_dict(phase) -> dict:
    out = asdict(phase)
    out["backends"] = sorted(phase.backends)
    return out


def child(args, root: str, tmp: str) -> dict:
    from repro.experiments import ExperimentSpec
    from repro.kernels import probe_backends
    from repro.utils.rng import derive_seed

    import workloads
    from tracer import Tracer

    with open(os.path.join(root, SPEC)) as fh:
        spec = ExperimentSpec.from_dict(json.load(fh))
    # build (or load) the native kernel library before any clock starts
    probe_backends()
    env = environment()
    seconds = args.seconds / PROCESSES
    workload = workloads.WORKLOADS[args.workload](
        derive_seed(args.seed, "process", args.child), WARMUP_S + seconds
    )
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    service, setup = set_up(workload, spec, tmp, tracer)
    if tracer is not None:
        tracer.uninstall()
    # the benchmark's own inputs and references are long-lived: keep
    # them out of the collector's scans during the timed phase
    gc.collect()
    gc.freeze()
    # write back what set-up left dirty (the store, the storage tier)
    # so the kernel's writeback does not land in the timed phase
    os.sync()
    # an untimed stretch of the workload itself: on the shared host
    # used to build this benchmark, the first second of work after
    # set-up often ran up to 4x slower, benchmark arithmetic included
    warm = workload.drive(service, WARMUP_S)
    setup["touch_ops"] += warm.ops
    setup["touch_failed"] += warm.failed
    out = {"env": env, "setup": setup, "block": workloads.BLOCK}
    try:
        if tracer is None:
            out["phases"] = [phase_dict(workload.drive(service, seconds))]
        else:
            from repro.obs import SpanRecorder

            untraced = workload.drive(service, seconds / 2)
            # a ring large enough that no service span of the traced
            # half is displaced before it is read
            service.obs.spans = SpanRecorder(1 << 20)
            hits, misses = service.engines.hits, service.engines.misses
            tracer.phase = "timed"
            tracer.install()
            traced = workload.drive(service, seconds / 2)
            tracer.uninstall()
            out["phases"] = [phase_dict(untraced), phase_dict(traced)]
            out["cache"] = [service.engines.hits - hits,
                            service.engines.misses - misses]
            out["queue_s"] = [
                span["stages"]["queue"]
                for span in service.obs.spans.tail(1 << 20)
                if "queue" in span["stages"]
            ]
            out["layers"] = {
                phase: {name: asdict(st) for name, st in
                        tracer.summary(phase).items()}
                for phase in ("setup", "timed")
            }
            spans_dir = os.path.join(root, WORK_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            tracer.write(
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}"
                             f"-p{args.child}.jsonl"),
                {"workload": args.workload, "seed": args.seed,
                 "process": args.child, "env": out["env"]},
            )
    finally:
        service.close()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ----------------------------------------------------------------------
# the parent: run the children, pool, report
# ----------------------------------------------------------------------
def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def cpu_throughput(phases) -> float:
    elapsed = sum(p["cpu_elapsed"] for p in phases)
    return sum(p["ops"] for p in phases) / elapsed if elapsed > 0 else 0.0


def throughput(phases) -> float:
    elapsed = sum(p["elapsed"] for p in phases)
    return sum(p["ops"] for p in phases) / elapsed if elapsed > 0 else 0.0


def blocks(phase, size: int) -> list:
    """The whole blocks of *phase*, the operations between two
    calibrations: p50, p99 and throughput on the CPU clock, each also
    in units of the mean of the two calibrations around the block."""
    import numpy as np

    lat = np.asarray(phase["cpu_latencies"])
    done = np.concatenate(([0.0], phase["cpu_done"]))
    marks, units = phase["marks"], phase["unit_seconds"]
    spans = [(j, j + 1) for j in range(len(marks) - 1)
             if marks[j + 1] - marks[j] >= size]
    if not spans:  # a phase shorter than one block counts as one
        spans = [(0, len(marks) - 1)]
    out = []
    for j, k in spans:
        lo, hi = marks[j], marks[k]
        unit = (units[j] + units[k]) / 2
        p50, p99 = np.percentile(lat[lo:hi], (50, 99))
        ops = (hi - lo) / (done[hi] - done[lo])
        out.append({"p50": p50 / unit, "p99": p99 / unit, "ops": ops * unit,
                    "p50_ms": p50 * 1e3, "p99_ms": p99 * 1e3,
                    "ops_per_cpu_s": ops, "unit_ms": unit * 1e3})
    return out


def block_median(stats, key: str) -> float:
    return float(statistics.median(b[key] for b in stats))


def end_to_end(children) -> dict:
    stats = [b for c in children
             for b in blocks(c["phases"][0], c["block"])]
    return {
        "setup_s": (statistics.median(c["setup"]["setup_s"] for c in children), "s"),
        "latency_p50_vs_scipy": (block_median(stats, "p50"), "x"),
        "latency_p99_vs_scipy": (block_median(stats, "p99"), "x"),
        "throughput_vs_scipy": (block_median(stats, "ops"), "x"),
        "peak_rss_mb": (max(c["rss_mb"] for c in children), "MB"),
    }


def wall_summary(phases) -> str:
    """Pooled wall-clock figures of *phases*, for the summary line."""
    latencies = [x for p in phases for x in p["latencies"]]
    return (f"wall p50 {percentile_ms(latencies, 50):.3f} ms, "
            f"p99 {percentile_ms(latencies, 99):.3f} ms, "
            f"{throughput(phases):.1f} ops/s")


STAT_FIELDS = tuple(f.name for f in fields(LayerStats))


def pooled_layers(children, phases, *names) -> dict:
    """Sum layer stats over children and *phases*: every ``layer.op``,
    or, given *names*, one total over those."""
    pooled: dict = {}
    for c in children:
        for phase in phases:
            for name, st in c["layers"][phase].items():
                if names and name not in names:
                    continue
                acc = pooled.setdefault(
                    "total" if names else name, dict.fromkeys(STAT_FIELDS, 0))
                for field in STAT_FIELDS:
                    acc[field] += st[field]
    if names:
        return pooled.get("total", dict.fromkeys(STAT_FIELDS, 0))
    return pooled


def per_layer(children) -> dict:
    """Per-layer metrics from the traced set-ups and traced halves."""
    def timed(*names):
        return pooled_layers(children, ("timed",), *names)

    def whole(*names):
        return pooled_layers(children, ("setup", "timed"), *names)

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_per_call(st):
        return ratio(st["busy"], st["calls"]) * 1e3

    fingerprint = timed("runtime.fingerprint")
    update = timed("runtime.update")
    decide = whole("core.decide")
    convert = whole("formats.convert")
    kernel = timed("kernel.spmv", "kernel.spmm")
    promote = timed("storage.promote")
    untraced = [c["phases"][0] for c in children]
    traced = [c["phases"][1] for c in children]
    solve_seconds = [x for p in traced for x in p["solve_seconds"]]
    hits = sum(c["cache"][0] for c in children)
    misses = sum(c["cache"][1] for c in children)
    median = statistics.median
    setups = [c["setup"] for c in children]
    return {
        "experiments.profile_s": (median(s["profile_s"] for s in setups), "s"),
        "experiments.train_s": (median(s["train_s"] for s in setups), "s"),
        "service.start_s": (median(s["start_s"] for s in setups), "s"),
        "setup.warmup_s": (median(s["warmup_s"] for s in setups), "s"),
        "service.submit_ms": (
            ms_per_call(timed("service.submit", "service.submit_update")),
            "ms"),
        "service.batch_size": (
            mean([b for p in traced for b in p["batch_sizes"]]), "count"),
        "service.queue_ms": (
            mean([q for c in children for q in c["queue_s"]]) * 1e3, "ms"),
        "runtime.fingerprint_ms": (ms_per_call(fingerprint), "ms"),
        "runtime.fingerprint_calls": (fingerprint["calls"], "count"),
        "runtime.update_ms": (ms_per_call(update), "ms"),
        "runtime.update_calls": (update["calls"], "count"),
        "runtime.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "core.decide_ms": (ms_per_call(decide), "ms"),
        "core.decide_calls": (decide["calls"], "count"),
        "formats.convert_ms": (ms_per_call(convert), "ms"),
        "formats.convert_calls": (convert["calls"], "count"),
        "kernel.spmv_ms": (ms_per_call(kernel), "ms"),
        "kernel.calls": (kernel["calls"], "count"),
        "kernel.gbps_computed": (
            ratio(kernel["nbytes"], kernel["busy"]) / 1e9, "GB/s"),
        "solve.iterations": (
            mean([i for p in traced for i in p["iterations"]]), "count"),
        "solve.solve_s": (
            median(solve_seconds) if solve_seconds else 0.0, "s"),
        "storage.promote_ms": (ms_per_call(promote), "ms"),
        "storage.promote_hit_ratio": (
            ratio(promote["hits"], promote["calls"]), "ratio"),
        "storage.demote_ms": (ms_per_call(whole("storage.demote")), "ms"),
        "trace.overhead_pct": (
            ratio(cpu_throughput(untraced) - cpu_throughput(traced),
                  cpu_throughput(untraced)) * 100, "%"),
    }


def print_layers(children) -> None:
    for phase in ("setup", "timed"):
        print(f"# layers, {phase} phase, {len(children)} processes: "
              "calls  busy_s  self_s")
        for name, st in sorted(pooled_layers(children, (phase,)).items()):
            print(f"#   {name:<24} {st['calls']:>8d} {st['busy']:9.4f} "
                  f"{st['self_time']:9.4f}")


def child_env() -> dict:
    """The children's environment: one thread per math library.  Idle
    BLAS/OpenMP threads spin before they sleep, which would bill the
    CPU clock for waiting and contend with the service's own threads."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[name] = "1"
    return env


def parent(args) -> int:
    children = []
    for index in range(PROCESSES):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--child", str(index)]
        limit = CHILD_OVERHEAD_S + 2 * args.seconds / PROCESSES
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=limit, env=child_env())
        except subprocess.TimeoutExpired:
            print(f"process {index} exceeded {limit:.0f} s", file=sys.stderr)
            return 3
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"process {index} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 3
        children.append(json.loads(lines[-1]))

    attempted = sum(c["setup"]["touch_ops"] for c in children)
    failed = sum(c["setup"]["touch_failed"] for c in children)
    for c in children:
        attempted += sum(p["ops"] for p in c["phases"])
        failed += sum(p["failed"] for p in c["phases"])
    metrics = per_layer(children) if args.trace else end_to_end(children)

    env = dict(children[0]["env"])
    env["serving_backends"] = sorted(
        {b for c in children for p in c["phases"] for b in p["backends"]})
    timed_ops = sum(len(p["latencies"]) for c in children for p in c["phases"])
    setups = ", ".join(f"{c['setup']['setup_s']:.3f}" for c in children)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {timed_ops} timed ops over {PROCESSES} "
          f"processes, {attempted} checked, {failed} failed; "
          f"set-ups {setups} s")
    print("# env " + json.dumps(env, sort_keys=True))
    for index, c in enumerate(children):
        phase = c["phases"][0]
        stats = blocks(phase, c["block"])
        print(f"# process {index}: {len(stats)} blocks, medians "
              f"p50 {block_median(stats, 'p50_ms'):.3f} ms, "
              f"p99 {block_median(stats, 'p99_ms'):.3f} ms, "
              f"{block_median(stats, 'ops_per_cpu_s'):.1f} ops/cpu-s, "
              f"scipy unit {block_median(stats, 'unit_ms'):.4f} ms; "
              f"{wall_summary([phase])}")
    if args.trace:
        print_layers(children)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")) or not os.path.isfile(
        os.path.join(root, SPEC)
    ):
        print("run from the root of a checkout holding src/repro and "
              f"{SPEC}", file=sys.stderr)
        return 2
    if args.child is None:
        return parent(args)
    # one core for every thread of the process (threads inherit it), so
    # the CPU clock counts the same work whatever else runs: on two
    # cores, a busy neighbour changed how much the generator and the
    # worker overlapped, and serve_rw's CPU time per request with it
    # (by 15%)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(root, WORK_DIR)
    # the native kernel build cache and every temporary file stay inside
    # the checkout; set before the first import of repro, which probes
    # the kernel backends
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(work, "native")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r}; expected one of "
                  f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        print(json.dumps(child(args, root, tmp)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        # so the next process does not pay for this one's deletions
        os.sync()
    return 0


if __name__ == "__main__":
    sys.exit(main())
