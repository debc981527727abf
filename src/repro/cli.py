"""Command-line interface: the Sparse.Tree / Oracle workflow from a shell.

Subcommands mirror the paper's pipeline:

``repro-oracle systems``
    List the simulated systems and their backends (Table II).
``repro-oracle profile --system cirrus --backend cuda [-n 300]``
    Profiling runs on the synthetic corpus; prints the optimal-format
    distribution (Figure 2 column).
``repro-oracle train --system cirrus --backend cuda -o model.file``
    Offline stage: profile, train, grid-search-tune, export (Figure 1).
``repro-oracle features matrix.mtx``
    Print the Table-I feature vector of a Matrix Market file.
``repro-oracle predict --model model.file matrix.mtx``
    Online stage: load the model, extract features, print the format.
``repro-oracle tune --model model.file --repetitions 1000 matrix.mtx``
    Full TuneMultiply: decision, overhead and speedup report.
``repro-oracle batch --system cirrus --backend serial -n 12 --requests 60``
    Serve a synthetic SpMV workload through the cached
    :class:`~repro.runtime.engine.WorkloadEngine` and report cache hit
    rates and amortised tuning cost.
``repro-oracle run suite.json --store ./store --jobs 4``
    Run a declarative scenario suite through the resumable experiment
    orchestrator; stage artifacts land in the store, so re-running (or
    ``resume`` after a kill) serves completed stages from disk.
``repro-oracle resume --store ./store``
    Re-run the most recent suite recorded in the store, resuming from
    its completed stage artifacts.
``repro-oracle serve --workers 4 --capacity 32 --clients 8``
    Drive the concurrent :class:`~repro.service.service.TuningService`
    with a generated multi-session workload — over a synthetic corpus by
    default, or over a stored suite's corpus and exported model with
    ``--store`` — and report throughput, latency, coalescing and
    engine-cache counters.  ``--adaptive`` attaches an
    :class:`~repro.adaptive.controller.AdaptiveController` (telemetry,
    drift detection, background retraining, hot model reload).
``repro-oracle stream --family growing_rmat --epochs 12``
    Drive an evolving matrix through the streaming mutation path:
    :class:`~repro.service.service.Session` update requests advance the
    epoch, the engine maintains statistics incrementally and carries
    format decisions forward, and every served result is verified
    bitwise against a from-scratch engine on the compacted matrix.
``repro-oracle adapt --system cirrus --backend cuda --requests 160``
    End-to-end adaptive-loop demonstration: train an initial model on a
    banded corpus, serve a workload that drifts to scale-free matrices,
    watch the drift monitor trigger a retrain, and report how much the
    promoted model lowers the mispredict rate on the drifted segment.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.backends import make_space
from repro.core import (
    RandomForestTuner,
    RunFirstTuner,
    build_dataset,
    extract_features,
    save_model,
    tune_multiply,
)
from repro.core.features import FEATURE_NAMES
from repro.core.pipeline import SMALL_RF_GRID
from repro.datasets import MatrixCollection, read_matrix_market
from repro.experiments.stages import run_profile_stage, train_model
from repro.formats import DynamicMatrix
from repro.formats.base import FORMAT_IDS
from repro.machine.systems import SYSTEMS

__all__ = ["main"]


def _add_target_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p.add_argument(
        "--backend", required=True, choices=["serial", "openmp", "cuda", "hip"]
    )


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-n", "--n-matrices", type=int, default=300,
        help="corpus size (paper: 2200)",
    )
    p.add_argument("--seed", type=int, default=42)


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for matrix generation during profiling",
    )


def cmd_systems(_args: argparse.Namespace) -> int:
    print(f"{'system':<10}{'backends':<24}devices")
    print("-" * 70)
    for name in sorted(SYSTEMS):
        system = SYSTEMS[name]
        devices = ", ".join(
            sorted({d.name for d in system.devices.values()})
        )
        print(f"{name:<10}{', '.join(system.backends):<24}{devices}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    space = make_space(args.system, args.backend)
    collection = MatrixCollection(n_matrices=args.n_matrices, seed=args.seed)
    profiling = run_profile_stage(collection, [space], jobs=args.jobs)
    dist = profiling.format_distribution(space.name)
    print(f"optimal-format distribution on {space.name} "
          f"({args.n_matrices} matrices):")
    for fmt in FORMAT_IDS:
        print(f"  {fmt:<5} {100 * dist[fmt]:6.1f}%")
    speedups = profiling.speedup_vs_csr(space.name)
    if speedups.size:
        print(f"optimal-vs-CSR speedup (non-CSR optima): "
              f"mean {speedups.mean():.2f}x, max {speedups.max():.1f}x")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    space = make_space(args.system, args.backend)
    collection = MatrixCollection(n_matrices=args.n_matrices, seed=args.seed)
    profiling = run_profile_stage(collection, [space], jobs=args.jobs)
    train, test = collection.train_test_split()
    Xtr, ytr = build_dataset(collection, train, profiling, space.name)
    Xte, yte = build_dataset(collection, test, profiling, space.name)
    tm = train_model(
        Xtr, ytr, Xte, yte,
        algorithm=args.algorithm,
        grid=SMALL_RF_GRID if args.algorithm == "random_forest" else None,
        system=args.system, backend=args.backend,
    )
    save_model(args.output, tm.oracle_model)
    print(f"model written to {args.output}")
    print(f"test accuracy          {100 * tm.test_scores['tuned_accuracy']:.2f}%")
    print(f"test balanced accuracy "
          f"{100 * tm.test_scores['tuned_balanced_accuracy']:.2f}%")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    vec = extract_features(matrix)
    for name, value in zip(FEATURE_NAMES, vec):
        print(f"{name:<8} {value:g}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    tuner = RandomForestTuner(args.model)
    system = tuner.model.system or "cirrus"
    backend = tuner.model.backend or "serial"
    space = make_space(system, backend)
    report = tuner.tune(DynamicMatrix(matrix), space)
    print(f"predicted optimal format: {report.format_name} "
          f"(id {report.format_id}) for {space.name}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    tuner = RandomForestTuner(args.model)
    system = tuner.model.system or "cirrus"
    backend = tuner.model.backend or "serial"
    space = make_space(system, backend)
    dyn = DynamicMatrix(matrix)
    result = tune_multiply(
        dyn, tuner, space, np.ones(dyn.ncols), repetitions=args.repetitions
    )
    print(f"target               {space.name} ({space.device.name})")
    print(f"selected format      {result.report.format_name}")
    print(f"tuning cost          "
          f"{result.tuning_cost_csr_equivalents:.1f} CSR-SpMV equivalents")
    print(f"speedup vs CSR       {result.speedup_vs_csr:.2f}x "
          f"over {result.repetitions} SpMVs")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    import time

    space = make_space(args.system, args.backend)
    collection = MatrixCollection(n_matrices=args.n_matrices, seed=args.seed)
    specs = collection.specs
    tuner = RandomForestTuner(args.model) if args.model else RunFirstTuner()
    engine = space.engine(tuner=tuner)
    rng = np.random.default_rng(args.seed)
    matrices: dict = {}
    t0 = time.perf_counter()
    for _ in range(args.requests):
        spec = specs[int(rng.integers(0, len(specs)))]
        if spec.name not in matrices:
            matrices[spec.name] = DynamicMatrix(collection.generate(spec))
        dyn = matrices[spec.name]
        engine.execute(dyn, rng.standard_normal(dyn.ncols), key=spec.name)
    wall = time.perf_counter() - t0
    report = engine.stats()
    counters = report["counters"]
    seconds = report["seconds"]
    decisions = counters["decision_misses"]
    naive_tuning = (
        seconds["tuning"] * (args.requests / decisions) if decisions else 0.0
    )
    print(f"served               {report['requests_served']} requests over "
          f"{report['unique_matrices']} matrices on {space.name}")
    print(f"decision cache       {counters['decision_hits']} hits / "
          f"{decisions} misses "
          f"(hit rate {100 * report['hit_rate']:.1f}% overall)")
    print(f"modelled SpMV time   {seconds['spmv']:.6f} s")
    print(f"tuning overhead      {seconds['tuning']:.6f} s amortised "
          f"(vs {naive_tuning:.6f} s re-tuning every request)")
    print(f"conversion overhead  {seconds['conversion']:.6f} s")
    print(f"wall-clock           {wall:.3f} s")
    return 0


def _serve_service(args: argparse.Namespace, tier: str, **kwargs):
    """The service a serve drives on *tier*: a stored suite's exported
    model with ``--store``, else ``--system``/``--backend`` with
    ``--model`` (default: the run-first tuner)."""
    from repro.service import service_class, service_for_suite

    if args.store:
        return service_for_suite(
            args.store, fingerprint=args.fingerprint, tier=tier, **kwargs
        )
    tuner = RandomForestTuner(args.model) if args.model else RunFirstTuner()
    return service_class(tier)(
        make_space(args.system, args.backend), tuner, **kwargs
    )


def _adaptive_controller(service, registry, **kwargs):
    """A background adaptive loop over *service* for :func:`_drive` to
    attach; its model registry is a temp dir unless *registry* names one."""
    import tempfile

    from repro.adaptive import AdaptiveController, ModelRegistry

    return AdaptiveController(
        service,
        ModelRegistry(registry or tempfile.mkdtemp(prefix="repro-registry-")),
        background=True,
        **kwargs,
    )


def _drive(args: argparse.Namespace, service, *traces, controller=None,
           **replay_kwargs):
    """Replay *traces* in order on *service*, under ``with service``.

    An adaptive *controller* is attached before the first replay, and a
    metrics spiller runs throughout when ``args.metrics_dir`` is set.
    Both shut down while the service is still up: the controller closes
    (joining any retrain in flight), then the spiller makes its final
    flush.  Returns one replay report per trace.
    """
    from repro.trace import replay_trace

    spiller = None
    metrics_dir = getattr(args, "metrics_dir", None)
    with service:
        if metrics_dir:
            from repro.obs.spill import MetricsSpiller

            spiller = MetricsSpiller(
                metrics_dir,
                service.obs,
                interval=args.metrics_interval,
                retention_bytes=args.metrics_retention_bytes,
                retention_segments=args.metrics_retention_segments,
            ).start()
        if controller is not None:
            controller.attach()
        reports = [
            replay_trace(service, trace, **replay_kwargs) for trace in traces
        ]
        if controller is not None:
            controller.close()
        if spiller is not None:
            spiller.stop()
    return reports


def _print_adaptive(controller) -> None:
    cstats = controller.stats()
    telemetry = cstats["telemetry"]
    print(f"adaptive             {cstats['drift_events']} drift events, "
          f"{cstats['retrainer']['retrains']} retrains, "
          f"{cstats['promotions']} promotions "
          f"({telemetry['recorded']} telemetry records, "
          f"{telemetry['shadowed']} shadow-probed)")


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.trace import replay_trace, workload_trace

    if args.kill_after and not args.distributed:
        print("serve: --kill-after requires --distributed",
              file=sys.stderr)
        return 2
    if args.storage_dir and args.distributed:
        print("serve: --storage-dir applies to the in-process tier "
              "(workers own per-process engines)", file=sys.stderr)
        return 2
    if not (args.store or (args.system and args.backend)):
        print("serve: --system and --backend are required without "
              "--store", file=sys.stderr)
        return 2
    service_kwargs = dict(
        workers=args.workers,
        capacity=args.capacity,
        shards=args.shards,
        max_batch=args.max_batch,
        # the adaptive loop needs shadow timings
        shadow_every=args.shadow_every or (4 if args.adaptive else 0),
    )
    # the reference replay for --verify-identity runs without the disk
    # tier or a streaming override: identical results prove
    # demote/promote/streaming change nothing about the math
    tier_kwargs = {}
    if args.storage_dir:
        tier_kwargs.update(
            storage_dir=args.storage_dir,
            storage_capacity_bytes=args.storage_capacity_bytes,
        )
    stream_threshold = args.stream_threshold_bytes
    if stream_threshold is not None and not args.distributed:
        # 0 streams every mmap-backed CSR; negative disables streaming
        tier_kwargs["stream_threshold_bytes"] = (
            None if stream_threshold < 0 else stream_threshold
        )
    trace_kwargs = {}
    if args.store:
        from repro.experiments.store import ArtifactStore

        spec = ArtifactStore(args.store).load_spec(args.fingerprint)
        trace_kwargs = dict(
            collection=spec.corpus.build(), source=f"suite:{spec.name}"
        )
    # --kill-after is the trace's kill event, injected by the replay
    trace = workload_trace(
        args.n_matrices,
        args.requests,
        seed=args.seed,
        sessions=args.clients,
        kill_at=args.kill_after,
        **trace_kwargs,
    )
    tier = "distributed" if args.distributed else "inproc"
    service = _serve_service(args, tier, **service_kwargs, **tier_kwargs)
    if args.store:
        print(f"replaying suite      {spec.name} "
              f"(fingerprint {spec.fingerprint})")
    controller = None
    if args.adaptive:
        controller = _adaptive_controller(
            service, args.registry, check_every=args.check_every
        )
    (report,) = _drive(args, service, trace, controller=controller)
    stats = report.service_stats
    cache = stats["engine_cache"]
    engines = stats["engines"]
    latency = stats["latency"]
    coalesced = stats["coalesced_requests"]
    mean_batch = (
        coalesced / stats["coalesced_batches"]
        if stats["coalesced_batches"]
        else 1.0
    )
    print(f"served               {stats['requests_served']} requests from "
          f"{args.clients} clients over {len(trace.matrix_keys())} matrices "
          f"on {stats['space']}")
    print(f"workers / capacity   {stats['workers']} workers, "
          f"{cache['capacity']} engines across {cache['shards']} shards")
    print(f"throughput           {report.throughput_rps:.0f} requests/s "
          f"({report.wall_seconds:.3f} s wall)")
    print(f"latency              mean {1e3 * latency['mean_seconds']:.2f} ms, "
          f"max {1e3 * latency['max_seconds']:.2f} ms")
    print(f"coalescing           {stats['coalesced_batches']} batched kernel "
          f"calls covering {coalesced} requests "
          f"(mean batch {mean_batch:.1f})")
    print(f"engine cache         {cache['hits']} hits / {cache['misses']} "
          f"misses, {cache['evictions']} evictions "
          f"({cache['size']}/{cache['capacity']} live)")
    print(f"modelled seconds     spmv {engines['seconds']['spmv']:.6f}, "
          f"tuning {engines['seconds']['tuning']:.6f}, "
          f"conversion {engines['seconds']['conversion']:.6f}")
    backends = stats.get("backends", {})
    if backends:
        parts = ", ".join(
            f"{kb} {v['requests']} requests "
            f"({v['seconds']:.6f} s)"
            for kb, v in sorted(backends.items())
        )
        print(f"kernel tier          {parts}")
    inv = stats["invalidations"]
    print(f"invalidations        epoch advances {inv['epoch_advances']}, "
          f"carried forward {inv['carried_forward']}, "
          f"forced re-tunes {inv['forced_retunes']}")
    storage = stats.get("storage")
    if storage is not None:
        streaming = engines.get("streaming", {})
        print(f"storage tier         {storage['demotions']} demotions / "
              f"{storage['promotions']} promotions "
              f"({storage['promote_misses']} misses, "
              f"{storage['tier_evictions']} tier evictions), "
              f"{storage['entries']} entries, "
              f"{storage['resident_bytes']} B resident")
        print(f"streaming            {streaming.get('requests', 0)} requests "
              f"over {streaming.get('blocks', 0)} row blocks "
              f"({streaming.get('seconds', 0.0):.6f} s)")
    model = service.stats()["model"]  # re-read: a late promotion counts
    promoted_at = model.get("promoted_at")
    when = (
        time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(promoted_at))
        if promoted_at
        else "never"
    )
    print(f"model                {model['version']} "
          f"(source {model['source'] or '-'}, "
          f"promotions {model['promotions']}, promoted {when})")
    if args.metrics_dir:
        obs_block = stats.get("observability", {})
        print(f"observability        spilled to {args.metrics_dir} "
              f"({obs_block.get('spans_recorded', 0)} spans, "
              f"{obs_block.get('spans_dropped', 0)} dropped); "
              f"inspect with 'repro top {args.metrics_dir} --once'")
    if controller is not None:
        _print_adaptive(controller)
    if args.distributed:
        dist = stats["distributed"]
        sup = dist["supervisor"]
        lost = report.lost
        print(f"distributed          {sup['workers']} worker processes, "
              f"{dist['fingerprints']} routed fingerprints, "
              f"shm pool {dist['shm']['slots']}x"
              f"{dist['shm']['slot_bytes']} B "
              f"({dist['shm']['overflows']} overflows)")
        if report.kills_injected:
            print(f"kill drill           {report.kills_injected} worker "
                  f"SIGKILLed after {args.kill_after} submitted requests")
        print(f"worker respawns      {sup['respawns']} "
              f"({dist['retried_requests']} requests retried, "
              f"{lost} lost)")
        if report.kills_injected and lost == 0:
            print("kill recovery        OK: every request on the killed "
                  "shard was replayed and served")
    if report.lost:
        print(f"serve: {report.lost} requests failed or never completed",
              file=sys.stderr)
        return 1
    if args.verify_identity:
        # the reference is a storage-free single-process service:
        # identical results prove sharding and tiering change no math
        reference = (
            "single-process service" if args.distributed
            else "in-RAM reference service"
        )
        with _serve_service(args, "inproc", **service_kwargs) as single:
            reference_report = replay_trace(single, trace)
        # records pair up by seq; one missing from either side differs
        got = {r["seq"]: r.get("y_digest") for r in report.records}
        want = {r["seq"]: r.get("y_digest") for r in reference_report.records}
        mismatches = sum(
            got.get(seq) is None or got.get(seq) != want.get(seq)
            for seq in got.keys() | want.keys()
        )
        if mismatches:
            print(f"bitwise identity     FAILED: {mismatches} of "
                  f"{report.requests} results differ from the "
                  f"{reference}", file=sys.stderr)
            return 1
        print(f"bitwise identity     OK: {report.requests} "
              f"results identical to the {reference}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Serve an evolving matrix through the streaming mutation path."""
    from repro.datasets.evolving import generate_evolving
    from repro.formats import convert
    from repro.runtime.engine import WorkloadEngine
    from repro.runtime.epoch import RedecisionPolicy
    from repro.service import TuningService

    space = make_space(args.system, args.backend)
    workload = generate_evolving(
        args.family, epochs=args.epochs, seed=args.seed
    )
    mats = workload.compacted()
    policy = RedecisionPolicy(threshold=args.threshold)
    key = workload.name
    matrix = DynamicMatrix(workload.initial)
    rng = np.random.default_rng(args.seed)
    service = TuningService(
        space, RunFirstTuner(), workers=args.workers, redecision=policy
    )
    verified = mismatched = epoch_mismatches = 0
    epochs_reached = 0
    updates = []
    with service:
        session = service.session("stream")
        for epoch in range(workload.epochs + 1):
            if epoch > 0:
                upd = session.update(
                    matrix, workload.deltas[epoch - 1], key=key
                )
                updates.append(upd)
                epochs_reached = upd.epoch
            fresh = references = None
            for _ in range(args.requests_per_epoch):
                x = rng.standard_normal(mats[epoch].ncols)
                res = session.spmv(matrix, x, key=key)
                if res.epoch != epoch:
                    epoch_mismatches += 1
                    continue
                if not args.no_verify:
                    # one reference engine per epoch: all its requests
                    # verify against the same converted container
                    if fresh is None:
                        fresh = WorkloadEngine(space)
                        references = {}
                    if res.format not in references:
                        references[res.format] = convert(
                            mats[epoch], res.format
                        )
                    ref = fresh.execute(
                        references[res.format], x, key=res.format
                    )
                    if np.array_equal(res.y, ref.y):
                        verified += 1
                    else:
                        mismatched += 1
    stats = service.stats()
    inv = stats["invalidations"]
    carried = sum(1 for u in updates if u.carried_forward)
    retuned = sum(1 for u in updates if u.retuned)
    total_checks = verified + mismatched
    print(f"stream               {workload.name}: {workload.epochs} epochs, "
          f"{args.requests_per_epoch} requests/epoch on {space.name}")
    print(f"epochs               {epochs_reached} advanced "
          f"(nnz {mats[0].nnz} -> {mats[-1].nnz})")
    print(f"decisions            {carried} carried forward, {retuned} forced "
          f"re-tunes (drift threshold {policy.threshold})")
    print(f"invalidations        epoch_advances={inv['epoch_advances']} "
          f"carried_forward={inv['carried_forward']} "
          f"forced_retunes={inv['forced_retunes']}")
    if args.no_verify:
        print("identity             skipped (--no-verify)")
    elif mismatched:
        print(f"identity             MISMATCH: {mismatched}/{total_checks} "
              f"results differ from a from-scratch engine")
    else:
        print(f"identity             {verified}/{total_checks} results "
              f"bitwise-identical to a from-scratch engine")
    failed = False
    if epoch_mismatches:
        print(f"stream: {epoch_mismatches} results stamped with an "
              f"unexpected epoch", file=sys.stderr)
        failed = True
    if epochs_reached != workload.epochs:
        print(f"stream: expected epoch {workload.epochs}, reached "
              f"{epochs_reached}", file=sys.stderr)
        failed = True
    return 1 if (failed or mismatched) else 0


def cmd_record(args: argparse.Namespace) -> int:
    """Capture a seeded live workload into a replayable trace directory."""
    from repro.service import service_class
    from repro.trace import record_workload

    distributed = args.service == "distributed"
    if not distributed and (args.kill_at or args.kill_with_update):
        print("record: kill drills need --service distributed",
              file=sys.stderr)
        return 2
    service = service_class(args.service)(
        make_space(args.system, args.backend),
        RunFirstTuner(),
        workers=args.workers or (4 if distributed else 2),
    )
    with service:
        trace = record_workload(
            service,
            args.out,
            name=args.name,
            requests=args.requests,
            sessions=args.sessions,
            n_matrices=args.n_matrices,
            seed=args.seed,
            family=args.family,
            updates=args.updates,
            spmm_every=args.spmm_every,
            promote_at=args.promote_at,
            kill_at=args.kill_at,
            kill_with_update=args.kill_with_update,
            compact=args.compact,
        )
    counts = trace.counts
    print(f"recorded             {counts['requests']} requests, "
          f"{counts['updates']} updates from "
          f"{len(trace.header.get('sessions', []))} sessions")
    print(f"events               {counts['events']} "
          f"({counts['kills']} kills, {counts['promotions']} promotions)")
    print(f"matrices             {len(trace.matrix_keys())} over "
          f"{trace.space.get('system')}/{trace.space.get('backend')} "
          f"({trace.header.get('service', {}).get('kind')} tier)")
    print(f"trace                {trace.path} "
          f"(fingerprint {trace.fingerprint})")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Deterministically re-drive a recorded trace; verify bitwise."""
    import json

    from repro.trace import load_trace, service_for_trace, validate_trace

    problems = validate_trace(args.trace)
    if problems:
        for problem in problems:
            print(f"replay: {args.trace}: {problem}", file=sys.stderr)
        return 2
    trace = load_trace(args.trace)
    counts = trace.counts
    print(f"trace                {trace.name} "
          f"(fingerprint {trace.fingerprint})")
    print(f"events               {counts['events']} "
          f"({counts['requests']} requests, {counts['updates']} updates, "
          f"{counts['kills']} kills, {counts['promotions']} promotions)")

    adaptive = args.service == "adaptive"
    service = service_for_trace(
        trace,
        "inproc" if adaptive else args.service,
        workers=args.workers,
        # the adaptive loop needs shadow timings
        shadow_every=4 if adaptive else 0,
    )
    controller = (
        _adaptive_controller(service, args.registry) if adaptive else None
    )
    print(f"service              {args.service}, "
          f"{service.workers} workers on "
          f"{trace.space.get('system')}/{trace.space.get('backend')}")
    print(f"speed                {args.speed}")
    (report,) = _drive(
        args,
        service,
        trace,
        controller=controller,
        speed=args.speed,
        verify=not args.no_verify,
    )
    print(f"replayed             {report.requests} requests, "
          f"{report.updates} updates in {report.wall_seconds:.2f}s "
          f"({report.throughput_rps:.1f} rps)")
    if report.kills_injected or report.kills_skipped:
        print(f"kills                {report.kills_injected} injected, "
              f"{report.kills_skipped} skipped (tier has no kill hook)")
    if report.promotions_applied or report.promotions_skipped:
        print(f"promotions           {report.promotions_applied} re-stamped")
    print(f"latency              {report.mean_latency_seconds * 1e3:.3f}ms "
          f"mean vs {report.recorded_mean_latency_seconds * 1e3:.3f}ms "
          f"recorded")
    if controller is not None:
        _print_adaptive(controller)
    if args.no_verify:
        print("verification         skipped (--no-verify)")
    elif report.mismatches or report.lost:
        print(f"verification         MISMATCH: "
              f"{len(report.mismatches)} fields differ, "
              f"{report.lost} requests lost")
        for mismatch in report.mismatches[:10]:
            print(f"  seq {mismatch['seq']} {mismatch['key']} "
                  f"{mismatch['field']}: recorded {mismatch['recorded']!r} "
                  f"!= replayed {mismatch['replayed']!r}", file=sys.stderr)
    else:
        print(f"verification         {report.verified}/{report.verified} "
              f"bitwise-identical, {report.lost} lost")
    print(f"results digest       {report.results_digest}")
    if args.bench_out:
        payload = {
            "benchmark": "replay",
            "config": {
                "trace": str(args.trace),
                "service": args.service,
                "speed": args.speed,
                "workers": service.workers,
            },
            "metrics": report.to_dict(),
        }
        with open(args.bench_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench                wrote {args.bench_out}")
    ok = args.no_verify or report.ok
    print(f"replay               {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_adapt(args: argparse.Namespace) -> int:
    """End-to-end adaptive loop over a synthetic drifting workload."""
    import tempfile

    from repro.adaptive import (
        AdaptiveController,
        DriftMonitor,
        ModelRegistry,
        Retrainer,
        bootstrap,
        drifting_trace,
        mispredict_rate,
    )
    from repro.core.tuners.ml import RandomForestTuner
    from repro.service import TuningService

    space = make_space(args.system, args.backend)
    boot = bootstrap(
        args.system,
        args.backend,
        n_matrices=args.train_matrices,
        seed=args.seed,
    )
    scenario = drifting_trace(
        n_matrices=args.n_matrices, requests=args.requests, seed=args.seed + 1
    )
    frozen_mis = mispredict_rate(boot.model, scenario.after_matrices, space)

    registry = ModelRegistry(
        args.registry or tempfile.mkdtemp(prefix="repro-registry-")
    )
    initial = registry.publish(
        boot.model, metadata={"source": boot.baseline.source}
    )
    registry.promote(initial)
    service = TuningService(
        space, workers=args.workers, shadow_every=args.shadow_every
    )
    service.promote_model(
        RandomForestTuner(registry.load()),
        version=initial,
        source=boot.baseline.source,
        algorithm="random_forest",
    )
    controller = AdaptiveController(
        service,
        registry,
        monitor=DriftMonitor(
            boot.baseline, window=64, min_observations=24, min_shadowed=6
        ),
        retrainer=Retrainer(system=args.system, backend=args.backend),
        baseline_dataset=boot.dataset,
        check_every=args.check_every,
        background=False,
        source=boot.baseline.source,
    )
    # serve the pre-drift phase once, then the drifted phase in waves —
    # sustained drifted traffic lets the loop probe the whole population,
    # retrain, and confirm the fix instead of adapting from one snapshot
    before = scenario.phase_trace("before", args.clients)
    after = scenario.phase_trace("after", args.clients)
    _drive(args, service, before, *[after] * args.waves, controller=controller)
    stats = controller.stats()

    print(f"bootstrap            {initial} trained on "
          f"{args.train_matrices} banded-mix matrices "
          f"(test accuracy {100 * boot.test_scores['tuned_accuracy']:.1f}%)")
    requests_served = service.stats()["requests_served"]
    print(f"workload             {requests_served} requests over "
          f"2x{args.n_matrices} matrices on {space.name}, population "
          f"shift at request {scenario.shift_index} "
          f"({args.waves} drifted waves)")
    print(f"telemetry            {stats['telemetry']['recorded']} records, "
          f"{stats['telemetry']['shadowed']} shadow-probed, "
          f"{stats['telemetry']['mispredicts']} mispredicts observed")
    print(f"drift                "
          f"{stats['last_trigger'] or stats['last_drift'] or 'no check ran'}")
    print(f"retrain              {stats['retrainer']['retrains']} retrains "
          f"({stats['retrain_failures']} failures), "
          f"{controller.promotions} promotions")
    if controller.promotions == 0:
        print("adaptive loop never promoted a model; nothing to compare",
              file=sys.stderr)
        return 1
    adapted = registry.load()
    adapted_mis = mispredict_rate(adapted, scenario.after_matrices, space)
    version = registry.current()
    reduction = (
        100.0 * (frozen_mis - adapted_mis) / frozen_mis if frozen_mis else 0.0
    )
    print(f"promoted             {version} "
          f"(registry {registry.stats()['versions']} versions, "
          f"current {version})")
    print(f"mispredict rate      frozen {100 * frozen_mis:.1f}% -> "
          f"adaptive {100 * adapted_mis:.1f}% on the drifted segment "
          f"({reduction:.1f}% lower)")
    return 0


def _run_experiment(spec, store, jobs: int, until: str | None) -> int:
    from repro.experiments import ExperimentOrchestrator

    orchestrator = ExperimentOrchestrator(spec, store, jobs=jobs)
    result = orchestrator.run(until=until)
    print(f"experiment           {spec.name} "
          f"(fingerprint {spec.fingerprint})")
    print(f"corpus               {spec.corpus.n_matrices} matrices, "
          f"seed {spec.corpus.seed}")
    print(f"targets              {', '.join(spec.space_names)}")
    for outcome in result.outcomes:
        source = "store" if outcome.cached else "computed"
        print(f"  {outcome.stage:<10} {source:<9} {outcome.seconds:8.3f} s "
              f"[{outcome.key}]")
    gen = orchestrator.collection.stats_computed
    print(f"matrices generated   {gen}")
    if result.model_paths:
        print(f"models exported      {len(result.model_paths)} -> "
              f"{orchestrator.model_dir}")
    if result.report is not None:
        for row in result.report["models"]:
            acc = 100 * row["test_scores"]["tuned_accuracy"]
            print(f"  {row['space']:<18} {row['algorithm']:<16} "
                  f"tuned accuracy {acc:6.2f}%")
    print(f"stages served from the artifact store: "
          f"{result.cached_stages}/{result.total_stages}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Expose a serve's spilled metrics: Prometheus text or JSONL.

    Both formats render the *same* snapshot records (the last line of
    ``metrics.jsonl``), so their values are identical by construction —
    the invariant ``tests/obs`` locks.
    """
    import json as _json

    from repro.obs.dashboard import read_snapshots
    from repro.obs.metrics import render_prometheus

    snap = read_snapshots(args.directory, last=1)
    if not snap["metrics"]:
        print(f"metrics: no metrics.jsonl under {args.directory} "
              "(run serve with --metrics-dir)", file=sys.stderr)
        return 2
    line = snap["metrics"][-1]
    if args.format == "json":
        print(_json.dumps(line, separators=(",", ":"), default=str))
    else:
        sys.stdout.write(render_prometheus(line["metrics"]))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a serve's ``--metrics-dir`` spill directory."""
    from repro.obs.dashboard import run_top

    run_top(
        args.directory,
        interval=args.interval,
        iterations=1 if args.once else args.iterations,
    )
    return 0


def cmd_storage(args: argparse.Namespace) -> int:
    """Inspect a serve's ``--storage-dir`` disk tier."""
    import time

    from repro.storage.tier import StorageTier

    tier = StorageTier(args.directory)
    stats = tier.stats()
    entries = tier.entries()
    print(f"storage tier         {stats['directory']}")
    print(f"entries              {stats['entries']} "
          f"({stats['resident_bytes']} B resident"
          + (f", capacity {stats['capacity_bytes']} B"
             if stats["capacity_bytes"] else "")
          + ")")
    if stats["formats"]:
        print(f"formats              {', '.join(stats['formats'])}")
    if entries:
        now = time.time()
        print(f"{'key':<34}{'format':<7}{'shape':<18}{'nnz':>10}"
              f"{'bytes':>12}{'epoch':>7}{'age':>9}")
        for entry in entries:
            key = entry.key if len(entry.key) <= 32 else entry.key[:29] + "..."
            age = max(0.0, now - entry.stored_at)
            print(f"{key:<34}{entry.format:<7}"
                  f"{f'{entry.nrows}x{entry.ncols}':<18}{entry.nnz:>10}"
                  f"{entry.nbytes:>12}{entry.epoch:>7}{age:>8.0f}s")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ArtifactStore, ExperimentSpec

    spec = ExperimentSpec.load(args.spec)
    store = ArtifactStore(args.store)
    return _run_experiment(spec, store, args.jobs, args.until)


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.experiments import ArtifactStore

    store = ArtifactStore(args.store)
    spec = store.load_spec(args.fingerprint)
    return _run_experiment(spec, store, args.jobs, None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-oracle",
        description="Morpheus-Oracle reproduction: sparse-format auto-tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list simulated systems").set_defaults(
        func=cmd_systems
    )

    p = sub.add_parser("profile", help="optimal-format distribution")
    _add_target_args(p)
    _add_corpus_args(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train + tune a model (offline stage)")
    _add_target_args(p)
    _add_corpus_args(p)
    _add_jobs_arg(p)
    p.add_argument("-o", "--output", required=True, help="model file path")
    p.add_argument(
        "--algorithm", default="random_forest",
        choices=["random_forest", "decision_tree"],
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("features", help="Table-I features of a .mtx file")
    p.add_argument("matrix", help="Matrix Market file")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("predict", help="predict the optimal format")
    p.add_argument("--model", required=True, help="Oracle model file")
    p.add_argument("matrix", help="Matrix Market file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="TuneMultiply report for a .mtx file")
    p.add_argument("--model", required=True, help="Oracle model file")
    p.add_argument("--repetitions", type=int, default=1000)
    p.add_argument("matrix", help="Matrix Market file")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "batch", help="serve a batched workload through the runtime engine"
    )
    _add_target_args(p)
    p.add_argument(
        "-n", "--n-matrices", type=int, default=12,
        help="distinct matrices in the workload corpus",
    )
    p.add_argument(
        "--requests", type=int, default=60,
        help="SpMV requests to serve (matrices repeat)",
    )
    p.add_argument(
        "--model", default=None,
        help="Oracle model file (default: run-first tuner)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve", help="drive the concurrent tuning service with traffic"
    )
    p.add_argument("--system", default=None, choices=sorted(SYSTEMS))
    p.add_argument(
        "--backend", default=None,
        choices=["serial", "openmp", "cuda", "hip"],
    )
    p.add_argument(
        "--store", default=None,
        help="replay a stored suite's corpus and exported model instead "
             "of a synthetic workload",
    )
    p.add_argument(
        "--fingerprint", default=None,
        help="suite fingerprint inside --store (default: latest)",
    )
    p.add_argument(
        "--model", default=None,
        help="Oracle model file for the synthetic workload "
             "(default: run-first tuner)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="service threads (worker processes with --distributed); "
             "default: derived from the host's core count",
    )
    p.add_argument(
        "--distributed", action="store_true",
        help="serve through the multi-process tier: worker processes "
             "with per-process engine caches, vectors over shared memory",
    )
    p.add_argument(
        "--kill-after", type=int, default=0,
        help="recovery drill (with --distributed): the trace carries a "
             "kill event that SIGKILLs the worker owning its first matrix "
             "after N submitted requests",
    )
    p.add_argument(
        "--verify-identity", action="store_true",
        help="re-run the trace on a single-process service without a "
             "disk tier and require bitwise-identical results (exit 1 "
             "otherwise); checks a --distributed or --storage-dir serve",
    )
    p.add_argument(
        "--capacity", type=int, default=32,
        help="max live per-matrix engines before LRU eviction",
    )
    p.add_argument(
        "--shards", type=int, default=8,
        help="engine-cache lock shards (clamped to capacity)",
    )
    p.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests coalesced into one kernel call (1 = naive)",
    )
    p.add_argument(
        "--clients", type=int, default=8,
        help="client sessions (one submitter thread each) the generated "
        "trace round-robins across",
    )
    p.add_argument(
        "--requests", type=int, default=200,
        help="total requests across all clients",
    )
    p.add_argument(
        "-n", "--n-matrices", type=int, default=8,
        help="distinct matrices in the workload",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--adaptive", action="store_true",
        help="attach the adaptive loop (telemetry, drift detection, "
             "background retraining, hot model reload)",
    )
    p.add_argument(
        "--registry", default=None,
        help="model-registry directory for --adaptive (default: temp dir)",
    )
    p.add_argument(
        "--shadow-every", type=int, default=0,
        help="shadow-profile every Nth batch per matrix (0 = off; "
             "--adaptive defaults to 4)",
    )
    p.add_argument(
        "--check-every", type=int, default=32,
        help="drift-check cadence in observations (with --adaptive)",
    )
    p.add_argument(
        "--metrics-dir", default=None,
        help="spill metrics/spans/events to this directory while "
             "serving (metrics.prom, metrics.jsonl, spans.jsonl, "
             "events.jsonl; watch live with 'repro top DIR')",
    )
    p.add_argument(
        "--metrics-interval", type=float, default=0.5,
        help="spill cadence in seconds (with --metrics-dir)",
    )
    p.add_argument(
        "--metrics-retention-bytes", type=int, default=None,
        help="rotate each spilled jsonl file once it reaches this many "
             "bytes (default: unbounded)",
    )
    p.add_argument(
        "--metrics-retention-segments", type=int, default=4,
        help="rotated segments kept per jsonl file before the oldest "
             "is dropped (with --metrics-retention-bytes)",
    )
    p.add_argument(
        "--storage-dir", default=None,
        help="disk tier for evicted engines: converted containers "
             "demote here instead of being dropped, and promote back "
             "as mmap views (inspect with 'repro storage DIR')",
    )
    p.add_argument(
        "--storage-capacity-bytes", type=int, default=None,
        help="cap on resident tier bytes; oldest entries are evicted "
             "(default: unbounded)",
    )
    p.add_argument(
        "--stream-threshold-bytes", type=int, default=None,
        help="stream mmap-backed CSR containers at or above this size "
             "through row-block SpMV (0 = always stream, negative = "
             "never; default: 64 MiB)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "metrics",
        help="expose a serve's spilled metrics (Prometheus text or JSON)",
    )
    p.add_argument("directory", help="a serve's --metrics-dir directory")
    p.add_argument(
        "--format", default="prom", choices=["prom", "json"],
        help="exposition format; both render the same snapshot records",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "top",
        help="live dashboard over a serve's --metrics-dir spill directory",
    )
    p.add_argument("directory", help="a serve's --metrics-dir directory")
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh cadence in seconds",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (CI / scripting mode)",
    )
    p.add_argument(
        "--iterations", type=int, default=None,
        help="render N frames then exit (default: follow until Ctrl-C)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "storage",
        help="inspect a serve's --storage-dir disk tier",
    )
    p.add_argument("directory", help="a serve's --storage-dir directory")
    p.set_defaults(func=cmd_storage)

    p = sub.add_parser(
        "stream",
        help="serve an evolving matrix through the mutation path",
    )
    from repro.datasets.evolving import EVOLVING_FAMILIES

    p.add_argument(
        "--family", default="growing_rmat",
        choices=sorted(EVOLVING_FAMILIES),
        help="evolving-workload generator family",
    )
    p.add_argument("--system", default="cirrus", choices=sorted(SYSTEMS))
    p.add_argument(
        "--backend", default="serial",
        choices=["serial", "openmp", "cuda", "hip"],
    )
    p.add_argument(
        "--epochs", type=int, default=12,
        help="number of epoch advances (deltas) to stream",
    )
    p.add_argument(
        "--requests-per-epoch", type=int, default=3,
        help="SpMV requests served at each epoch",
    )
    p.add_argument(
        "--threshold", type=float, default=0.25,
        help="re-decision drift threshold (stat drift above it re-tunes)",
    )
    p.add_argument("--workers", type=int, default=2, help="service threads")
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the bitwise identity check against from-scratch engines",
    )
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "record",
        help="capture a seeded live workload into a replayable trace",
    )
    p.add_argument("--out", required=True, help="trace directory to write")
    p.add_argument("--name", default="trace", help="trace name (header)")
    p.add_argument(
        "--service", default="inproc", choices=["inproc", "distributed"],
        help="serving tier to record from",
    )
    p.add_argument("--system", default="cirrus", choices=sorted(SYSTEMS))
    p.add_argument(
        "--backend", default="serial",
        choices=["serial", "openmp", "cuda", "hip"],
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="service threads (worker processes with --service distributed)",
    )
    p.add_argument("--requests", type=int, default=32)
    p.add_argument(
        "--sessions", type=int, default=2,
        help="client sessions the requests round-robin across",
    )
    p.add_argument(
        "-n", "--n-matrices", type=int, default=4,
        help="distinct matrices in the workload corpus",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--family", default=None, choices=sorted(EVOLVING_FAMILIES),
        help="add one evolving matrix from this family to the corpus",
    )
    p.add_argument(
        "--updates", type=int, default=0,
        help="evolving-matrix update barriers to interleave (needs --family)",
    )
    p.add_argument(
        "--spmm-every", type=int, default=0,
        help="every Nth request is a 4-column block SpMM (0 = vectors only)",
    )
    p.add_argument(
        "--promote-at", type=int, default=0,
        help="promote a fresh model after N requests (recorded event)",
    )
    p.add_argument(
        "--kill-at", type=int, default=0,
        help="SIGKILL a worker after N requests (--service distributed)",
    )
    p.add_argument(
        "--kill-with-update", action="store_true",
        help="fire the kill immediately after an update barrier is "
             "submitted, so it lands mid-barrier (--service distributed)",
    )
    p.add_argument(
        "--compact", action="store_true",
        help="small fixed corpus (hundreds of rows) instead of sampled "
             "collection sizes — keeps the trace directory tiny",
    )
    p.set_defaults(func=cmd_record)

    p = sub.add_parser(
        "replay",
        help="deterministically re-drive a recorded trace, verify bitwise",
    )
    p.add_argument("--trace", required=True, help="trace directory to replay")
    p.add_argument(
        "--speed", default="max", choices=["1x", "10x", "100x", "max"],
        help="virtual-clock pacing of recorded arrival times",
    )
    p.add_argument(
        "--service", default="inproc",
        choices=["inproc", "distributed", "adaptive"],
        help="serving tier to replay against",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="service threads / worker processes (defaults per tier)",
    )
    p.add_argument(
        "--registry", default=None,
        help="model-registry directory for --service adaptive",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip bitwise verification against the recorded digests",
    )
    p.add_argument(
        "--bench-out", default="BENCH_replay.json",
        help="write the replay report here as JSON ('' = skip)",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "adapt",
        help="demonstrate the adaptive loop on a drifting workload",
    )
    p.add_argument("--system", default="cirrus", choices=sorted(SYSTEMS))
    p.add_argument(
        "--backend", default="cuda",
        choices=["serial", "openmp", "cuda", "hip"],
    )
    p.add_argument(
        "--train-matrices", type=int, default=24,
        help="bootstrap training-corpus size (banded family mix)",
    )
    p.add_argument(
        "-n", "--n-matrices", type=int, default=6,
        help="matrices per workload phase (before/after the shift)",
    )
    p.add_argument(
        "--requests", type=int, default=160,
        help="total requests; the population shifts halfway",
    )
    p.add_argument("--workers", type=int, default=4, help="service threads")
    p.add_argument(
        "--clients", type=int, default=4,
        help="client sessions (one submitter thread each) each phase "
        "trace round-robins across",
    )
    p.add_argument(
        "--shadow-every", type=int, default=2,
        help="shadow-profile every Nth batch per matrix",
    )
    p.add_argument(
        "--check-every", type=int, default=16,
        help="drift-check cadence in observations",
    )
    p.add_argument(
        "--waves", type=int, default=3,
        help="replays of the drifted phase (sustained drifted traffic)",
    )
    p.add_argument(
        "--registry", default=None,
        help="model-registry directory (default: temp dir)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser(
        "run", help="run a declarative scenario suite (resumable)"
    )
    p.add_argument("spec", help="experiment spec JSON file")
    p.add_argument(
        "--store", required=True,
        help="artifact-store directory (stage outputs, models, spec)",
    )
    _add_jobs_arg(p)
    p.add_argument(
        "--until", default=None,
        choices=["profile", "dataset", "train", "export", "evaluate"],
        help="stop after this stage (resume later with `resume`)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "resume", help="resume the suite recorded in an artifact store"
    )
    p.add_argument(
        "--store", required=True, help="artifact-store directory"
    )
    p.add_argument(
        "--fingerprint", default=None,
        help="spec fingerprint (default: the most recently run suite)",
    )
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_resume)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that closed early — the Unix
        # convention is a silent exit, not a traceback
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
