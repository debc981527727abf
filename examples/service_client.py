"""The online tuning service, driven through the ``Session`` client API.

End-to-end path from offline suite to online serving:

1. run the CI smoke scenario suite (``examples/specs/ci_smoke.json``)
   through the resumable orchestrator — it exports a trained Oracle
   model into the store's ``models/<fingerprint>/`` database;
2. start a :class:`~repro.service.TuningService` whose tuner is that
   exported model (loaded through the model database /
   ``core/model_io``), with a sharded engine cache and request
   coalescing;
3. open client :class:`~repro.service.Session` handles and serve a
   concurrent workload over the suite's own corpus, then drive a
   generated multi-session trace through ``replay_trace`` — concurrent
   requests against the same matrix coalesce into batched kernels;
4. print the service counters: throughput, coalesced batches, engine
   cache hits and evictions.

Run:  python examples/service_client.py
"""

from __future__ import annotations

import os
import tempfile
import threading

import numpy as np

from repro.experiments import ArtifactStore, ExperimentOrchestrator, ExperimentSpec
from repro.service import service_for_suite
from repro.trace import replay_trace, workload_trace

#: Spec of the offline suite whose exported model the service loads.
SPEC_PATH = os.path.join(
    os.path.dirname(__file__), "specs", "ci_smoke.json"
)

#: Online workload shape (kept small so the example runs in seconds).
CLIENTS = 4
REQUESTS = 80
HOT_MATRICES = 6
WORKERS = 4
CAPACITY = 4  # fewer than HOT_MATRICES on purpose: watch evictions


def train_suite(store: ArtifactStore) -> ExperimentSpec:
    """Offline stage: run the suite (resumable; a re-run is all cached)."""
    spec = ExperimentSpec.load(SPEC_PATH)
    result = ExperimentOrchestrator(spec, store).run()
    print(f"offline suite {spec.name}: "
          f"{result.cached_stages}/{result.total_stages} stages from store, "
          f"{len(result.model_paths)} model(s) exported")
    return spec


def serve_sessions(store: ArtifactStore) -> None:
    """Online stage: serve the suite's corpus with its exported model."""
    spec = store.load_spec()
    trace = workload_trace(
        HOT_MATRICES, REQUESTS, seed=7, sessions=CLIENTS,
        collection=spec.corpus.build(), source=f"suite:{spec.name}",
    )
    service = service_for_suite(
        store.root,
        workers=WORKERS,
        capacity=CAPACITY,
        shards=2,
        max_batch=16,
    )
    with service:
        # a) hand-rolled sessions: each client thread owns one Session
        #    and issues a few blocking SpMVs
        def client(c: int) -> None:
            session = service.session(name=f"client-{c}")
            gen = np.random.default_rng(c)
            names = trace.matrix_keys()
            for i in range(5):
                name = names[(c + i) % len(names)]
                matrix = trace.matrix(name)
                result = session.spmv(
                    matrix, gen.standard_normal(matrix.ncols), key=name
                )
                assert result.y.shape == (matrix.nrows,)
            print(f"  {session.name}: {session.requests} requests, "
                  f"mean latency {1e3 * session.mean_latency:.2f} ms")

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # b) the driver: each of the generated trace's sessions submits
        #    from its own thread, so same-matrix requests overlap and
        #    coalesce
        report = replay_trace(service, trace)
        stats = report.service_stats

    print(f"\nreplayed {report.requests} requests from {CLIENTS} "
          f"clients on {stats['space']}: {report.throughput_rps:.0f} req/s")
    print(f"  serving format decisions by {spec.algorithms[0]} model "
          f"(suite {spec.name})")
    print(f"  coalesced batches   {stats['coalesced_batches']} "
          f"(covering {stats['coalesced_requests']} requests)")
    cache = stats["engine_cache"]
    print(f"  engine cache        {cache['hits']} hits / {cache['misses']} "
          f"misses, {cache['evictions']} evictions "
          f"(capacity {cache['capacity']}, {cache['shards']} shards)")
    # the service counts the session demo too: 5 requests per client
    assert stats["requests_served"] == REQUESTS + 5 * CLIENTS
    assert report.ok and report.requests == REQUESTS
    print("OK")


def main() -> None:
    store = ArtifactStore(tempfile.mkdtemp(prefix="oracle-service-"))
    print(f"artifact store: {store.root}")
    train_suite(store)
    serve_sessions(store)


if __name__ == "__main__":
    main()
