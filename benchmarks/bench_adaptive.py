"""Adaptive-loop benchmarks: drift recovery and hot-swap latency cost.

Acceptance properties of the adaptive subsystem (``repro.adaptive``):

* **Drift recovery** — after a synthetic corpus shift (banded /
  multi-diagonal population -> scale-free graphs), the closed loop
  (telemetry -> drift trigger -> retrain -> promote) produces a model
  whose mispredict rate on the drifted population is **>= 30% lower**
  than the frozen offline model's.  Ground truth is the deterministic
  cost model's per-format timings, the same signal the service's shadow
  probes measure.
* **Free hot swap** — the hot-reload machinery adds no measurable
  steady-state serving latency: with the adaptive loop attached (shadow
  probing on, telemetry observer installed, one model promotion
  mid-run), the post-promotion p50 request latency stays within 5% of a
  plain non-adaptive service on the same trace.  Latency is measured
  with a single closed-loop client over kernel-dominated requests
  (~1.4M-nnz matrices), because an open-loop multi-client replay on a
  small host measures GIL/scheduler interleaving chaos (±30% run to
  run) rather than the serving path; both sides take the best of five
  trials.

Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import (
    AdaptiveController,
    DriftMonitor,
    ModelRegistry,
    Retrainer,
    bootstrap,
    drifting_trace,
    mispredict_rate,
)
from repro.backends import make_space
from repro.core.tuners.ml import RandomForestTuner
from repro.service import TuningService
from repro.trace import replay_trace, spmv_trace

from benchmarks.conftest import write_result

SYSTEM, BACKEND = "cirrus", "cuda"
SEED = 42
CLIENTS = 4


def test_adaptive_loop_recovers_from_corpus_shift(tmp_path):
    """Acceptance: post-promotion mispredict >= 30% below the frozen model."""
    space = make_space(SYSTEM, BACKEND)
    boot = bootstrap(SYSTEM, BACKEND, n_matrices=24, seed=SEED)
    scenario = drifting_trace(n_matrices=6, requests=160, seed=SEED + 1)
    frozen_mis = mispredict_rate(boot.model, scenario.after_matrices, space)
    assert frozen_mis > 0.0, (
        "the frozen model already serves the drifted population optimally; "
        "the scenario families must be further apart"
    )

    registry = ModelRegistry(tmp_path / "registry")
    initial = registry.publish(
        boot.model, metadata={"source": boot.baseline.source}
    )
    registry.promote(initial)
    service = TuningService(space, workers=4, shadow_every=2)
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
        retrainer=Retrainer(system=SYSTEM, backend=BACKEND),
        baseline_dataset=boot.dataset,
        check_every=16,
        background=False,
        source=boot.baseline.source,
    )
    with service, controller:
        replay_trace(service, scenario.phase_trace("before", CLIENTS))
        post = scenario.phase_trace("after", CLIENTS)
        for _ in range(3):  # sustained drifted traffic: let the loop converge
            replay_trace(service, post)

    assert controller.drift_events >= 1, "drift was never detected"
    assert controller.promotions >= 1, "no retrained model was promoted"
    adapted_mis = mispredict_rate(registry.load(), scenario.after_matrices, space)
    reduction = (frozen_mis - adapted_mis) / frozen_mis

    lines = [
        f"adaptive drift recovery, {SYSTEM}/{BACKEND}, "
        f"banded -> scale-free shift over {len(scenario.after_names)} matrices",
        "-" * 66,
        f"{'frozen-model mispredict rate':<42} {100 * frozen_mis:8.1f} %",
        f"{'post-promotion mispredict rate':<42} {100 * adapted_mis:8.1f} %",
        f"{'reduction':<42} {100 * reduction:8.1f} %",
        f"{'drift events / retrains / promotions':<42} "
        f"{controller.drift_events:3d} / "
        f"{controller.retrainer.retrains:3d} / {controller.promotions:3d}",
        f"{'registry versions (current)':<42} "
        f"{len(registry.versions()):3d} ({registry.current()})",
        "",
    ]
    write_result("adaptive_drift_recovery.txt", "\n".join(lines))
    assert reduction >= 0.30, (
        f"adaptive loop only reduced the mispredict rate by "
        f"{100 * reduction:.1f}% ({100 * frozen_mis:.1f}% -> "
        f"{100 * adapted_mis:.1f}%); acceptance floor is 30%"
    )


def _steady_trace():
    """Kernel-dominated hot set: ~1.4-2.2M nnz per matrix, 160 requests."""
    from repro.datasets.generators import uniform_rows

    matrices = {
        f"hot-{i}": uniform_rows(60_000 + 10_000 * i, row_nnz=24, seed=i)
        for i in range(4)
    }
    rng = np.random.default_rng(SEED)
    names = list(matrices)
    keys = [names[int(rng.integers(0, 4))] for _ in range(160)]
    return spmv_trace(matrices, keys, seed=SEED).materialize()


def _serial_p50(service, trace) -> float:
    """p50 latency of one closed-loop client issuing blocking requests."""
    session = service.session()
    latencies = [
        session.spmv(
            trace.matrix(event["key"]),
            trace.operand(event),
            key=event["key"],
        ).latency_seconds
        for event in trace.events
    ]
    return float(np.median(latencies))


def test_hot_swap_adds_no_steady_state_latency(tmp_path):
    """Acceptance: adaptive serve p50 within 5% of non-adaptive serve."""
    trace = _steady_trace()
    space = make_space(SYSTEM, "serial")

    def plain_p50() -> float:
        with TuningService(space, workers=1) as service:
            _serial_p50(service, trace)  # identical warm-up pass
            return _serial_p50(service, trace)

    def adaptive_p50() -> float:
        registry = ModelRegistry(tmp_path / "latency-registry")
        with TuningService(space, workers=1, shadow_every=4) as service:
            controller = AdaptiveController(
                service, registry, check_every=64, background=True
            ).attach()
            # warm-up pass, then a hot swap: the steady state being
            # measured is *post-promotion* serving with the full
            # telemetry feed (observer + shadow probing) attached
            _serial_p50(service, trace)
            service.promote_model(None, version="v-swap", source="bench")
            p50 = _serial_p50(service, trace)
            controller.close()
            return p50

    # best of five on both sides: scheduler noise goes one way only
    plain = min(plain_p50() for _ in range(5))
    adaptive = min(adaptive_p50() for _ in range(5))
    overhead = adaptive / plain - 1.0

    lines = [
        f"hot-swap steady-state latency, {SYSTEM}/serial, "
        f"{len(trace)} kernel-dominated requests, closed-loop client",
        "-" * 66,
        f"{'non-adaptive p50 latency':<42} {1e3 * plain:8.3f} ms",
        f"{'adaptive (post-promotion) p50 latency':<42} "
        f"{1e3 * adaptive:8.3f} ms",
        f"{'overhead':<42} {100 * overhead:+8.1f} %",
        "",
    ]
    write_result("adaptive_hot_swap_latency.txt", "\n".join(lines))
    assert adaptive <= plain * 1.05, (
        f"adaptive p50 {1e3 * adaptive:.3f} ms exceeds the 5% band over "
        f"non-adaptive p50 {1e3 * plain:.3f} ms"
    )
