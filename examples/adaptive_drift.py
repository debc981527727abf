"""The adaptive loop recovering from a workload shift, end to end.

A format-selection model is only as good as the traffic it was trained
on.  This example trains a model on a *banded* matrix population, serves
traffic that shifts to *scale-free* graph matrices halfway through, and
watches the adaptive loop close the gap:

1. **bootstrap** — train the initial model offline on a banded-mix
   corpus (the experiment pipeline's profile + train stages);
2. **serve** — drive a :class:`~repro.service.TuningService` (with
   telemetry + shadow probing) through a drifting trace: banded traffic
   first, then scale-free;
3. **adapt** — the :class:`~repro.adaptive.AdaptiveController` detects
   the drift (feature shift + shadow-measured mispredicts), retrains
   from the telemetry-augmented dataset on the fly, publishes the new
   model into a versioned :class:`~repro.adaptive.ModelRegistry` and
   hot-swaps it into the live service between batches;
4. **verify** — compare the frozen and adapted models' mispredict rate
   on the drifted population (ground truth: the deterministic cost
   model), and roll the promotion back to show the one-call undo.

Run:  python examples/adaptive_drift.py
"""

from __future__ import annotations

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
from repro.backends import make_space
from repro.core.tuners.ml import RandomForestTuner
from repro.service import TuningService
from repro.trace import replay_trace

SYSTEM, BACKEND = "cirrus", "cuda"
TRAIN_MATRICES = 20     # bootstrap corpus (banded family mix)
TRACE_MATRICES = 5      # matrices per workload phase
REQUESTS = 120          # total requests; the population shifts halfway
WAVES = 3               # replays of the drifted phase (sustained drift)
SEED = 42


def main() -> None:
    space = make_space(SYSTEM, BACKEND)

    # 1. offline bootstrap: model + dataset + baseline fingerprint
    boot = bootstrap(
        SYSTEM, BACKEND, n_matrices=TRAIN_MATRICES, seed=SEED
    )
    print(f"bootstrap: trained on {TRAIN_MATRICES} banded-mix matrices, "
          f"test accuracy {100 * boot.test_scores['tuned_accuracy']:.1f}%")

    # 2. a workload that shifts banded -> scale-free halfway through
    scenario = drifting_trace(
        n_matrices=TRACE_MATRICES, requests=REQUESTS, seed=SEED + 1
    )
    frozen_mis = mispredict_rate(boot.model, scenario.after_matrices, space)
    print(f"workload:  shift at request {scenario.shift_index}; frozen model "
          f"mispredicts {100 * frozen_mis:.1f}% of the drifted population")

    # 3. registry + service + controller: the closed loop
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-registry-"))
    v1 = registry.publish(boot.model, metadata={"source": boot.baseline.source})
    registry.promote(v1)
    service = TuningService(space, workers=4, shadow_every=2)
    service.promote_model(
        RandomForestTuner(registry.load()),
        version=v1,
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
        source=boot.baseline.source,
    )
    with service, controller:
        replay_trace(service, scenario.phase_trace("before", 4))
        post = scenario.phase_trace("after", 4)
        for wave in range(WAVES):
            replay_trace(service, post)
            print(f"wave {wave + 1}:    model {registry.current()}, "
                  f"{controller.promotions} promotions, "
                  f"{controller.telemetry.stats()['shadowed']} shadow probes")

    # 4. the loop must have fired and fixed the mispredictions
    assert controller.drift_events >= 1, "drift was never detected"
    assert controller.promotions >= 1, "no model was promoted"
    adapted_mis = mispredict_rate(
        registry.load(), scenario.after_matrices, space
    )
    print(f"drift:     {controller.stats()['last_trigger']}")
    print(f"adapted:   mispredict {100 * frozen_mis:.1f}% -> "
          f"{100 * adapted_mis:.1f}% on the drifted population")
    assert adapted_mis <= frozen_mis

    # rollback is one call: registry pointer + live service together
    info = controller.rollback()
    print(f"rollback:  live model back to {info['version']} "
          f"(registry keeps all {len(registry.versions())} versions)")
    print("OK")


if __name__ == "__main__":
    main()
