"""AdaptiveController: the closed loop over a live TuningService."""

from __future__ import annotations

import numpy as np
import pytest

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
SEED = 42


@pytest.fixture(scope="module")
def boot():
    return bootstrap(SYSTEM, BACKEND, n_matrices=16, seed=SEED)


@pytest.fixture(scope="module")
def scenario():
    return drifting_trace(n_matrices=4, requests=96, seed=SEED + 1)


@pytest.fixture
def space():
    return make_space(SYSTEM, BACKEND)


def make_loop(boot, tmp_path, space, **controller_kwargs):
    """A service + registry + controller wired the way `repro adapt` does."""
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(
        boot.model, metadata={"source": boot.baseline.source}
    )
    registry.promote(version)
    service = TuningService(space, workers=2, shadow_every=1)
    service.promote_model(
        RandomForestTuner(registry.load()),
        version=version,
        source=boot.baseline.source,
        algorithm="random_forest",
    )
    controller_kwargs.setdefault(
        "monitor",
        DriftMonitor(
            boot.baseline, window=64, min_observations=16, min_shadowed=4
        ),
    )
    controller_kwargs.setdefault(
        "retrainer", Retrainer(system=SYSTEM, backend=BACKEND)
    )
    controller_kwargs.setdefault("baseline_dataset", boot.dataset)
    controller_kwargs.setdefault("check_every", 8)
    controller = AdaptiveController(
        service, registry, source=boot.baseline.source, **controller_kwargs
    )
    return service, registry, controller


def drive(service, controller, scenario, waves=3):
    """Serve the pre phase, then *waves* replays of the drifted phase.

    Which matrices are shadow-probed before a drift check fires depends
    on thread scheduling, so convergence assertions need a generous
    wave budget: sustained drifted traffic is exactly what a live
    service would see, and the loop re-triggers while the model is
    still wrong.  Waves always run to completion (no early break): a
    retrain started in the final wave then trains on full telemetry
    coverage instead of a partial window.
    """
    with service, controller:
        replay_trace(service, scenario.phase_trace("before", 2))
        post = scenario.phase_trace("after", 2)
        for _ in range(waves):
            replay_trace(service, post)


class TestAttach:
    def test_attach_detach_observer(self, boot, tmp_path, space):
        service, _, controller = make_loop(boot, tmp_path, space)
        assert service._observer is None
        controller.attach()
        assert service._observer is not None
        controller.detach()
        assert service._observer is None
        service.close()

    def test_check_every_validation(self, boot, tmp_path, space):
        from repro.errors import AdaptiveError

        with pytest.raises(AdaptiveError):
            make_loop(boot, tmp_path, space, check_every=0)


class TestClosedLoop:
    def test_drift_retrain_promote_improves_model(
        self, boot, tmp_path, space, scenario
    ):
        frozen = mispredict_rate(boot.model, scenario.after_matrices, space)
        service, registry, controller = make_loop(boot, tmp_path, space)
        drive(service, controller, scenario, waves=6)
        assert controller.drift_events >= 1
        assert controller.promotions >= 1
        assert controller.retrain_failures == 0
        # the registry's live model moved past the bootstrap version
        assert registry.current() != "v0001"
        # ... and the service hot-swapped to it
        model_block = service.stats()["model"]
        assert model_block["version"] == registry.current()
        assert model_block["promotions"] >= 2  # initial + adaptive
        assert model_block["promoted_at"] is not None
        # the promoted model mispredicts less on the drifted population.
        # Which matrices were shadow-probed before each retrain fired is
        # thread-scheduling-dependent, so the bar here is the acceptance
        # floor (>= 30% reduction, as in bench_adaptive.py) rather than
        # full convergence: observed outcomes over many runs are 0.0-0.5
        # against a deterministic frozen rate of 1.0
        adapted = mispredict_rate(
            registry.load(), scenario.after_matrices, space
        )
        assert adapted <= frozen * 0.7

    def test_telemetry_and_drift_stats_populated(
        self, boot, tmp_path, space, scenario
    ):
        service, _, controller = make_loop(boot, tmp_path, space)
        drive(service, controller, scenario, waves=1)
        stats = controller.stats()
        assert stats["telemetry"]["recorded"] > 0
        assert stats["telemetry"]["shadowed"] > 0
        assert stats["drift"]["checks"] >= 1
        assert stats["registry"]["versions"] >= 1
        assert stats["last_trigger"] is None or "drift" in stats["last_trigger"]

    def test_background_retrain_promotes_on_worker(
        self, boot, tmp_path, space, scenario
    ):
        service, registry, controller = make_loop(
            boot, tmp_path, space, background=True
        )
        drive(service, controller, scenario)
        # close() joined the worker, so the promotion (if any) is visible
        if controller.promotions:
            assert registry.current() != "v0001"
            assert service.stats()["model"]["version"] == registry.current()
        assert controller.retrain_failures == 0

    def test_retrain_failure_keeps_serving(
        self, boot, tmp_path, space, scenario
    ):
        service, registry, controller = make_loop(
            boot, tmp_path, space,
            # impossible bar: every retrain attempt fails
            retrainer=Retrainer(
                system=SYSTEM, backend=BACKEND, min_samples=10_000
            ),
        )
        drive(service, controller, scenario, waves=1)
        assert controller.retrain_failures >= 1
        assert controller.promotions == 0
        assert registry.current() == "v0001"
        # every request was still served
        stats = service.stats()
        assert stats["requests_served"] == stats["requests_submitted"]

    def test_max_retrains_caps_the_loop(
        self, boot, tmp_path, space, scenario
    ):
        service, _, controller = make_loop(
            boot, tmp_path, space, max_retrains=1
        )
        drive(service, controller, scenario)
        total = controller.retrainer.retrains + controller.retrain_failures
        assert total <= 1


class TestRollback:
    def test_rollback_restores_previous_version_live(
        self, boot, tmp_path, space, scenario
    ):
        service, registry, controller = make_loop(boot, tmp_path, space)
        drive(service, controller, scenario)
        assert controller.promotions >= 1
        promotes = [
            e["version"] for e in registry.history() if e["event"] == "promote"
        ]
        promoted, previous = promotes[-1], promotes[-2]
        assert registry.current() == promoted
        info = controller.rollback()
        assert info["version"] == previous
        assert registry.current() == previous
        assert service.stats()["model"]["version"] == previous
        assert controller.rollbacks == 1
        # the rolled-back-from version is still published, not deleted
        assert promoted in registry.versions()


class TestUpdateObservations:
    """Mutation telemetry: the matrix-evolution drift channel."""

    def test_ingest_routes_updates_to_monitor_not_telemetry(
        self, boot, tmp_path, space
    ):
        service, registry, controller = make_loop(
            boot, tmp_path, space, check_every=1000
        )
        with service, controller:
            controller._ingest(
                [
                    {"kind": "update", "fingerprint": "m",
                     "epoch": 1, "stat_drift": 0.75},
                    {"kind": "update", "fingerprint": "m",
                     "epoch": 2, "stat_drift": 0.25},
                ]
            )
        stats = controller.monitor.stats()
        assert stats["updates_observed"] == 2
        assert stats["live_evolution"] == pytest.approx(1.0)
        # mutation records carry no features/timings: telemetry skips them
        assert controller.telemetry.stats()["recorded"] == 0

    def test_service_updates_flow_through_the_observer(
        self, boot, tmp_path, space
    ):
        from repro.formats import COOMatrix
        from repro.formats.delta import MatrixDelta

        service, registry, controller = make_loop(
            boot, tmp_path, space, check_every=1000
        )
        rng = np.random.default_rng(0)
        dense = (rng.random((12, 12)) < 0.4) * rng.standard_normal((12, 12))
        matrix = COOMatrix.from_dense(dense)
        with service, controller:
            session = service.session("c")
            session.spmv(matrix, np.ones(12), key="m")
            session.update(
                matrix, MatrixDelta.sets([0], [1], [3.0]), key="m"
            )
        assert controller.monitor.stats()["updates_observed"] == 1
