"""Tests for the resumable experiment orchestrator."""

from __future__ import annotations

import pytest

from repro.backends import make_space
from repro.datasets import MatrixCollection
from repro.errors import ValidationError
from repro.experiments import (
    ArtifactStore,
    CorpusSpec,
    ExperimentOrchestrator,
    ExperimentSpec,
    TargetSpec,
    compute_collection_stats,
    run_profile_stage,
)

N_MATRICES = 24
SEED = 5


def make_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        name="suite",
        corpus=CorpusSpec(n_matrices=N_MATRICES, seed=SEED),
        targets=(TargetSpec("cirrus", "serial"), TargetSpec("p3", "cuda")),
        algorithms=("random_forest",),
        grid={"n_estimators": [4], "max_depth": [6]},
        cv=3,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def fresh_collection() -> MatrixCollection:
    return MatrixCollection(n_matrices=N_MATRICES, seed=SEED)


def read_models(paths):
    return {p.rsplit("/", 1)[-1]: open(p, encoding="ascii").read() for p in paths}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run: the ground truth for resume comparisons.

    Model contents are snapshotted immediately — other tests sharing the
    store's model directory may legitimately overwrite the files later.
    """
    store = ArtifactStore(tmp_path_factory.mktemp("ref") / "store")
    coll = fresh_collection()
    result = ExperimentOrchestrator(
        make_spec(), store, collection=coll
    ).run()
    return store, coll, result, read_models(result.model_paths)


class TestFullRun:
    def test_all_stages_computed(self, reference):
        _, _, result, _ = reference
        assert [o.stage for o in result.outcomes] == [
            "profile", "dataset", "dataset", "train", "train",
            "export", "evaluate",
        ]
        assert not any(o.cached for o in result.outcomes)

    def test_each_matrix_generated_exactly_once(self, reference):
        _, coll, _, _ = reference
        assert coll.stats_computed == N_MATRICES

    def test_models_exported(self, reference):
        _, _, result, _ = reference
        names = set(read_models(result.model_paths))
        assert names == {
            "cirrus__serial__random_forest.model",
            "p3__cuda__random_forest.model",
        }

    def test_report_covers_spaces_and_models(self, reference):
        _, _, result, _ = reference
        report = result.report
        assert set(report["format_distribution"]) == {
            "cirrus/serial", "p3/cuda",
        }
        for dist in report["format_distribution"].values():
            assert sum(dist.values()) == pytest.approx(1.0)
        assert len(report["models"]) == 2
        for row in report["models"]:
            assert 0.0 <= row["test_scores"]["tuned_accuracy"] <= 1.0

    def test_profiling_matches_legacy_serial_path(self, reference):
        """The orchestrator's engine-dispatched profiling must produce the
        exact timings/labels of a direct serial run_profile_stage call."""
        _, _, result, _ = reference
        coll = fresh_collection()
        spaces = [make_space("cirrus", "serial"), make_space("p3", "cuda")]
        legacy = run_profile_stage(coll, spaces)
        assert legacy.times == result.profiling.times
        assert legacy.optimal == result.profiling.optimal


class TestRepeatRun:
    def test_second_run_fully_cached_zero_generation(self, reference):
        store, _, first, first_models = reference
        coll = fresh_collection()
        second = ExperimentOrchestrator(
            make_spec(), store, collection=coll
        ).run()
        assert second.all_cached
        assert coll.stats_computed == 0
        assert second.report == first.report
        assert read_models(second.model_paths) == first_models

    def test_profile_artifact_shared_across_test_fraction(self, reference):
        """Only the dataset stage keys on the split: suites differing in
        test_fraction reuse the profiling artifact."""
        store, _, _, _ = reference
        coll = fresh_collection()
        other = make_spec(
            corpus=CorpusSpec(
                n_matrices=N_MATRICES, seed=SEED, test_fraction=0.25
            )
        )
        result = ExperimentOrchestrator(other, store, collection=coll).run()
        by_stage = {o.stage: o for o in result.outcomes}
        assert by_stage["profile"].cached
        assert not by_stage["dataset"].cached
        assert coll.stats_computed == 0

    def test_rejected_profile_artifact_reported_as_computed(self, tmp_path):
        """A stale/mismatched profile payload falls back to computing and
        must not be reported as served from the store."""
        store = ArtifactStore(tmp_path / "store")
        coll = fresh_collection()
        orchestrator = ExperimentOrchestrator(
            make_spec(), store, collection=coll
        )
        store.put("profile", orchestrator.profile_key(), {"times": {}})
        result = orchestrator.run(until="profile")
        assert not result.outcomes[0].cached
        assert coll.stats_computed == N_MATRICES

    def test_profile_artifact_shared_across_training_axes(self, reference):
        """Suites differing only in training config reuse the profiling."""
        store, _, _, _ = reference
        coll = fresh_collection()
        other = make_spec(grid={"n_estimators": [3], "max_depth": [4]})
        result = ExperimentOrchestrator(other, store, collection=coll).run()
        by_stage = {o.stage: o for o in result.outcomes}
        assert by_stage["profile"].cached
        assert by_stage["dataset"].cached
        assert not by_stage["train"].cached
        assert coll.stats_computed == 0


class TestResumeAfterKill:
    def test_resume_after_profile_stage(self, tmp_path, reference):
        """Satellite: kill after profiling, re-run, identical artifacts and
        zero additional generation-counter increments."""
        _, _, uninterrupted, reference_models = reference
        store = ArtifactStore(tmp_path / "store")
        coll = fresh_collection()
        killed = ExperimentOrchestrator(
            make_spec(), store, collection=coll
        ).run(until="profile")
        assert [o.stage for o in killed.outcomes] == ["profile"]
        assert killed.report is None
        assert coll.stats_computed == N_MATRICES

        resumed_coll = fresh_collection()
        resumed = ExperimentOrchestrator(
            make_spec(), store, collection=resumed_coll
        ).run()
        # the profile artifact restored stats: nothing regenerated
        assert resumed_coll.stats_computed == 0
        by_stage = {}
        for outcome in resumed.outcomes:
            by_stage.setdefault(outcome.stage, outcome)
        assert by_stage["profile"].cached
        assert not by_stage["train"].cached
        # final artifacts identical to the uninterrupted reference run
        assert resumed.report == uninterrupted.report
        assert read_models(resumed.model_paths) == reference_models

    def test_mismatched_collection_rejected(self, tmp_path):
        """A collection not matching spec.corpus would poison the store
        under the spec's fingerprint — refuse it up front."""
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(ValidationError):
            ExperimentOrchestrator(
                make_spec(), store,
                collection=MatrixCollection(n_matrices=N_MATRICES, seed=99),
            )
        with pytest.raises(ValidationError):
            ExperimentOrchestrator(
                make_spec(), store,
                collection=MatrixCollection(
                    n_matrices=N_MATRICES, seed=SEED,
                    families={"banded": 1.0},
                ),
            )

    def test_unknown_until_stage_rejected(self, tmp_path):
        orchestrator = ExperimentOrchestrator(
            make_spec(), ArtifactStore(tmp_path / "s"),
            collection=fresh_collection(),
        )
        with pytest.raises(ValidationError):
            orchestrator.run(until="nonesuch")


class TestParallelProfiling:
    def test_jobs_equivalent_to_serial(self):
        spaces = [make_space("cirrus", "serial")]
        serial_coll = fresh_collection()
        serial = run_profile_stage(serial_coll, spaces, jobs=1)
        parallel_coll = fresh_collection()
        parallel = run_profile_stage(parallel_coll, spaces, jobs=2)
        assert parallel.times == serial.times
        assert parallel.optimal == serial.optimal
        # worker generations are counted through prime_stats
        assert parallel_coll.stats_computed == N_MATRICES

    def test_compute_collection_stats_skips_cached(self):
        coll = fresh_collection()
        first = compute_collection_stats(coll, jobs=2)
        assert first == N_MATRICES
        assert compute_collection_stats(coll, jobs=2) == 0

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            compute_collection_stats(fresh_collection(), jobs=0)
        with pytest.raises(ValidationError):
            ExperimentOrchestrator(
                make_spec(), ArtifactStore(tmp_path / "s"), jobs=0
            )


class TestStoreLess:
    def test_store_less_run_needs_model_dir(self):
        with pytest.raises(ValidationError):
            ExperimentOrchestrator(make_spec(), None)

    def test_store_less_run_completes(self, tmp_path):
        coll = fresh_collection()
        result = ExperimentOrchestrator(
            make_spec(), None, collection=coll,
            model_dir=str(tmp_path / "models"),
        ).run()
        assert result.report is not None
        assert not result.all_cached
        assert len(result.model_paths) == 2
