"""Tests for the Sparse.Tree offline pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import ModelDatabase, build_dataset
from repro.core.pipeline import ProfilingResult
from repro.datasets import MatrixCollection
from repro.errors import TuningError, ValidationError
from repro.experiments.stages import run_profile_stage, train_model
from repro.machine import CostModel


@pytest.fixture(scope="module")
def coll():
    return MatrixCollection(n_matrices=120, seed=7)


@pytest.fixture(scope="module")
def spaces():
    cm = CostModel()  # default noise: labels behave like measurements
    return [make_space("archer2", "serial", cost_model=cm),
            make_space("p3", "cuda", cost_model=cm)]


@pytest.fixture(scope="module")
def profiling(coll, spaces):
    return run_profile_stage(coll, spaces)


class TestProfiling:
    def test_all_matrices_labelled(self, coll, profiling, spaces):
        for sp in spaces:
            assert len(profiling.optimal[sp.name]) == len(coll)

    def test_labels_are_argmin_of_times(self, coll, profiling, spaces):
        sp = spaces[0]
        from repro.formats.base import FORMAT_IDS

        for spec in coll.subset(20):
            times = profiling.times[sp.name][spec.name]
            best = min(times, key=times.get)
            assert profiling.optimal[sp.name][spec.name] == FORMAT_IDS[best]

    def test_distribution_sums_to_one(self, profiling, spaces):
        for sp in spaces:
            dist = profiling.format_distribution(sp.name)
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_csr_is_majority_class(self, profiling, spaces):
        """The paper's headline observation (Figure 2)."""
        for sp in spaces:
            dist = profiling.format_distribution(sp.name)
            assert dist["CSR"] == max(dist.values())

    def test_speedups_at_least_one(self, profiling, spaces):
        for sp in spaces:
            sps = profiling.speedup_vs_csr(sp.name)
            assert (sps >= 1.0).all()

    def test_speedup_omits_csr_optimal(self, profiling, spaces):
        sp = spaces[0]
        n_csr = sum(
            1 for v in profiling.optimal[sp.name].values() if v == 1
        )
        sps = profiling.speedup_vs_csr(sp.name)
        assert len(sps) == len(profiling.optimal[sp.name]) - n_csr

    def test_labels_helper_order(self, coll, profiling, spaces):
        sp = spaces[0]
        names = [s.name for s in coll.subset(5)]
        labels = profiling.labels(sp.name, names)
        assert labels.shape == (5,)


class TestTraining:
    @pytest.fixture(scope="class")
    def dataset(self, coll, profiling, spaces):
        sp = spaces[1]  # GPU: more diverse labels
        train, test = coll.train_test_split()
        Xtr, ytr = build_dataset(coll, train, profiling, sp.name)
        Xte, yte = build_dataset(coll, test, profiling, sp.name)
        return Xtr, ytr, Xte, yte

    def test_shapes(self, dataset):
        Xtr, ytr, Xte, yte = dataset
        assert Xtr.shape[1] == 10
        assert Xtr.shape[0] == ytr.shape[0]
        assert Xte.shape[0] == yte.shape[0]

    def test_train_tuned_model_beats_chance(self, dataset):
        Xtr, ytr, Xte, yte = dataset
        tm = train_model(
            Xtr, ytr, Xte, yte,
            grid={"n_estimators": [10], "max_depth": [10]},
            system="p3", backend="cuda",
        )
        majority = np.bincount(yte.astype(int)).max() / len(yte)
        assert tm.test_scores["tuned_accuracy"] >= majority - 0.1
        assert 0 <= tm.test_scores["tuned_balanced_accuracy"] <= 1

    def test_decision_tree_algorithm(self, dataset):
        Xtr, ytr, Xte, yte = dataset
        tm = train_model(
            Xtr, ytr, Xte, yte,
            algorithm="decision_tree",
            grid={"max_depth": [8, 12]},
        )
        assert tm.algorithm == "decision_tree"
        assert tm.oracle_model.kind == "decision_tree"

    def test_unknown_algorithm_raises(self, dataset):
        Xtr, ytr, Xte, yte = dataset
        with pytest.raises(ValidationError):
            train_model(Xtr, ytr, Xte, yte, algorithm="svm")

    def test_single_class_labels_raise(self, dataset):
        Xtr, _, Xte, yte = dataset
        with pytest.raises(TuningError):
            train_model(
                Xtr, np.ones(Xtr.shape[0], dtype=int), Xte, yte
            )

    def test_oracle_model_carries_provenance(self, dataset):
        Xtr, ytr, Xte, yte = dataset
        tm = train_model(
            Xtr, ytr, Xte, yte,
            grid={"n_estimators": [5], "max_depth": [8]},
            system="p3", backend="cuda",
        )
        om = tm.oracle_model
        assert om.system == "p3"
        assert om.backend == "cuda"


class TestModelDatabase:
    def test_save_and_load(self, tmp_path, dataset_model):
        db = ModelDatabase(tmp_path / "models")
        path = db.save(dataset_model)
        assert path.endswith("p3__cuda__random_forest.model")
        back = db.load("p3", "cuda", "random_forest")
        assert back.kind == "random_forest"

    def test_available_lists_keys(self, tmp_path, dataset_model):
        db = ModelDatabase(tmp_path / "models")
        db.save(dataset_model)
        assert ("p3", "cuda", "random_forest") in db.available()

    def test_missing_model_raises(self, tmp_path):
        db = ModelDatabase(tmp_path / "models")
        with pytest.raises(TuningError):
            db.load("archer2", "serial", "random_forest")

    def test_model_without_provenance_rejected(self, tmp_path, dataset_model):
        from repro.core import OracleModel

        db = ModelDatabase(tmp_path / "models")
        anonymous = OracleModel(
            kind=dataset_model.kind,
            trees=dataset_model.trees,
            classes=dataset_model.classes,
            n_features=dataset_model.n_features,
        )
        with pytest.raises(ValidationError):
            db.save(anonymous)

    def test_underscore_names_round_trip(self, tmp_path, dataset_model):
        """Regression: names containing '_' must survive available().

        The old single-'_' file layout split 'my_sys' + 'open_mp' +
        'random_forest' into ('my', 'sys', 'open_mp_random_forest').
        """
        from repro.core import OracleModel

        db = ModelDatabase(tmp_path / "models")
        weird = OracleModel(
            kind=dataset_model.kind,
            trees=dataset_model.trees,
            classes=dataset_model.classes,
            n_features=dataset_model.n_features,
            system="my_sys",
            backend="open_mp",
        )
        db.save(weird)
        assert db.available() == [("my_sys", "open_mp", "random_forest")]
        back = db.load("my_sys", "open_mp", "random_forest")
        assert back.system == "my_sys"
        assert back.backend == "open_mp"

    def test_malformed_file_names_skipped(self, tmp_path, dataset_model):
        db = ModelDatabase(tmp_path / "models")
        (tmp_path / "models" / "x__y.model").write_text("junk")
        # single-"_" names are not a model-file layout
        (tmp_path / "models" / "p3_cuda_random_forest.model").write_text("junk")
        assert db.available() == []

    def test_separator_rejected_inside_key_fields(self, tmp_path):
        db = ModelDatabase(tmp_path / "models")
        with pytest.raises(ValidationError):
            db.path_for("bad__sys", "serial", "random_forest")
        with pytest.raises(ValidationError):
            db.path_for("ok", "", "random_forest")

    def test_stats_computed_once_across_pipeline_stages(self):
        """Regression: profiling + dataset builds generate each matrix once."""
        from repro.backends import make_space
        from repro.datasets import MatrixCollection

        coll = MatrixCollection(n_matrices=8, seed=3)
        spaces = [make_space("cirrus", "serial"), make_space("p3", "cuda")]
        profiling = run_profile_stage(coll, spaces)
        train, test = coll.train_test_split()
        build_dataset(coll, train, profiling, spaces[0].name)
        build_dataset(coll, test, profiling, spaces[0].name)
        build_dataset(coll, train, profiling, spaces[1].name)
        assert coll.stats_computed == len(coll)
        assert coll.stats_requests > coll.stats_computed


@pytest.fixture(scope="module")
def dataset_model(coll, profiling, spaces):
    sp = spaces[1]
    train, test = coll.train_test_split()
    Xtr, ytr = build_dataset(coll, train, profiling, sp.name)
    Xte, yte = build_dataset(coll, test, profiling, sp.name)
    tm = train_model(
        Xtr, ytr, Xte, yte,
        grid={"n_estimators": [5], "max_depth": [8]},
        system="p3", backend="cuda",
    )
    return tm.oracle_model


class TestProfilingResultUnit:
    def test_empty_result_structures(self):
        pr = ProfilingResult()
        assert pr.times == {}
        assert pr.optimal == {}

    def test_zero_best_timing_raises_tuning_error(self):
        """Regression: degenerate cost-model output must not surface as a
        ZeroDivisionError."""
        pr = ProfilingResult(
            times={"s": {"m": {"CSR": 1.0, "DIA": 0.0}}},
            optimal={"s": {"m": 2}},  # DIA
        )
        with pytest.raises(TuningError):
            pr.speedup_vs_csr("s")

    def test_zero_csr_timing_on_csr_optimal_matrix_is_omitted(self):
        pr = ProfilingResult(
            times={"s": {"m": {"CSR": 0.0, "DIA": 1.0}}},
            optimal={"s": {"m": 1}},  # CSR: omitted by default
        )
        assert pr.speedup_vs_csr("s").size == 0
        with pytest.raises(TuningError):
            pr.speedup_vs_csr("s", omit_csr_optimal=False)
