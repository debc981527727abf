"""Model-database round-trips across algorithms and tuner kinds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DecisionTreeTuner,
    ModelDatabase,
    OracleModel,
    RandomForestTuner,
)
from repro.ml import DecisionTreeClassifier, RandomForestClassifier


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((150, 10))
    y = rng.integers(0, 6, size=150)
    dt = DecisionTreeClassifier(max_depth=5).fit(X, y)
    rf = RandomForestClassifier(n_estimators=4, max_depth=4, seed=0).fit(X, y)
    return X, dt, rf


def test_both_algorithms_coexist(tmp_path, fitted):
    _, dt, rf = fitted
    db = ModelDatabase(tmp_path)
    db.save(OracleModel.from_estimator(dt, system="xci", backend="serial"))
    db.save(OracleModel.from_estimator(rf, system="xci", backend="serial"))
    keys = db.available()
    assert ("xci", "serial", "decision_tree") in keys
    assert ("xci", "serial", "random_forest") in keys


def test_loaded_models_drive_matching_tuners(tmp_path, fitted):
    X, dt, rf = fitted
    db = ModelDatabase(tmp_path)
    db.save(OracleModel.from_estimator(dt, system="xci", backend="serial"))
    db.save(OracleModel.from_estimator(rf, system="xci", backend="serial"))
    dt_tuner = DecisionTreeTuner(db.load("xci", "serial", "decision_tree"))
    rf_tuner = RandomForestTuner(db.load("xci", "serial", "random_forest"))
    assert dt_tuner.n_estimators == 1
    assert rf_tuner.n_estimators == 4


def test_loaded_predictions_bit_identical(tmp_path, fitted):
    X, _, rf = fitted
    db = ModelDatabase(tmp_path)
    om = OracleModel.from_estimator(rf, system="p3", backend="cuda")
    db.save(om)
    back = db.load("p3", "cuda", "random_forest")
    np.testing.assert_array_equal(back.predict(X), om.predict(X))


def test_overwrite_replaces_model(tmp_path, fitted):
    X, dt, rf = fitted
    db = ModelDatabase(tmp_path)
    db.save(OracleModel.from_estimator(rf, system="p3", backend="hip"))
    # retrain and overwrite under the same key
    rf2 = RandomForestClassifier(n_estimators=7, max_depth=3, seed=9).fit(
        X, np.zeros(150, dtype=int) + (X[:, 0] > 0)
    )
    db.save(OracleModel.from_estimator(rf2, system="p3", backend="hip"))
    assert db.load("p3", "hip", "random_forest").n_estimators == 7


def test_non_model_files_ignored(tmp_path, fitted):
    _, _, rf = fitted
    db = ModelDatabase(tmp_path)
    (tmp_path / "notes.txt").write_text("not a model")
    db.save(OracleModel.from_estimator(rf, system="p3", backend="hip"))
    assert len(db.available()) == 1
