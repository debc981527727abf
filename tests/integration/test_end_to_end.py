"""End-to-end integration: offline stage -> model file -> online tuning.

Reproduces the paper's Figure-1 pipeline at small scale on two spaces and
checks the cross-cutting claims that hold regardless of calibration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_spaces, make_space
from repro.core import (
    ModelDatabase,
    RandomForestTuner,
    RunFirstTuner,
    build_dataset,
    tune_multiply,
)
from repro.datasets import MatrixCollection
from repro.experiments.stages import run_profile_stage, train_model
from repro.formats import DynamicMatrix
from repro.machine import CostModel
from repro.ml import accuracy_score


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Small but complete offline stage shared by the tests."""
    coll = MatrixCollection(n_matrices=150, seed=11)
    cm = CostModel()
    spaces = [
        make_space("cirrus", "openmp", cost_model=cm),
        make_space("p3", "hip", cost_model=cm),
    ]
    profiling = run_profile_stage(coll, spaces)
    train, test = coll.train_test_split()
    db = ModelDatabase(tmp_path_factory.mktemp("models"))
    models = {}
    for sp in spaces:
        Xtr, ytr = build_dataset(coll, train, profiling, sp.name)
        Xte, yte = build_dataset(coll, test, profiling, sp.name)
        tm = train_model(
            Xtr, ytr, Xte, yte,
            grid={"n_estimators": [15], "max_depth": [12]},
            system=sp.system.name, backend=sp.backend,
        )
        db.save(tm.oracle_model)
        models[sp.name] = tm
    return coll, spaces, profiling, train, test, db, models


def test_models_persisted_per_space(world):
    _, spaces, _, _, _, db, _ = world
    keys = db.available()
    assert ("cirrus", "openmp", "random_forest") in keys
    assert ("p3", "hip", "random_forest") in keys


def test_online_stage_loads_from_database(world):
    coll, spaces, profiling, _, test, db, _ = world
    sp = spaces[0]
    tuner = RandomForestTuner(db.load("cirrus", "openmp", "random_forest"))
    spec = test[0]
    m = DynamicMatrix(coll.generate(spec))
    res = tune_multiply(
        m, tuner, sp, stats=coll.stats(spec), matrix_key=spec.name
    )
    assert m.active_format == res.report.format_name


def test_classifier_beats_majority_on_test_set(world):
    coll, spaces, profiling, train, test, db, models = world
    for sp in spaces:
        tuner = RandomForestTuner(
            db.load(sp.system.name, sp.backend, "random_forest")
        )
        y_true, y_pred = [], []
        for spec in test:
            stats = coll.stats(spec)
            report = tuner.tune(
                DynamicMatrix(coll.generate(spec)), sp,
                stats=stats, matrix_key=spec.name,
            )
            y_pred.append(report.format_id)
            y_true.append(profiling.optimal[sp.name][spec.name])
        acc = accuracy_score(np.asarray(y_true), np.asarray(y_pred))
        majority = np.bincount(y_true).max() / len(y_true)
        assert acc >= majority - 0.1


def test_run_first_matches_profiling_labels(world):
    """With shared cost-model noise, run-first recovers the exact labels."""
    coll, spaces, profiling, _, test, _, _ = world
    sp = spaces[1]
    tuner = RunFirstTuner()
    for spec in test[:10]:
        report = tuner.tune(
            DynamicMatrix(coll.generate(spec)), sp,
            stats=coll.stats(spec), matrix_key=spec.name,
        )
        assert report.format_id == profiling.optimal[sp.name][spec.name]


def test_tuned_speedup_distribution_sane(world):
    """Figure-5 shape: average tuned speedup >= ~1 on GPUs, and the
    overwhelming majority of matrices are not slowed down badly."""
    coll, spaces, profiling, _, test, db, _ = world
    sp = spaces[1]  # p3/hip
    tuner = RandomForestTuner(db.load("p3", "hip", "random_forest"))
    speedups = []
    for spec in test:
        m = DynamicMatrix(coll.generate(spec))
        res = tune_multiply(
            m, tuner, sp, stats=coll.stats(spec),
            matrix_key=spec.name, repetitions=1000,
        )
        speedups.append(res.speedup_vs_csr)
    speedups = np.asarray(speedups)
    assert speedups.mean() > 0.9
    assert (speedups > 0.5).mean() > 0.8


def test_spmv_values_survive_tuning_pipeline(world, rng):
    """Whatever format the tuner picks, numerics never change."""
    coll, spaces, _, _, test, db, _ = world
    sp = spaces[0]
    tuner = RandomForestTuner(db.load("cirrus", "openmp", "random_forest"))
    spec = test[1]
    matrix = coll.generate(spec)
    x = rng.standard_normal(matrix.ncols)
    y_ref = matrix.spmv(x)
    m = DynamicMatrix(matrix)
    res = tune_multiply(m, tuner, sp, x, stats=coll.stats(spec))
    np.testing.assert_allclose(res.y, y_ref, rtol=1e-10, atol=1e-10)


def test_all_eleven_spaces_profile_without_error():
    coll = MatrixCollection(n_matrices=12, seed=3)
    profiling = run_profile_stage(coll, available_spaces())
    assert len(profiling.optimal) == 11
