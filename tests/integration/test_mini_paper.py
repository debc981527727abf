"""Mini-paper integration: all five experiments at toy scale, one pass.

A compressed version of the entire evaluation section over a 60-matrix
corpus and three representative spaces — the cross-experiment consistency
checks that the individual benches cannot express (e.g. the same profiling
labels feed Figures 2-5 and Tables III-IV coherently).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RandomForestTuner, build_dataset
from repro.datasets import MatrixCollection
from repro.experiments.stages import run_profile_stage, train_model
from repro.formats import DynamicMatrix
from repro.evaluation import (
    format_distribution_table,
    speedup_summary,
    tuned_speedup_series,
    tuner_cost_statistics,
)
from repro.machine import CostModel


@pytest.fixture(scope="module")
def mini():
    coll = MatrixCollection(n_matrices=60, seed=21)
    cm = CostModel()
    spaces = [
        make_space("archer2", "serial", cost_model=cm),
        make_space("archer2", "openmp", cost_model=cm),
        make_space("p3", "hip", cost_model=cm),
    ]
    profiling = run_profile_stage(coll, spaces)
    train, test = coll.train_test_split()
    models = {}
    for sp in spaces:
        Xtr, ytr = build_dataset(coll, train, profiling, sp.name)
        Xte, yte = build_dataset(coll, test, profiling, sp.name)
        models[sp.name] = train_model(
            Xtr, ytr, Xte, yte,
            grid={"n_estimators": [10], "max_depth": [10]},
            system=sp.system.name, backend=sp.backend,
        )
    return coll, spaces, profiling, test, models


def test_fig2_labels_feed_every_downstream_table(mini):
    coll, spaces, profiling, _, _ = mini
    table = format_distribution_table(profiling, [sp.name for sp in spaces])
    for sp in spaces:
        assert sum(table[sp.name].values()) == pytest.approx(1.0)
        # the labels used for training are exactly these distributions
        labels = profiling.labels(sp.name, [s.name for s in coll.specs])
        counts = np.bincount(labels, minlength=6) / len(coll)
        for fid, frac in enumerate(counts):
            name = list(table[sp.name])[fid]
            assert table[sp.name][name] == pytest.approx(frac)


def test_fig3_fig4_gpu_cpu_contrast(mini):
    _, spaces, profiling, _, _ = mini
    cpu = speedup_summary(profiling, "archer2/serial")
    gpu = speedup_summary(profiling, "p3/hip")
    if cpu.n and gpu.n:
        assert gpu.mean > cpu.mean


def test_table4_and_fig5_share_overheads(mini):
    """The tuner overhead in Table IV and in the Figure-5 denominator must
    be the same quantity: cost/T_CSR == (1/speedup - T_OPT/T_CSR) * reps."""
    coll, spaces, profiling, test, models = mini
    sp = spaces[2]
    tuner = RandomForestTuner(models[sp.name].oracle_model)
    reps = 400
    series = tuned_speedup_series(tuner, coll, test, sp, repetitions=reps)
    costs = tuner_cost_statistics(tuner, coll, test, sp)
    # reconstruct mean overhead (in CSR units) from the Fig-5 series
    recon = []
    for i, spec in enumerate(test):
        stats = coll.stats(spec)
        t_csr = sp.time_spmv(stats, "CSR", matrix_key=spec.name)
        report = tuner.tune(
            DynamicMatrix(coll.generate(spec)),
            sp, stats=stats, matrix_key=spec.name,
        )
        recon.append(report.overhead_seconds / t_csr)
    assert costs.mean == pytest.approx(np.mean(recon), rel=1e-9)
    # and the tuned series actually embeds that overhead
    assert (series["tuned"] <= series["optimal"] + 1e-9).all()


def test_models_transfer_across_spaces_degrades(mini):
    """A model trained for one target must not be assumed optimal on
    another — the reason the paper trains per (system, backend)."""
    coll, spaces, profiling, test, models = mini
    own, foreign = [], []
    sp_cpu, sp_gpu = spaces[0], spaces[2]
    gpu_model = models[sp_gpu.name].oracle_model
    for spec in test:
        from repro.core import extract_features_from_stats

        x = extract_features_from_stats(coll.stats(spec))[None, :]
        pred = int(gpu_model.predict(x)[0])
        own.append(pred == profiling.optimal[sp_gpu.name][spec.name])
        foreign.append(pred == profiling.optimal[sp_cpu.name][spec.name])
    assert np.mean(own) >= np.mean(foreign) - 0.15
