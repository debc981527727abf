"""Cross-checks between the evaluation helpers and the raw pipeline data.

These tests pin down the exact correspondence between the quantities the
paper defines (Eq. 2, Table IV's T_tuning) and the library's computed
values, guarding the benchmark harness against definitional drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner, tune_multiply
from repro.datasets import MatrixCollection
from repro.evaluation import (
    speedup_summary,
    tuned_speedup_series,
    tuner_cost_statistics,
)
from repro.experiments.stages import run_profile_stage
from repro.formats import DynamicMatrix
from repro.machine import CostModel


@pytest.fixture(scope="module")
def world():
    coll = MatrixCollection(n_matrices=25, seed=13)
    space = make_space("p3", "cuda", cost_model=CostModel())
    profiling = run_profile_stage(coll, [space])
    return coll, space, profiling


def test_speedup_summary_matches_raw_profiling(world):
    coll, space, profiling = world
    summary = speedup_summary(profiling, space.name)
    raw = profiling.speedup_vs_csr(space.name)
    assert summary.n == raw.size
    if raw.size:
        assert summary.mean == pytest.approx(raw.mean())
        assert summary.maximum == pytest.approx(raw.max())


def test_tuner_cost_matches_tune_multiply(world):
    """Table IV's statistic must equal TunedSpMVResult's per-matrix one."""
    coll, space, _ = world
    specs = coll.subset(6)
    tuner = RunFirstTuner(repetitions=2)
    stats_table = tuner_cost_statistics(tuner, coll, specs, space)
    per_matrix = []
    for spec in specs:
        res = tune_multiply(
            DynamicMatrix(coll.generate(spec)), tuner, space,
            stats=coll.stats(spec), matrix_key=spec.name, repetitions=100,
        )
        per_matrix.append(res.tuning_cost_csr_equivalents)
    assert stats_table.mean == pytest.approx(np.mean(per_matrix), rel=1e-9)


def test_series_tuned_equals_eq2(world):
    coll, space, _ = world
    specs = coll.subset(5)
    tuner = RunFirstTuner(repetitions=1)
    series = tuned_speedup_series(tuner, coll, specs, space, repetitions=777)
    for i, spec in enumerate(specs):
        res = tune_multiply(
            DynamicMatrix(coll.generate(spec)), tuner, space,
            stats=coll.stats(spec), matrix_key=spec.name, repetitions=777,
        )
        assert series["tuned"][i] == pytest.approx(res.speedup_vs_csr)


def test_optimal_series_lower_bounds_tuned(world):
    """Hindsight optimum is an upper bound for any tuner (Fig. 5 overlay)."""
    coll, space, _ = world
    specs = coll.subset(8)
    series = tuned_speedup_series(
        RunFirstTuner(repetitions=1), coll, specs, space, repetitions=2000
    )
    assert (series["tuned"] <= series["optimal"] + 1e-9).all()
